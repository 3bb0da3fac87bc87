import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from quasimode import (
    DomainError,
    ModelParams,
    Momentum,
    energy_cp,
    energy_level,
    energy_lp,
    zero_point_minimum,
)

XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
FREQ = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False)
MOM = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def _magnitude(p: Momentum) -> float:
    return math.sqrt(p.squared)


def _phi_of(p: Momentum) -> float:
    if _magnitude(p) == 0.0:
        return 0.0
    return math.acos(max(-1.0, min(1.0, p.p_major / _magnitude(p))))


def _ground(xi: float, omega: float, omega_p: float, p: Momentum = Momentum()):
    """The n = 0 level, which carries theta, Omega and sigma_sq."""
    return energy_level(ModelParams(xi=xi, omega=omega, omega_p=omega_p), p, 0)


class TestBogoliubovTheta:
    def test_circular_is_identity_transformation(self):
        assert _ground(xi=1.0, omega=1.0, omega_p=0.5).theta == 0.0

    def test_linear_frozen_value(self):
        # atanh(1/9)/2 at 40 digits
        theta = _ground(xi=0.0, omega=1.0, omega_p=0.5).theta
        assert theta == pytest.approx(0.05578588782855244, rel=1e-14)

    def test_no_coupling_no_squeezing(self):
        assert _ground(xi=0.3, omega=2.0, omega_p=0.0).theta == 0.0

    @given(xi=XI, omega=FREQ, omega_p=FREQ)
    def test_argument_always_in_range(self, xi, omega, omega_p):
        theta = _ground(xi=xi, omega=omega, omega_p=omega_p).theta
        assert theta >= 0.0 and math.isfinite(theta)


class TestEffectiveFrequency:
    def test_linear(self):
        Omega = _ground(xi=0.0, omega=1.0, omega_p=0.5).Omega
        assert Omega == pytest.approx(math.sqrt(1.25), rel=1e-15)

    def test_circular(self):
        assert _ground(xi=1.0, omega=1.0, omega_p=0.5).Omega == pytest.approx(1.125, rel=1e-15)

    def test_free_photon(self):
        assert _ground(xi=0.7, omega=1.0, omega_p=0.0).Omega == 1.0

    def test_diverges_at_zero_frequency_for_finite_xi(self):
        with pytest.raises(DomainError, match="diverges"):
            _ground(xi=0.5, omega=0.0, omega_p=1.0)


class TestDisplacement:
    def test_momentum_along_propagation_does_not_couple(self):
        assert _ground(0.5, 1.0, 0.5, Momentum(p_perp=2.0)).sigma_sq == 0.0

    def test_circular_frozen_value(self):
        got = _ground(1.0, 1.0, 0.5, Momentum(0.2, 0.0, 0.1)).sigma_sq
        assert got == pytest.approx(0.0019753086419753086, rel=1e-14)

    def test_no_coupling(self):
        assert _ground(1.0, 1.0, 0.0, Momentum(1.0, 1.0, 1.0)).sigma_sq == 0.0

    @given(xi=XI, omega=FREQ, omega_p=FREQ, a=MOM, b=MOM, c=MOM)
    def test_nonnegative(self, xi, omega, omega_p, a, b, c):
        assert _ground(xi, omega, omega_p, Momentum(a, b, c)).sigma_sq >= 0.0


class TestEnergyLevel:
    def test_circular_example(self):
        params = ModelParams(xi=1.0, omega=1.0, omega_p=0.5)
        level = energy_level(params, Momentum(0.2, 0.0, 0.1), 0)
        assert level.energy == pytest.approx(0.5852777777777778, rel=1e-12)

    def test_linear_example(self):
        params = ModelParams(xi=0.0, omega=1.0, omega_p=0.5)
        level = energy_level(params, Momentum(0.3, 0.0, 0.0), 0)
        assert level.energy == pytest.approx(0.5950169943749475, rel=1e-12)

    def test_free_oscillator_zero_point(self):
        for xi in (0.0, 0.5, 1.0):
            params = ModelParams(xi=xi, omega=2.0, omega_p=0.0)
            assert energy_level(params, Momentum(), 0).energy == 1.0

    def test_invalid_inputs(self):
        params = ModelParams(xi=0.5, omega=1.0, omega_p=0.5)
        with pytest.raises(DomainError):
            energy_level(params, Momentum(), -1)
        with pytest.raises(DomainError):
            energy_level(params, Momentum(), 0, N_charges=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_momentum_rejected(self, value):
        for components in ((value, 0.0, 0.0), (0.0, value, 0.0), (0.0, 0.0, value)):
            with pytest.raises(DomainError, match="finite"):
                Momentum(*components)

    @given(
        xi=XI, omega=FREQ, omega_p=FREQ, a=MOM, b=MOM, c=MOM,
        n=st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=300)
    def test_equal_level_spacing(self, xi, omega, omega_p, a, b, c, n):
        params = ModelParams(xi=xi, omega=omega, omega_p=omega_p)
        p = Momentum(a, b, c)
        low = energy_level(params, p, n)
        high = energy_level(params, p, n + 1)
        assert high.energy - low.energy == pytest.approx(
            params.hbar * low.Omega, rel=1e-12
        )

    def test_charge_count_scales_zero_point_as_sqrt(self):
        params = ModelParams(xi=0.5, omega=1.0, omega_p=0.5)
        base = energy_level(params, Momentum(), 0)
        for n_charges, factor in ((4, 2.0), (9, 3.0)):
            scaled = energy_level(params, Momentum(), 0, N_charges=n_charges)
            ref = ModelParams(xi=0.5, omega=1.0, omega_p=0.5 * factor)
            assert scaled.Omega == pytest.approx(
                energy_level(ref, Momentum(), 0).Omega, rel=1e-14
            )
            assert scaled.energy == pytest.approx(
                energy_level(ref, Momentum(), 0).energy, rel=1e-14
            )
        assert base.Omega < scaled.Omega

    @given(
        xi=XI, omega=FREQ, omega_p=FREQ, a=MOM, b=MOM, c=MOM,
        n=st.integers(min_value=0, max_value=5),
        n_charges=st.integers(min_value=2, max_value=1000),
    )
    @settings(max_examples=300)
    def test_charge_count_is_one_charge_at_scaled_omega_p(
        self, xi, omega, omega_p, a, b, c, n, n_charges
    ):
        p = Momentum(a, b, c)
        level = energy_level(ModelParams(xi=xi, omega=omega, omega_p=omega_p), p, n, n_charges)
        scaled = ModelParams(xi=xi, omega=omega, omega_p=omega_p * math.sqrt(n_charges))
        assert level == energy_level(scaled, p, n)

    @pytest.mark.parametrize("n,charges,message", [
        (10**400, 1, "excitation number is too large for a float"),
        (0, 10**400, "charge count is too large for a float"),
    ])
    def test_count_beyond_the_float_range_rejected(self, n, charges, message):
        # n + 0.5 and sqrt(N) raised OverflowError
        params = ModelParams(xi=0.5, omega=1.0, omega_p=1.0)
        with pytest.raises(DomainError) as exc:
            energy_level(params, Momentum(), n, charges)
        assert str(exc.value) == message

    def test_underflowing_denominator_rejected(self):
        # hbar omega and quad both underflow; this raised ZeroDivisionError
        params = ModelParams(xi=0.5, omega=1e-100, omega_p=1e-100, hbar=1e-300)
        with pytest.raises(DomainError, match="hbar omega \\+ quad underflows to 0"):
            energy_level(params, Momentum(), 0)

    def test_scaled_omega_p_square_overflow_rejected(self):
        params = ModelParams(xi=0.5, omega=1.0, omega_p=1e154)
        with pytest.raises(DomainError, match="overflows at 1.0, 1.7320508075688773e"):
            energy_level(params, Momentum(), 0, N_charges=3)


class TestClosedFormSpecializations:
    MOMENTA = [
        Momentum(),
        Momentum(0.3, 0.0, 0.0),
        Momentum(0.0, 0.4, 0.0),
        Momentum(0.0, 0.0, 0.5),
        Momentum(0.2, 0.1, 0.05),
        Momentum(1.0, 1.0, 1.0),
        Momentum(0.7, -0.2, 0.3),
        Momentum(-0.5, 0.6, -0.1),
    ]

    @pytest.mark.parametrize("omega", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("omega_p", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_circular_matches_closed_form(self, omega, omega_p, n):
        params = ModelParams(xi=1.0, omega=omega, omega_p=omega_p)
        for p in self.MOMENTA:
            general = energy_level(params, p, n).energy
            closed = energy_cp(params, p, n)
            assert general == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("omega", [0.4, 1.0, 2.5])
    @pytest.mark.parametrize("omega_p", [0.1, 0.5, 2.0])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_linear_matches_closed_form(self, omega, omega_p, n):
        params = ModelParams(xi=0.0, omega=omega, omega_p=omega_p)
        for p in self.MOMENTA:
            general = energy_level(params, p, n).energy
            closed = energy_lp(params, _magnitude(p), _phi_of(p), n)
            assert general == pytest.approx(closed, rel=1e-12)

    def test_linear_static_limit_momentum_independent(self):
        # p parallel to the polarization axis, omega -> 0: E = hbar omega_p / 2
        for p_mag in (0.0, 0.5, 3.0, 10.0):
            assert energy_lp(
                ModelParams(xi=0.0, omega_p=0.5), p_mag, 0.0, 0
            ) == pytest.approx(0.25, abs=1e-12)
        # residual at small finite omega is O(p^2 omega^2 / omega_p^2)
        for p_mag in (0.0, 0.5, 3.0):
            almost = energy_lp(
                ModelParams(xi=0.0, omega=1e-6, omega_p=0.5), p_mag, 0.0, 0
            )
            assert almost == pytest.approx(0.25, abs=1e-10)

    def test_circular_closed_form_at_rest(self):
        params = ModelParams(xi=1.0, omega=1.0, omega_p=0.5)
        expected = 1.0 * (1.0 + 0.25 / 2.0) / 2.0
        assert energy_cp(params, Momentum(), 0) == pytest.approx(expected, rel=1e-15)


class TestZeroPointMinimum:
    def test_circular_endpoint(self):
        _, e_star = zero_point_minimum(1.0, 1.0)
        assert e_star == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)

    def test_linear_endpoint(self):
        omega_min, e_star = zero_point_minimum(0.0, 1.0)
        assert omega_min == 0.0
        assert e_star == 0.5

    def test_elliptic_frozen_values(self):
        omega_min, e_star = zero_point_minimum(0.5, 2.0)
        assert omega_min == pytest.approx(1.2649110640673518, rel=1e-14)
        assert e_star == pytest.approx(1.3416407864998738, rel=1e-14)

    @pytest.mark.parametrize("xi", [0.1, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("omega_p", [0.3, 1.0, 4.0])
    def test_against_bracketing_minimizer(self, xi, omega_p):
        # independent bounded minimization of hbar*Omega(omega)/2 over omega
        omega_min, e_star = zero_point_minimum(xi, omega_p)

        def objective(w):
            return _ground(xi=xi, omega=w, omega_p=omega_p).Omega / 2.0

        res = minimize_scalar(
            objective, bounds=(1e-9 * omega_p, 50.0 * omega_p), method="bounded",
            options={"xatol": 1e-12},
        )
        assert res.x == pytest.approx(omega_min, rel=1e-6)
        assert res.fun == pytest.approx(e_star, rel=1e-10)

    def test_requires_positive_plasma_frequency(self):
        with pytest.raises(DomainError):
            zero_point_minimum(0.5, 0.0)
