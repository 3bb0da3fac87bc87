import math

import pytest
from hypothesis import given, settings, strategies as st

from quasimode import (
    Branch,
    DomainError,
    Regime,
    critical_points,
    group_velocity,
    k_branches,
    omega_of_k,
    omega_physical,
    phase_velocity,
)

XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
XI_POS = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


class TestOmegaOfK:
    def test_circular_unit_point(self):
        # sqrt(1 + 1 + 0.25) = 1.5 exactly
        assert omega_of_k(1.0, 1.0) == 1.5

    def test_linear_at_origin_is_plasma_frequency(self):
        assert omega_of_k(0.0, 0.0) == 1.0

    def test_free_photon_asymptote(self):
        assert omega_of_k(1e3, 0.5) == pytest.approx(1000.0004999999550, rel=1e-12)

    def test_singular_at_origin_for_finite_xi(self):
        with pytest.raises(DomainError, match="singular"):
            omega_of_k(0.0, 0.5)

    def test_negative_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            omega_of_k(-1.0, 0.0)

    @pytest.mark.parametrize("xi", [0.2, 0.5, 1.0])
    def test_global_minimum_shape(self, xi):
        cp = critical_points(xi)
        left = [cp.k_star * t for t in (0.05, 0.3, 0.7, 0.95)]
        right = [cp.k_star * t for t in (1.05, 1.5, 3.0, 20.0)]
        ys_left = [omega_of_k(x, xi) for x in left]
        ys_right = [omega_of_k(x, xi) for x in right]
        assert all(a > b for a, b in zip(ys_left, ys_left[1:]))
        assert all(a < b for a, b in zip(ys_right, ys_right[1:]))
        assert omega_of_k(cp.k_star, xi) == pytest.approx(cp.omega_star, rel=1e-12)

    def test_linear_polarization_reduction(self):
        for x in (0.1, 0.5, 1.0, 2.0, 10.0):
            assert omega_of_k(x, 0.0) == pytest.approx(math.sqrt(x * x + 1.0), rel=1e-15)

    def test_free_photon_restored_at_small_plasma_frequency(self):
        for xi in (0.0, 0.5, 1.0):
            assert omega_physical(1.0, 1e-8, xi) == pytest.approx(1.0, rel=1e-6)
        assert omega_physical(2.0, 0.0, 0.7) == 2.0


class TestCriticalPoints:
    def test_circular(self):
        cp = critical_points(1.0)
        assert cp.k_star == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert cp.omega_star == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert cp.omega_tilde == 0.0

    def test_linear(self):
        cp = critical_points(0.0)
        assert (cp.k_star, cp.omega_star, cp.omega_tilde) == (0.0, 1.0, 1.0)

    def test_elliptic_midpoint(self):
        # frozen from a 40-digit evaluation of the closed forms
        cp = critical_points(0.5)
        assert cp.k_star == pytest.approx(0.6324555320336759, rel=1e-15)
        assert cp.omega_star == pytest.approx(1.3416407864998738, rel=1e-15)
        assert cp.omega_tilde == pytest.approx(0.4472135954999579, rel=1e-15)

    @given(xi=XI)
    def test_ordering_invariant(self, xi):
        cp = critical_points(xi)
        assert cp.omega_tilde <= 1.0 <= cp.omega_star


class TestKBranches:
    def test_traveling_pair(self):
        plus, minus = k_branches(1.5, 1.0)
        assert plus.value == pytest.approx(1.0, rel=1e-12)
        assert minus.value == pytest.approx(0.5, rel=1e-12)
        assert plus.regime is Regime.TRAVELING and minus.regime is Regime.TRAVELING
        assert plus.branch is Branch.PLUS and minus.branch is Branch.MINUS

    def test_zero_frequency_limit_circular(self):
        plus, minus = k_branches(1e-6, 1.0)
        assert plus.value.imag == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-6)
        assert minus.value.imag == pytest.approx(-1.0 / math.sqrt(2.0), rel=1e-6)

    def test_value_at_cutoff_frequency(self):
        cp = critical_points(0.5)
        plus, minus = k_branches(cp.omega_tilde, 0.5)
        k_mag = 0.6324555320336759  # sqrt(0.5/1.25)
        assert plus.value == pytest.approx(complex(0.0, k_mag), rel=1e-12)
        assert minus.value == pytest.approx(complex(0.0, -k_mag), rel=1e-12)

    def test_minus_branch_jump_at_cutoff(self):
        # Im k_minus jumps from -k_star (above) to +k_star (below); the plus
        # branch has a cusp with equal one-sided limits +k_star.
        cp = critical_points(0.5)
        eps = 1e-9
        above = k_branches(cp.omega_tilde + eps, 0.5)
        below = k_branches(cp.omega_tilde - eps, 0.5)
        assert above[1].value.imag == pytest.approx(-cp.k_star, abs=1e-4)
        assert below[1].value.imag == pytest.approx(cp.k_star, abs=1e-4)
        assert above[0].value.imag == pytest.approx(cp.k_star, abs=1e-4)
        assert below[0].value.imag == pytest.approx(cp.k_star, abs=1e-4)

    def test_zero_frequency_endpoints_elliptic(self):
        # Im k_plus(0) = xi/sqrt(1+xi^2), Im k_minus(0) = 1/sqrt(1+xi^2)
        xi = 0.5
        plus, minus = k_branches(0.0, xi)
        root = math.sqrt(1.0 + xi * xi)
        assert plus.value == pytest.approx(complex(0.0, xi / root), rel=1e-12)
        assert abs(minus.value) == pytest.approx(1.0 / root, rel=1e-12)

    def test_linear_polarization_single_branch(self):
        plus, minus = k_branches(2.0, 0.0)
        assert plus.value == pytest.approx(math.sqrt(3.0), rel=1e-14)
        assert minus.value == 0.0

    @given(y=st.floats(min_value=0.0, max_value=50.0), xi=XI)
    @settings(max_examples=300)
    def test_regime_labels_match_value_structure(self, y, xi):
        cp = critical_points(xi)
        expected = (
            Regime.TRAVELING if y >= cp.omega_star
            else Regime.EVANESCENT if y <= cp.omega_tilde
            else Regime.DECAYING_TRAVELING
        )
        for wn in k_branches(y, xi):
            assert wn.regime is expected
            if wn.regime is Regime.TRAVELING:
                assert wn.value.imag == 0.0
            if wn.regime is Regime.EVANESCENT:
                assert wn.value.real == 0.0
            if wn.regime is Regime.DECAYING_TRAVELING:
                sign = 1.0 if wn.branch is Branch.PLUS else -1.0
                assert sign * wn.value.imag >= 0.0

    # 30-digit principal-root evaluations, one point per regime and branch
    FROZEN = [
        (1.0, 0.5, 0.44721359549995794 + 0.44721359549995794j,
         0.44721359549995794 - 0.44721359549995794j),
        (0.7, 1.0, 0.35 + 0.61441028637222538j, 0.35 - 0.61441028637222538j),
        (0.3, 0.9, 0.14532303509900535 + 0.69001361184427858j,
         0.14532303509900535 - 0.69001361184427858j),
        (1.2, 0.2, 0.57171135995594753 + 0.0j, 0.33637199779012669 + 0.0j),
        (2.5, 0.9, 2.2808935683814289 + 0.0j, 0.21800121494210005 + 0.0j),
        (0.05, 0.9, 0.67818737457656188j, 0.73318611891180138j),
    ]

    @pytest.mark.parametrize("y,xi,plus_ref,minus_ref", FROZEN)
    def test_frozen_high_precision_values(self, y, xi, plus_ref, minus_ref):
        plus, minus = k_branches(y, xi)
        assert plus.value == pytest.approx(plus_ref, rel=1e-14, abs=1e-15)
        assert minus.value == pytest.approx(minus_ref, rel=1e-14, abs=1e-15)

    @given(xi=XI_POS, t=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=300)
    def test_product_and_sum_laws(self, xi, t):
        cp = critical_points(xi)
        y = cp.omega_star + t * (10.0 - cp.omega_star)
        plus, minus = k_branches(y, xi)
        xp, xm = plus.value.real, minus.value.real
        assert xp * xm == pytest.approx(xi / (1.0 + xi * xi), rel=1e-10)
        assert xp * xp + xm * xm == pytest.approx(y * y - 1.0, rel=1e-10)

    @given(xi=XI_POS, t=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=300)
    def test_roundtrip_above_minimum(self, xi, t):
        cp = critical_points(xi)
        y = cp.omega_star * (1.0 + t * 9.0)
        for wn in k_branches(y, xi):
            assert omega_of_k(wn.value.real, xi) == pytest.approx(y, rel=1e-10)


def regime(y, xi):
    """The regime of both branches at reduced frequency y."""
    return k_branches(y, xi)[0].regime


class TestClassifyRegime:
    def test_examples(self):
        assert regime(2.0, 0.5) is Regime.TRAVELING
        assert regime(1.0, 0.5) is Regime.DECAYING_TRAVELING
        assert regime(0.3, 0.5) is Regime.EVANESCENT

    def test_boundaries_inclusive(self):
        cp = critical_points(0.5)
        assert regime(cp.omega_star, 0.5) is Regime.TRAVELING
        assert regime(cp.omega_tilde, 0.5) is Regime.EVANESCENT

    def test_linear_has_no_damped_window(self):
        assert regime(1.0, 0.0) is Regime.TRAVELING
        assert regime(1.0 - 1e-12, 0.0) is Regime.EVANESCENT


class TestKernelEntryChecks:
    """The reduced-unit kernels raise DomainError, never return NaN or inf
    or raise a raw arithmetic error, for any argument a library caller passes."""

    @pytest.mark.parametrize("kernel", [k_branches, omega_of_k, phase_velocity, group_velocity])
    @pytest.mark.parametrize("arg,xi", [
        (math.nan, 0.5),
        (math.inf, 0.5),
        (-math.inf, 0.5),
        (1.0, math.nan),
        (1e200, 0.5),  # squares overflow
        (1e-80, 0.5),  # q/x^4 overflows
        (1e-200, 0.5),  # x^2 underflows to 0
        (1e-200, 0.0),
    ])
    def test_non_finite_argument_or_result_is_domain_error(self, kernel, arg, xi):
        try:
            result = kernel(arg, xi)
        except DomainError:
            return
        values = [wn.value for wn in result] if kernel is k_branches else [result]
        assert all(math.isfinite(abs(v)) for v in values), (kernel.__name__, arg, xi, result)

    @pytest.mark.parametrize("kernel,arg", [
        (k_branches, math.nan),
        (k_branches, 1e100),
        (omega_of_k, 1e200),
        (omega_of_k, 1e-200),
        (phase_velocity, math.nan),
        (phase_velocity, 1e-200),
        (group_velocity, math.nan),
        (group_velocity, 1e-80),
    ])
    def test_known_failures_are_domain_errors(self, kernel, arg):
        with pytest.raises(DomainError):
            kernel(arg, 0.5)

    def test_underflowing_plasma_wavenumber_is_domain_error(self):
        # k_p = omega_p/c underflows to 0; this raised ZeroDivisionError
        with pytest.raises(DomainError) as exc:
            omega_physical(1.0, 1e-300, 0.2, c=1e100)
        assert str(exc.value) == "k_p = omega_p/c underflows to 0 (omega_p=1e-300, c=1e+100)"

    def test_overflowing_plasma_wavenumber_is_domain_error(self):
        # k_p = omega_p/c overflows; k/k_p was 0, reported as the singular k=0
        with pytest.raises(DomainError) as exc:
            omega_physical(1.0, 1e300, 0.2, c=1e-10)
        assert str(exc.value) == "k_p = omega_p/c overflows (omega_p=1e+300, c=1e-10)"
