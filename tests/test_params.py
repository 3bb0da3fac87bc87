import math

import pytest
from hypothesis import given, strategies as st

from quasimode import (
    DomainError,
    ModelParams,
    derived_constants,
    ellipticity_kappa,
    plasma_frequency_from_volume,
    polarization_weight,
)

XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestPlasmaFrequencyFromVolume:
    def test_unit_example(self):
        # omega_p^2 = 4 pi / pi = 4
        assert plasma_frequency_from_volume(1.0, 1.0, math.pi) == pytest.approx(2.0, rel=1e-15)

    def test_zero_charge(self):
        assert plasma_frequency_from_volume(0.0, 1.0, 1.0) == 0.0

    def test_large_volume_limit(self):
        # free photon restored as V -> infinity
        assert plasma_frequency_from_volume(1.0, 1.0, 1e30) < 1e-14

    @pytest.mark.parametrize("e,m,V", [(1, 0, 1), (1, -1, 1), (1, 1, 0), (1, 1, -2), (-1, 1, 1)])
    def test_domain_errors(self, e, m, V):
        with pytest.raises(DomainError):
            plasma_frequency_from_volume(e, m, V)


class TestDerivedConstants:
    def test_circular_endpoint(self):
        dc = derived_constants(ModelParams(xi=1.0, omega=1.0, omega_p=1.0))
        assert dc.q == pytest.approx(0.25, abs=0)
        assert dc.kappa == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_linear_endpoint(self):
        dc = derived_constants(ModelParams(xi=0.0, omega=1.0, omega_p=1.0))
        assert dc.q == 0.0
        assert dc.kappa == 1.0

    def test_elliptic_midpoint(self):
        # independent high-precision evaluation of the closed forms
        dc = derived_constants(ModelParams(xi=0.5, omega=1.0, omega_p=1.0))
        assert dc.q == pytest.approx(0.16, rel=1e-15)
        assert dc.kappa == pytest.approx(1.3416407864998738, rel=1e-15)

    def test_requires_omega(self):
        with pytest.raises(DomainError):
            derived_constants(ModelParams(xi=0.5, omega_p=1.0))

    @given(
        xi=XI,
        omega=st.floats(min_value=1e-3, max_value=1e3),
        omega_p=st.floats(min_value=0.0, max_value=1e3),
        mass=st.floats(min_value=1e-2, max_value=1e2),
        hbar=st.floats(min_value=1e-2, max_value=1e2),
    )
    def test_coupling_identities(self, xi, omega, omega_p, mass, hbar):
        dc = derived_constants(
            ModelParams(xi=xi, omega=omega, omega_p=omega_p, mass=mass, hbar=hbar)
        )
        # quad / (hbar omega) = omega_p^2 / (2 omega^2)
        assert dc.quad / (hbar * omega) == pytest.approx(
            omega_p**2 / (2.0 * omega**2), rel=1e-14, abs=1e-300
        )
        # m g^2 = quad (both equal hbar omega_p^2 / (2 omega))
        assert mass * dc.g**2 == pytest.approx(dc.quad, rel=1e-14, abs=1e-300)


class TestPolarizationFunctions:
    @given(xi=st.floats(min_value=1e-6, max_value=1.0))
    def test_q_symmetric_under_inversion(self, xi):
        inv = 1.0 / xi
        q_inv = inv * inv / (1.0 + inv * inv) ** 2
        assert polarization_weight(xi) == pytest.approx(q_inv, rel=1e-12)

    def test_q_monotone_on_unit_interval(self):
        xs = [i / 200 for i in range(201)]
        qs = [polarization_weight(x) for x in xs]
        assert all(a < b for a, b in zip(qs, qs[1:]))
        assert qs[0] == 0.0
        assert qs[-1] == 0.25

    def test_kappa_monotone_with_endpoints(self):
        xs = [i / 200 for i in range(201)]
        ks = [ellipticity_kappa(x) for x in xs]
        assert ks[0] == 1.0
        assert ks[-1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert all(a < b for a, b in zip(ks, ks[1:]))

    @pytest.mark.parametrize("xi", [-0.1, 1.1, 2.0, -1e-9])
    def test_xi_rejected_not_clamped(self, xi):
        with pytest.raises(DomainError):
            polarization_weight(xi)


class TestModelParams:
    def test_from_charge_volume_matches_direct(self):
        a = ModelParams.from_charge_volume(0.3, 1.0, e=1.0, mass=1.0, volume=math.pi)
        b = ModelParams(xi=0.3, omega=1.0, omega_p=2.0)
        assert a.omega_p == pytest.approx(b.omega_p, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"xi": 1.5},
            {"xi": 0.5, "omega": -1.0},
            {"xi": 0.5, "omega_p": -1.0},
            {"xi": 0.5, "mass": 0.0},
            {"xi": 0.5, "hbar": 0.0},
            {"xi": 0.5, "c": -1.0},
            {"xi": 0.5, "omega": math.nan},
            {"xi": 0.5, "omega_p": math.inf},
            {"xi": 0.5, "mass": math.inf},
            {"xi": 0.5, "hbar": math.nan},
            {"xi": 0.5, "c": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            ModelParams(**kwargs)
