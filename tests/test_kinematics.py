import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import bisect

from quasimode import (
    DomainError,
    critical_points,
    group_velocity,
    omega_of_k,
    phase_velocity,
    superluminal_backward_threshold,
)

XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
X = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestPhaseVelocity:
    def test_two_c_at_minimum_circular(self):
        k_star = critical_points(1.0).k_star
        assert phase_velocity(k_star, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_diverges_at_small_wavenumber_linear(self):
        assert phase_velocity(1e-6, 0.0) > 1e5
        with pytest.raises(DomainError):
            phase_velocity(0.0, 0.0)

    def test_approaches_light_speed_from_above(self):
        v = phase_velocity(1e3, 0.5)
        assert v == pytest.approx(1.0000005, rel=1e-9)
        assert v > 1.0

    @given(x=X, xi=XI)
    @settings(max_examples=300)
    def test_always_superluminal_and_consistent(self, x, xi):
        v = phase_velocity(x, xi)
        assert v > 1.0
        assert v * x == pytest.approx(omega_of_k(x, xi), rel=1e-12)
        assert group_velocity(x, xi) < v


class TestGroupVelocity:
    @pytest.mark.parametrize("xi", [0.1, 0.5, 1.0])
    def test_vanishes_at_dispersion_minimum(self, xi):
        assert group_velocity(critical_points(xi).k_star, xi) == pytest.approx(0.0, abs=1e-10)

    def test_minus_c_at_half_plasma_wavenumber_circular(self):
        assert group_velocity(0.5, 1.0) == pytest.approx(-1.0, rel=1e-12)

    def test_free_photon_limit(self):
        assert group_velocity(1e3, 0.0) == pytest.approx(0.9999995, rel=1e-9)

    def test_sign_structure(self):
        for xi in (0.2, 0.5, 1.0):
            k_star = critical_points(xi).k_star
            for t in (0.1, 0.5, 0.9):
                assert group_velocity(t * k_star, xi) < 0.0
            for t in (1.1, 2.0, 10.0):
                assert group_velocity(t * k_star, xi) > 0.0

    @given(x=X)
    def test_linear_velocity_product_identity(self, x):
        # v_g * v_ph = c^2 for the bulk-plasmon dispersion
        assert group_velocity(x, 0.0) * phase_velocity(x, 0.0) == pytest.approx(
            1.0, rel=1e-12
        )

    @pytest.mark.parametrize("xi", [0.0, 0.2, 0.5, 1.0])
    def test_matches_finite_difference(self, xi):
        h = 1e-6
        k_star = critical_points(xi).k_star
        xs = [0.05 * (100.0 / 0.05) ** (i / 149) for i in range(150)]
        for x in xs:
            fd = (omega_of_k(x + h, xi) - omega_of_k(x - h, xi)) / (2.0 * h)
            vg = group_velocity(x, xi)
            if abs(x - k_star) <= 1e-3:
                assert fd == pytest.approx(vg, abs=1e-6)
            else:
                assert fd == pytest.approx(vg, rel=1e-4)


class TestBackwardThreshold:
    def test_circular_exact(self):
        assert superluminal_backward_threshold(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_elliptic_frozen_value(self):
        # 40-digit evaluation of the closed form; bisection cross-check below
        assert superluminal_backward_threshold(0.5) == pytest.approx(
            0.4413364389063085, rel=1e-14
        )

    def test_linear_has_none(self):
        with pytest.raises(DomainError):
            superluminal_backward_threshold(0.0)

    @pytest.mark.parametrize("xi", [0.05, 0.2, 0.5, 0.8, 1.0])
    def test_agrees_with_bisection_root(self, xi):
        # independent root-finder on v_g(x) = -1 over (0, k_star)
        k_star = critical_points(xi).k_star
        root = bisect(
            lambda x: group_velocity(x, xi) + 1.0,
            1e-8,
            k_star * (1.0 - 1e-12),
            xtol=1e-13,
        )
        closed = superluminal_backward_threshold(xi)
        assert abs(closed - root) < 1e-9

    @given(xi=st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=200)
    def test_threshold_below_minimum_and_backward(self, xi):
        thr = superluminal_backward_threshold(xi)
        assert 0.0 < thr < critical_points(xi).k_star
        assert group_velocity(thr * 0.99, xi) < -1.0
        assert group_velocity(thr * 1.01, xi) > -1.0
