import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quasimode.dispersion
import quasimode.optics
from quasimode import (
    Branch,
    DomainError,
    critical_points,
    dielectric,
    k_branches,
    optical_response,
    reflectivity,
    refractive_index,
)
from quasimode.cli import main

XI = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
Y = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


class TestDielectric:
    def test_circular_spot_values(self):
        assert dielectric(1.5, 1.0, Branch.PLUS) == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert dielectric(1.5, 1.0, Branch.MINUS) == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_linear_above_plasma_frequency(self):
        assert dielectric(math.sqrt(2.0), 0.0, Branch.PLUS) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_zero_frequency(self):
        with pytest.raises(DomainError):
            dielectric(0.0, 0.5, Branch.PLUS)

    def test_only_the_requested_branch_is_checked(self):
        # zeta_minus ~ -1/y^2 overflows at y = 1e-161 while zeta_plus is 0
        assert dielectric(1e-161, 0.0, Branch.PLUS) == 0
        with pytest.raises(DomainError, match="not a finite float"):
            dielectric(1e-161, 0.0, Branch.MINUS)

    @pytest.mark.parametrize("y,xi", [(1e-170, 1.0), (1e-170, 0.5), (1e-160, 0.5), (1e155, 0.5)])
    def test_unrepresentable_permittivity_is_domain_error(self, y, xi):
        # y^2 underflows to 0, or zeta ~ 1/y^2 or the branch square overflows
        with pytest.raises(DomainError):
            dielectric(y, xi, Branch.PLUS)

    def test_one_critical_points_call_per_evaluation(self, monkeypatch):
        calls = []
        original = quasimode.dispersion.critical_points
        monkeypatch.setattr(
            quasimode.dispersion, "critical_points", lambda xi: calls.append(xi) or original(xi)
        )
        for y in (0.3, 1.0, 2.0, original(0.5).omega_tilde):
            calls.clear()
            dielectric(y, 0.5, Branch.MINUS)
            assert len(calls) == 1
            calls.clear()
            k_branches(y, 0.5)
            assert len(calls) == 1

    @pytest.mark.parametrize("quantity", ["dielectric", "reflectivity"])
    def test_one_branch_evaluation_per_sweep_point(self, quantity, monkeypatch, capsys):
        # both branches' rows come from one _branch_squares evaluation
        points = []
        original = quasimode.optics._branch_squares
        monkeypatch.setattr(
            quasimode.optics, "_branch_squares",
            lambda y, xi: points.append(len(y)) or original(y, xi),
        )
        assert main(["sweep", quantity, "--xi", "0.5", "--omega", "0.9"]) == 0
        assert sum(points) == 1
        assert len(capsys.readouterr().out.splitlines()) == 3

    @given(y=Y, xi=XI)
    @settings(max_examples=400)
    def test_identity_with_wavenumber_branches(self, y, xi):
        # zeta_pm = (x_pm / y)^2, branch by branch
        plus, minus = k_branches(y, xi)
        for wn, branch in ((plus, Branch.PLUS), (minus, Branch.MINUS)):
            expected = (wn.value / y) ** 2
            got = dielectric(y, xi, branch)
            assert cmath.isclose(got, expected, rel_tol=1e-10, abs_tol=1e-12)

    @pytest.mark.parametrize("xi", [0.2, 0.5, 0.9])
    def test_identity_holds_at_cutoff_frequency(self, xi):
        # double-root point: both branches purely imaginary, equal magnitude
        y = critical_points(xi).omega_tilde
        plus, minus = k_branches(y, xi)
        for wn, branch in ((plus, Branch.PLUS), (minus, Branch.MINUS)):
            expected = (wn.value / y) ** 2
            got = dielectric(y, xi, branch)
            assert cmath.isclose(got, expected, rel_tol=1e-12)
            assert got.real < 0.0 and got.imag == 0.0

    @pytest.mark.parametrize("xi", [0.2, 0.5, 0.8])
    def test_numpy_and_python_floats_give_the_same_bits(self, xi):
        # the value of y decides zeta, and so the optical response, not its
        # type: in the damped window numpy's and Python's complex division
        # round differently
        cp = critical_points(xi)
        ys = np.linspace(cp.omega_tilde, cp.omega_star, 2000)[1:-1]

        def bits(y, branch):
            zeta = dielectric(y, xi, branch)
            return zeta.real.hex(), zeta.imag.hex()

        for y in ys:
            for branch in Branch:
                assert bits(y, branch) == bits(float(y), branch), (y, branch)

    @given(y=Y)
    def test_linear_closed_form_both_branches_merge(self, y):
        # union over branches reproduces 1 - 1/y^2
        expected = 1.0 - 1.0 / (y * y)
        branch = Branch.PLUS if y >= 1.0 else Branch.MINUS
        got = dielectric(y, 0.0, branch)
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestRefractiveIndex:
    def test_exact_square(self):
        assert refractive_index(4.0 / 9.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_half(self):
        assert refractive_index(0.5) == pytest.approx(math.sqrt(0.5), rel=1e-15)

    def test_negative_real_gives_positive_imaginary(self):
        eta = refractive_index(-0.75)
        assert eta == pytest.approx(complex(0.0, math.sqrt(0.75)), rel=1e-15)

    @given(re=st.floats(-10, 10), im=st.floats(-10, 10))
    def test_principal_square(self, re, im):
        zeta = complex(re, im)
        eta = refractive_index(zeta)
        assert cmath.isclose(eta * eta, zeta, rel_tol=1e-12, abs_tol=1e-12)
        assert eta.real >= 0.0


class TestReflectivity:
    def test_spot_values(self):
        assert reflectivity(2.0 / 3.0) == pytest.approx(0.04, rel=1e-12)
        assert reflectivity(1.0 / 3.0) == pytest.approx(0.25, rel=1e-12)

    def test_purely_imaginary_index_reflects_completely(self):
        for b in (0.1, 1.0, 17.3):
            assert reflectivity(complex(0.0, b)) == pytest.approx(1.0, rel=1e-12)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            reflectivity(-1.0)


class TestOpticalResponse:
    @given(y=Y, xi=XI)
    @settings(max_examples=400)
    def test_contract(self, y, xi):
        for branch in (Branch.PLUS, Branch.MINUS):
            resp = optical_response(y, xi, branch)
            assert cmath.isclose(resp.eta**2, resp.zeta, rel_tol=1e-12, abs_tol=1e-12)
            assert 0.0 <= resp.R <= 1.0 + 1e-15

    @given(xi=XI, t=st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=300)
    def test_total_reflection_below_cutoff(self, xi, t):
        cutoff = critical_points(xi).omega_tilde
        y = t * cutoff
        if y <= 0.0:
            return
        for branch in (Branch.PLUS, Branch.MINUS):
            assert optical_response(y, xi, branch).R == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("xi", [0.2, 0.5, 1.0])
    def test_branches_bifurcate_above_minimum(self, xi):
        y_star = critical_points(xi).omega_star
        for y in (y_star * 1.01, y_star * 1.5, 3.0, 10.0):
            r_plus = optical_response(y, xi, Branch.PLUS).R
            r_minus = optical_response(y, xi, Branch.MINUS).R
            assert r_minus > r_plus

    def test_high_frequency_asymptotics(self):
        for xi in (0.2, 0.5, 1.0):
            assert optical_response(1e3, xi, Branch.PLUS).R == pytest.approx(0.0, abs=1e-3)
            assert optical_response(1e3, xi, Branch.MINUS).R == pytest.approx(1.0, abs=1e-3)
