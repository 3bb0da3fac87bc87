"""The array kernels against a per-point reference: the scalar code that
computed each value before the kernels took arrays, transcribed here.
Values must agree bit for bit, signed zeros included."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasimode import critical_points, dielectric, group_velocity, k_branches, phase_velocity
from quasimode.dispersion import REGIMES, Regime, k_branches_array, omega_of_k_array
from quasimode.kinematics import velocities_array
from quasimode.optics import _branch_zetas


def reference_branch_squares(y, xi):
    q = xi * xi / (1.0 + xi * xi) ** 2
    cp = critical_points(xi)
    if y >= cp.omega_star:
        regime = Regime.TRAVELING
    elif y > cp.omega_tilde:
        regime = Regime.DECAYING_TRAVELING
    else:
        regime = Regime.EVANESCENT
    if q > 0.0 and regime is Regime.EVANESCENT and y == cp.omega_tilde:
        s = -(xi / (1.0 + xi * xi))
        return complex(s, 0.0), complex(s, -0.0), regime
    a = y * y - 1.0
    disc = a * a - 4.0 * q
    if regime is Regime.DECAYING_TRAVELING:
        s_plus = (a + 1j * math.sqrt(max(-disc, 0.0))) / 2.0
        return s_plus, s_plus.conjugate(), regime
    inner = math.sqrt(max(disc, 0.0))
    if regime is Regime.TRAVELING:
        big = max(a + inner, 0.0)
        small = 2.0 * q / big if big > 0.0 else 0.0
        return complex(big / 2.0, 0.0), complex(small, 0.0), regime
    big = min(a - inner, 0.0)
    small = 2.0 * q / big if big < 0.0 else 0.0
    return complex(small, 0.0), complex(big / 2.0, 0.0), regime


def reference_real_root(s):
    if s.real > 0.0:
        return complex(math.sqrt(s.real), 0.0)
    return complex(0.0, math.copysign(math.sqrt(-s.real), s.imag))


def reference_k_branches(y, xi):
    s_plus, s_minus, regime = reference_branch_squares(y, xi)
    root = cmath.sqrt if regime is Regime.DECAYING_TRAVELING else reference_real_root
    return root(s_plus), root(s_minus), regime


def reference_zetas(y, xi):
    """With y a numpy float, numpy's complex division applies, as it did."""
    y2 = y * y
    s_plus, s_minus, regime = reference_branch_squares(y, xi)
    if regime is Regime.DECAYING_TRAVELING:
        zeta = s_plus / y2
        return zeta, zeta.conjugate()
    return complex(s_plus.real / y2, 0.0), complex(s_minus.real / y2, 0.0)


def reference_velocities(x, xi):
    q = xi * xi / (1.0 + xi * xi) ** 2
    x2 = x * x
    x4 = x2 * x2
    root = math.sqrt(1.0 + 1.0 / x2 + q / x4)
    return root, (1.0 - q / x4) / root


def reference_omega_of_k(x, xi):
    q = xi * xi / (1.0 + xi * xi) ** 2
    if x == 0.0:
        return 1.0
    x2 = x * x
    return math.sqrt(x2 + 1.0 + q / x2)


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def critical_frequencies(xi):
    """y = 1, omega~ and omega* with their nextafter neighbours."""
    cp = critical_points(xi)
    points = [1.0]
    for y in (cp.omega_tilde, cp.omega_star):
        points += [math.nextafter(y, 0.0), y, math.nextafter(y, math.inf)]
    return [y for y in points if y * y > 0.0]


XI = st.one_of(st.sampled_from([0.0, 0.2, 0.5, 0.99995, 1.0]), st.floats(0.0, 1.0))
# From y^2 above 0 to (y^2 - 1)^2 below the overflow threshold.
Y = st.one_of(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1e-150, max_value=1e76),
)


# at xi = 1e-137, omega~ and omega* round to the same float
@pytest.mark.parametrize("xi", [0.0, 1e-137, 1e-8, 0.2, 0.5, 0.99995, 1.0])
def test_critical_frequencies_match_the_reference(xi):
    ys = critical_frequencies(xi)
    x, codes = k_branches_array(np.array(ys), xi)
    zetas = _branch_zetas(np.array(ys), xi)
    numpy_zetas = _branch_zetas(np.array(ys), xi, numpy_division=True)
    for i, y in enumerate(ys):
        x_plus, x_minus, regime = reference_k_branches(y, xi)
        assert REGIMES[codes[i]] is regime
        assert (bits(x[0, i]), bits(x[1, i])) == (bits(x_plus), bits(x_minus)), y
        assert [bits(z) for z in zetas[:, i]] == [bits(z) for z in reference_zetas(y, xi)], y
        expected = reference_zetas(np.float64(y), xi)
        assert [bits(z) for z in numpy_zetas[:, i]] == [bits(z) for z in expected], y


@given(ys=st.lists(Y, min_size=1, max_size=20), xi=XI)
@settings(max_examples=300)
def test_wave_columns_match_the_reference_point_by_point(ys, xi):
    # one array mixes the regimes; every element must be its own reference
    ys = np.array(ys + critical_frequencies(xi))
    x, codes = k_branches_array(ys, xi)
    zetas = _branch_zetas(ys, xi)
    for i, y in enumerate(ys.tolist()):
        x_plus, x_minus, regime = reference_k_branches(y, xi)
        assert REGIMES[codes[i]] is regime
        assert (bits(x[0, i]), bits(x[1, i])) == (bits(x_plus), bits(x_minus)), y
        assert [bits(z) for z in zetas[:, i]] == [bits(z) for z in reference_zetas(y, xi)], y


@given(xs=st.lists(st.floats(min_value=1e-60, max_value=1e60), min_size=1, max_size=20), xi=XI)
@settings(max_examples=300)
def test_k_columns_match_the_reference_point_by_point(xs, xi):
    x = np.array(xs)
    omega, (phase, group) = omega_of_k_array(x, xi), velocities_array(x, xi)
    for i, value in enumerate(xs):
        assert omega[i].item().hex() == reference_omega_of_k(value, xi).hex()
        v_phase, v_group = reference_velocities(value, xi)
        assert (phase[i].item().hex(), group[i].item().hex()) == (v_phase.hex(), v_group.hex())


@given(y=Y, xi=XI)
@settings(max_examples=200)
def test_scalar_kernels_are_the_one_element_columns(y, xi):
    plus, minus = k_branches(y, xi)
    x_plus, x_minus, regime = reference_k_branches(y, xi)
    assert (bits(plus.value), bits(minus.value)) == (bits(x_plus), bits(x_minus))
    assert plus.regime is minus.regime is regime
    zetas = reference_zetas(y, xi)
    if all(cmath.isfinite(z) for z in zetas):
        assert [bits(dielectric(y, xi, b)) for b in (plus.branch, minus.branch)] == [
            bits(z) for z in zetas
        ]
    if 1e-60 <= y <= 1e60:
        v_phase, v_group = reference_velocities(y, xi)
        assert (phase_velocity(y, xi).hex(), group_velocity(y, xi).hex()) == (
            v_phase.hex(), v_group.hex()
        )
