"""The array kernels against a per-point reference: the scalar code that
computed each value before the kernels took arrays, transcribed here.
Values must agree bit for bit, signed zeros included."""

import cmath
import contextlib
import io
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasimode import (
    DomainError, ModelParams, Momentum, PlateGeometry, critical_points, dielectric,
    energy_level, force_at_minimum, force_general, group_velocity, k_branches,
    phase_velocity, plasma_frequency_plates,
)
from quasimode.cli import EXIT_DOMAIN, main
from quasimode.dispersion import REGIMES, Regime, k_branches_array, omega_of_k_array
from quasimode.kinematics import velocities_array
from quasimode.optics import _branch_zetas
from quasimode.params import _power
from quasimode.spectrum import energy_levels_array
from quasimode.tables import SweepSpec, force_columns, sweep_columns


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


def reference_energy_level(xi, omega, omega_p, p, n, N_charges=1, mass=1.0, hbar=1.0):
    """theta, sigma_sq, Omega and the energy, as energy_level computed them
    one point at a time; the point is a valid ModelParams."""
    if N_charges > 1:
        omega_p = omega_p * math.sqrt(N_charges)
    if omega_p == 0.0:
        Omega, theta, sigma_sq = omega, 0.0, 0.0
    else:
        q = xi * xi / (1.0 + xi * xi) ** 2
        w2 = omega**2
        wp2 = omega_p**2
        Omega = math.sqrt(w2 + wp2 * (1.0 + q * wp2 / w2))
        xi2 = xi**2
        half_wp2 = wp2 / (2.0 * omega)
        tanh_2theta = half_wp2 * (1.0 - xi2) / ((1.0 + xi2) * (omega + half_wp2))
        theta = 0.5 * math.atanh(tanh_2theta)
        quad = hbar * omega_p**2 / (2.0 * omega)
        pref = math.cosh(2.0 * theta) / (hbar * omega + quad)
        weighted = (
            p.p_major**2 * math.exp(-2.0 * theta)
            + xi2 * p.p_minor**2 * math.exp(2.0 * theta)
        )
        sigma_sq = pref * pref * (quad / mass) / (1.0 + xi2) * weighted
    energy = p.squared / (2.0 * mass) + hbar * Omega * (n + 0.5 - sigma_sq)
    return theta, sigma_sq, Omega, energy


# Python's w**2 (libm pow) and numpy's w*w differ at these frequencies.
POW_SENSITIVE = [3.16643, 1.31373, 0.33746]
SPECTRUM_GRID = POW_SENSITIVE + [0.05, 0.5, 0.999, 1.0, 2.5, 4.99, 1e-3, 1e3]


def test_pow_sensitive_frequencies_round_apart():
    assert all(w**2 != w * w for w in POW_SENSITIVE)


@pytest.mark.parametrize("xi", [0.0, 0.3, 0.99995, 1.0])
@pytest.mark.parametrize("omega_p,charges,n,p", [
    (0.0, 1, (0,), Momentum()),
    (0.0, 1, (0, 3), Momentum(0.4, -0.2, 0.1)),
    (0.8, 1, (0,), Momentum()),
    (0.8, 1, (0, 1, 5), Momentum(0.7, -0.3, 0.2)),
    (1.7, 7, (2, 0), Momentum(-1.1, 0.6, 0.0)),
    (0.05, 1000, (0, 1), Momentum(0.0, 2.0, -0.5)),
])
@pytest.mark.parametrize("mass,hbar", [(1.0, 1.0), (0.37, 2.9)])
def test_spectrum_column_is_energy_level_point_by_point(xi, omega_p, charges, n, p, mass, hbar):
    spec = SweepSpec(
        quantity="spectrum", xi_list=(xi,), grid=tuple(SPECTRUM_GRID), units="atomic",
        omega_p=omega_p, mass=mass, hbar=hbar, momentum=p, n=n, n_charges=charges,
    )
    spec.validate()
    header, [block] = sweep_columns(spec)
    columns = dict(zip(header, block))
    rows = [(w, level) for w in SPECTRUM_GRID for level in n]
    assert columns["omega"].tolist() == [w for w, _ in rows]
    assert columns["n"].tolist() == [level for _, level in rows]
    for i, (w, level) in enumerate(rows):
        params = ModelParams(xi=xi, omega=w, omega_p=omega_p, mass=mass, hbar=hbar)
        got = energy_level(params, p, level, charges)
        expected = [got.theta, got.sigma_sq, got.Omega, got.energy]
        reference = reference_energy_level(xi, w, omega_p, p, level, charges, mass, hbar)
        cells = [columns[name][i] for name in ("theta", "sigma_sq", "effective_omega", "energy")]
        assert [float(v).hex() for v in cells] == [v.hex() for v in expected], (w, level)
        assert [v.hex() for v in expected] == [float(v).hex() for v in reference], (w, level)


@given(
    omegas=st.lists(st.one_of(
        st.floats(min_value=0.05, max_value=5.0), st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from(POW_SENSITIVE),
    ), min_size=1, max_size=20),
    xi=XI,
    omega_p=st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
    charges=st.sampled_from([1, 2, 1000]),
    p=st.tuples(*[st.floats(min_value=-3.0, max_value=3.0)] * 3),
)
@settings(max_examples=300)
def test_energy_levels_array_matches_the_reference(omegas, xi, omega_p, charges, p):
    momentum, n = Momentum(*p), (0, 1, 4)
    try:
        theta, sigma_sq, Omega, energy = energy_levels_array(
            xi, np.array(omegas), omega_p, momentum, n, charges
        )
    except DomainError as exc:
        # then some point raises it alone, as energy_level
        messages = set()
        for w in omegas:
            try:
                energy_level(ModelParams(xi=xi, omega=w, omega_p=omega_p), momentum, 0, charges)
            except DomainError as point:
                messages.add(str(point))
        assert str(exc) in messages
        return
    for i, w in enumerate(omegas):
        for j, level in enumerate(n):
            expected = reference_energy_level(xi, w, omega_p, momentum, level, charges)
            got = (theta[i], sigma_sq[i], Omega[i], energy[i, j])
            assert [float(v).hex() for v in got] == [v.hex() for v in expected], (w, level)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("xi,grid,omega_p,hbar,where,message", [
    ("0.5", "1,0", "1", "1", "xi=0.5, omega=0",
     "effective frequency diverges at omega=0 for xi > 0"),
    ("0.5", "1,1e200", "1", "1", "xi=0.5, omega=1e+200",
     "omega^2 or omega_p^2 overflows at 1e+200, 1.0"),
    ("0", "1", "1e9", "1", "xi=0, omega=1",
     "tanh(2 theta) rounds to 1 at omega = 1.0, omega_p = 1000000000.0:"
     " theta is not a finite float"),
    ("0", "1,0", "0.5", "1", "xi=0, omega=0",
     "operation requires a positive mode frequency omega"),
    ("0.5", "1,1e-170", "1", "1", "xi=0.5, omega=1e-170",
     "omega^2 underflows to 0 at omega = 1e-170"),
    # tanh(2 theta) is NaN here, which the tanh check lets through
    ("0.5", "1e10,1e-154", "2e77", "1", "xi=0.5, omega=1e-154",
     "level is not finite: Omega=inf, sigma_sq=nan, energy=nan"),
    # hbar omega and quad both underflow to 0, which raised ZeroDivisionError
    ("0.5", "1e150,1e-100", "1e-100", "1e-300", "xi=0.5, omega=1e-100",
     "hbar omega + quad underflows to 0 at omega = 1e-100"),
])
def test_spectrum_point_errors_are_energy_level_errors(
    xi, grid, omega_p, hbar, where, message
):
    argv = ["sweep", "spectrum", "--xi", xi, "--omega", grid, "--omega-p", omega_p,
            "--hbar", hbar, "--n", "0"]
    assert _run(argv) == (EXIT_DOMAIN, f"domain error at {where}: {message}\ndomain error: {message}\n")
    # the message is the one of the failing point alone, on the scalar path
    failing = float(where.rpartition("=")[2])
    with pytest.raises(DomainError) as point:
        params = ModelParams(xi=float(xi), omega=failing, omega_p=float(omega_p), hbar=float(hbar))
        energy_level(params, Momentum(), 0)
    assert str(point.value) == message


def reference_plasma_frequency(d, A, N, e, m):
    """plasma_frequency_plates(PlateGeometry(d, A, N), e, m), as the force
    tables computed it one separation at a time; the plates are valid."""
    return 2.0 * math.sqrt(math.pi) * e * math.sqrt(N) / math.sqrt(m * A * d)


def reference_force(omega, d, wp, xi, n_photons, hbar):
    """force_general at one omega of plates with plasma frequency wp, as the
    force tables computed it one row at a time; the point is valid."""
    q = xi * xi / (1.0 + xi * xi) ** 2
    if wp == 0.0:
        return 0.0
    photons = 1.0 + 2.0 * n_photons
    if omega == 0.0:
        return hbar * wp / (4.0 * d) * photons
    r2 = (wp / omega) ** 2
    inverse = 1.0 / r2
    numer = hbar * wp * (1.0 + 2.0 * q * r2)
    denom = 4.0 * math.sqrt(inverse + 1.0 + q * r2)
    return numer / denom * photons / d


def reference_force_at_minimum(d, wp, xi, n_photons, hbar):
    """force_at_minimum at one separation: the plasma-frequency form, which
    it returns once the Bohr form agrees."""
    kappa = critical_points(xi).omega_star
    return kappa / 4.0 * hbar * wp * (1.0 + 2.0 * n_photons) / d


def hexes(values):
    return [float(v).hex() for v in values]


def plate_spec(grid, plates, xi_list, d=1.0):
    spec = SweepSpec(quantity="force", xi_list=tuple(xi_list), grid=tuple(grid), units="atomic",
                     d=d, **plates)
    spec.validate()
    return spec


FORCE_XI = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
PLATES = st.fixed_dictionaries({
    "area": st.floats(1e-3, 1e3),
    "charge": st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
    "mass": st.floats(1e-3, 1e3),
    "hbar": st.floats(0.1, 10.0),
    "n_charges": st.sampled_from([0, 1, 2, 7]),
    "n_photons": st.sampled_from([0, 1, 3]),
})
SEPARATIONS = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5)


def check_force_block(columns, plates, xi, d, omega, wp):
    """The force block at xi and d against the reference, and each force
    against the scalar force_general at its omega."""
    e, m, hbar = plates["charge"], plates["mass"], plates["hbar"]
    geom = PlateGeometry(d, plates["area"], plates["n_charges"], plates["n_photons"])
    expected = [reference_force(w, d, wp, xi, plates["n_photons"], hbar) for w in omega]
    assert float(columns["omega_p"]).hex() == wp.hex()
    assert hexes(columns["force"]) == [v.hex() for v in expected], (xi, d)
    scalar = [force_general(w, geom, e, m, xi, hbar, omega_p=wp) for w in omega]
    assert [v.hex() for v in scalar] == [v.hex() for v in expected]


@given(
    omega=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
    d=SEPARATIONS, xi=FORCE_XI, plates=PLATES, ref_d=st.one_of(st.none(), st.floats(0.1, 10.0)),
)
@settings(max_examples=200)
def test_force_columns_at_omega_match_the_reference_point_by_point(omega, d, xi, plates, ref_d):
    if xi == 0.0:
        omega = [0.0, *omega, 0.0]  # the omega -> 0 limit
    spec = plate_spec(d, plates, (xi,))
    header, blocks = force_columns(spec, tuple(omega), ref_d)
    assert len(blocks) == len(d)
    area, n, e, m = plates["area"], plates["n_charges"], plates["charge"], plates["mass"]
    frozen = None if ref_d is None else reference_plasma_frequency(ref_d, area, n, e, m)
    for separation, block in zip(d, blocks):
        columns = dict(zip(header, block))
        assert columns["omega"].tolist() == omega and columns["d"] == separation
        wp = reference_plasma_frequency(separation, area, n, e, m) if frozen is None else frozen
        check_force_block(columns, plates, xi, separation, omega, wp)
    # sweep force evaluates the same kernel at its one separation
    sweep = plate_spec(omega, plates, (xi,), d[0])
    header, [block] = sweep_columns(sweep)
    wp = reference_plasma_frequency(d[0], area, n, e, m)
    check_force_block(dict(zip(header, block)), plates, xi, d[0], omega, wp)


@given(d=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=30), xi=FORCE_XI, plates=PLATES,
       ref_d=st.one_of(st.none(), st.floats(0.1, 10.0)))
@settings(max_examples=200)
def test_force_columns_at_minimum_match_the_reference_point_by_point(d, xi, plates, ref_d):
    spec = plate_spec(d, plates, (xi,))
    header, [block] = force_columns(spec, None, ref_d)
    columns = dict(zip(header, block))
    area, n, e, m = plates["area"], plates["n_charges"], plates["charge"], plates["mass"]
    hbar, photons = plates["hbar"], plates["n_photons"]
    if ref_d is None:
        wp = [reference_plasma_frequency(v, area, n, e, m) for v in d]
    else:
        wp = [reference_plasma_frequency(ref_d, area, n, e, m)] * len(d)
    k_star = critical_points(xi).k_star
    assert np.broadcast_to(columns["omega_p"], len(d)).tolist() == wp
    assert hexes(np.broadcast_to(columns["omega"], len(d))) == [(v * k_star).hex() for v in wp]
    expected = [reference_force_at_minimum(v, w, xi, photons, hbar) for v, w in zip(d, wp)]
    assert hexes(columns["force"]) == [v.hex() for v in expected]
    # each scalar kernel is the matching element of its array form
    frozen = None if ref_d is None else wp[0]
    geom = PlateGeometry(np.array(d), area, n, photons)
    assert hexes(plasma_frequency_plates(geom, e, m)) == [
        plasma_frequency_plates(PlateGeometry(v, area, n, photons), e, m).hex() for v in d
    ]
    scalar = [force_at_minimum(PlateGeometry(v, area, n, photons), e, m, xi, hbar, frozen)
              for v in d]
    assert [v.hex() for v in scalar] == [v.hex() for v in expected]


# The plates of the defaults, whose omega_p is 2 sqrt(pi): at these omegas
# Python's (omega_p/omega)**2 (libm pow) and numpy's square round apart.
DEFAULT_WP = 2.0 * math.sqrt(math.pi)
POW_SENSITIVE_FORCE = [1.45691, 3.44461, 0.29239, 1.68037]


def test_pow_sensitive_force_frequencies_round_apart():
    assert all((DEFAULT_WP / w) ** 2 != (DEFAULT_WP / w) * (DEFAULT_WP / w)
               for w in POW_SENSITIVE_FORCE)


@pytest.mark.parametrize("xi", [0.0, 0.4, 1.0])
def test_force_at_pow_sensitive_frequencies(xi):
    plates = {"area": 1.0, "charge": 1.0, "mass": 1.0, "hbar": 1.0, "n_charges": 1,
              "n_photons": 0}
    omega = [0.5, *POW_SENSITIVE_FORCE]
    spec = plate_spec([1.0], plates, (xi,))
    header, [block] = force_columns(spec, tuple(omega), None)
    check_force_block(dict(zip(header, block)), plates, xi, 1.0, omega, DEFAULT_WP)


@pytest.mark.parametrize("ref_d", [None, 1.0])
@pytest.mark.parametrize("xi", [0.0, 0.5])
def test_force_columns_at_omega_with_plates_without_charge(xi, ref_d):
    # omega_p underflows to 0 at the farthest separation, whose rows have
    # no force, while the others have one, at omega = 0 too when xi = 0
    plates = {"area": 1.0, "charge": 1e-200, "mass": 1.0, "hbar": 1.0, "n_charges": 1,
              "n_photons": 1}
    d, omega = [1e250, 1.0, 3.0], [1e-250, 2e-250]
    if xi == 0.0:
        omega = [0.0, *omega]
    header, blocks = force_columns(plate_spec(d, plates, (xi,)), tuple(omega), ref_d)
    assert len(blocks) == len(d)
    for separation, block in zip(d, blocks):
        wp = reference_plasma_frequency(ref_d or separation, 1.0, 1, 1e-200, 1.0)
        assert (wp == 0.0) == (ref_d is None and separation == 1e250)
        check_force_block(dict(zip(header, block)), plates, xi, separation, omega, wp)
    assert not blocks[0][-1].any() and blocks[1][-1].all()


def outcome(f, *args):
    """The bits of f(*args), or the message of the DomainError it raises."""
    try:
        return f(*args).hex()
    except DomainError as exc:
        return str(exc)


def check_edges(kernel, points):
    """kernel over the points as an array: the scalar kernel's bits at each
    point where it succeeds, and where it raises at some point, that
    point's error; the points it succeeds at as an array of their own."""
    scalar = [outcome(kernel, v) for v in points]
    failing = [result for result in scalar if not result.startswith(("0x", "-0x"))]
    if failing:
        with pytest.raises(DomainError) as exc:
            kernel(np.array(points))
        assert str(exc.value) in failing
    passing = [v for v, result in zip(points, scalar) if result.startswith(("0x", "-0x"))]
    assert hexes(kernel(np.array(passing))) == [r for r in scalar if r.startswith(("0x", "-0x"))]
    return scalar


def neighbours(*values):
    return [w for v in values for w in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf))]


@pytest.mark.parametrize("xi", [0.0, 0.4, 1.0])
def test_force_general_array_at_the_edges_of_the_square(xi):
    g = PlateGeometry(d=1.0, A=1.0)
    root_max = math.sqrt(sys.float_info.max)
    # (omega_p/omega)^2 overflows below the first, its inverse overflows
    # above the second, and it underflows to 0 above the third
    omegas = neighbours(DEFAULT_WP / root_max, DEFAULT_WP * root_max, DEFAULT_WP * 2.0**538)
    omegas += [0.0, 0.5] if xi == 0.0 else [0.5]
    scalar = check_edges(lambda w: force_general(w, g, 1.0, 1.0, xi), omegas)
    assert {"(omega_p/omega)^2 is not a positive finite float at omega = "
            f"{math.nextafter(DEFAULT_WP / root_max, 0.0)}",
            f"(omega/omega_p)^2 overflows at omega = {math.nextafter(DEFAULT_WP * root_max, math.inf)}",
            } <= set(scalar)
    for w, result in zip(omegas, scalar):
        if result.startswith("0x"):
            assert result == reference_force(w, 1.0, DEFAULT_WP, xi, 0, 1.0).hex()


@pytest.mark.parametrize("omega_p", [None, 0.8])
def test_force_at_minimum_array_where_d_to_the_three_halves_overflows(omega_p):
    lo, hi = 1e205, 1e206  # the largest d whose d**1.5 is finite lies in [lo, hi)
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        try:
            mid**1.5
            lo = mid
        except OverflowError:
            hi = mid
    separations = [1.0, *neighbours(lo), 1e300]
    scalar = check_edges(
        lambda d: force_at_minimum(PlateGeometry(d=d, A=1.0), 1.0, 1.0, 0.5, 1.0, omega_p),
        separations,
    )
    if omega_p is None:
        assert scalar[2].startswith("0x") and scalar[3] == (
            f"d^(3/2) is not a positive finite float at d = {math.nextafter(lo, math.inf)}"
        )


@pytest.mark.parametrize("y", [2, 1.5])
def test_power_array_is_python_power_at_each_element(y):
    values = [0.0, 5e-324, 1e-200, 0.3, 2.0, 1e102, 1e154, 1e206, 1e300, 0.7]

    def python_power(x):
        try:
            return x**y
        except OverflowError:
            return math.inf

    expected = hexes(map(python_power, values))
    assert "inf" in expected  # one array overflows, the other not
    assert hexes(_power(np.array(values), y)) == expected
    assert hexes(_power(np.array(values[:4]), y)) == expected[:4]
