"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with -s or on failure) and
enforces its runtime budget.  Frozen reference numbers were computed from
the closed forms at 40-digit precision.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import bisect

from quasimode import (
    Branch,
    ModelParams,
    Momentum,
    PlateGeometry,
    critical_points,
    default_verification_cases,
    dielectric,
    energy_cp,
    energy_level,
    energy_lp,
    force_at_minimum,
    force_minimum_bohr_form,
    force_minimum_plasma_form,
    group_velocity,
    k_branches,
    lowest_eigenvalues,
    omega_of_k,
    optical_response,
    phase_velocity,
    plasma_frequency_plates,
    superluminal_backward_threshold,
    verify_spectrum,
    zero_point_minimum,
)
from quasimode.figures import emit_figure_datasets
from quasimode.fock import build_dipole_hamiltonian, build_planewave_hamiltonian

BASELINE_DIR = Path(__file__).parent / "baselines"

# 40-digit closed-form evaluations of (k*, omega*, omega~) per xi.
CRITICAL_REFERENCE = {
    0.0: (0.0, 1.0, 1.0),
    0.2: (0.4385290096535146, 1.1766968108291042, 0.7844645405527361),
    0.5: (0.6324555320336759, 1.3416407864998738, 0.4472135954999579),
    1.0: (0.7071067811865476, 1.4142135623730951, 0.0),
}


def _run(num: int, name: str, budget_s: float, check) -> None:
    start = time.perf_counter()
    try:
        check()
    except BaseException:
        print(f"[FAIL] criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {num}: {name} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s:.0f}s budget"


def test_criterion_1_critical_point_closed_forms():
    def check():
        for xi, (k_ref, star_ref, tilde_ref) in CRITICAL_REFERENCE.items():
            cp = critical_points(xi)
            assert cp.k_star == pytest.approx(k_ref, rel=1e-12, abs=1e-12)
            assert cp.omega_star == pytest.approx(star_ref, rel=1e-12)
            assert cp.omega_tilde == pytest.approx(tilde_ref, rel=1e-12, abs=1e-12)
        assert critical_points(1.0).omega_star == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert critical_points(1.0).omega_tilde == 0.0
        assert critical_points(0.0).omega_star == 1.0
        assert critical_points(0.0).omega_tilde == 1.0

    _run(1, "critical-point closed forms", 1.0, check)


def test_criterion_2_branch_roundtrip_and_product_law():
    def check():
        for xi in (0.2, 0.5, 1.0):
            cp = critical_points(xi)
            product_ref = xi / (1.0 + xi * xi)
            for y in np.linspace(cp.omega_star, 10.0, 1000):
                plus, minus = k_branches(float(y), xi)
                xp, xm = plus.value.real, minus.value.real
                assert omega_of_k(xp, xi) == pytest.approx(y, rel=1e-10)
                assert omega_of_k(xm, xi) == pytest.approx(y, rel=1e-10)
                assert xp * xm == pytest.approx(product_ref, rel=1e-10)

    _run(2, "branch roundtrip and product law", 1.0, check)


def test_criterion_3_optics_identities():
    def check():
        # zeta_pm = (x_pm / y)^2 over the traveling grid of criterion 2
        for xi in (0.2, 0.5, 1.0):
            cp = critical_points(xi)
            for y in np.linspace(cp.omega_star, 10.0, 1000):
                y = float(y)
                plus, minus = k_branches(y, xi)
                for wn, branch in ((plus, Branch.PLUS), (minus, Branch.MINUS)):
                    expected = (wn.value / y) ** 2
                    got = dielectric(y, xi, branch)
                    assert abs(got - expected) <= 1e-10 * max(abs(expected), 1e-30)
        # linear-polarization reduction: both branches merge into 1 - 1/y^2
        for y in np.linspace(0.05, 10.0, 500):
            y = float(y)
            branch = Branch.PLUS if y >= 1.0 else Branch.MINUS
            got = dielectric(y, 0.0, branch)
            assert got.imag == 0.0
            assert got.real == pytest.approx(1.0 - 1.0 / y**2, rel=1e-12, abs=1e-12)
        # total reflection below the cutoff frequency
        for xi in (0.0, 0.2, 0.5, 0.99):
            cutoff = critical_points(xi).omega_tilde
            for t in np.linspace(0.01, 1.0, 100):
                y = float(t * cutoff)
                for branch in (Branch.PLUS, Branch.MINUS):
                    assert optical_response(y, xi, branch).R == pytest.approx(1.0, abs=1e-12)
        # exact spot values on both branches
        assert optical_response(1.5, 1.0, Branch.PLUS).R == pytest.approx(0.04, rel=1e-12)
        assert optical_response(1.5, 1.0, Branch.MINUS).R == pytest.approx(0.25, rel=1e-12)

    _run(3, "dielectric/reflectivity identities", 1.0, check)


def test_criterion_4_velocities():
    def check():
        for xi in (0.2, 0.5, 1.0):
            assert group_velocity(critical_points(xi).k_star, xi) == pytest.approx(
                0.0, abs=1e-10
            )
        assert group_velocity(0.5, 1.0) == pytest.approx(-1.0, rel=1e-12)
        assert phase_velocity(critical_points(1.0).k_star, 1.0) == pytest.approx(
            2.0, rel=1e-12
        )
        # finite-difference consistency of the group velocity
        h = 1e-6
        xs = np.logspace(math.log10(0.05), math.log10(100.0), 200)
        for xi in (0.0, 0.2, 0.5, 1.0):
            k_star = critical_points(xi).k_star
            for x in xs:
                x = float(x)
                fd = (omega_of_k(x + h, xi) - omega_of_k(x - h, xi)) / (2.0 * h)
                vg = group_velocity(x, xi)
                if abs(x - k_star) <= 1e-3:
                    assert fd == pytest.approx(vg, abs=1e-6)
                else:
                    assert fd == pytest.approx(vg, rel=1e-4)
        # closed-form backward threshold against an independent bisection root
        for xi in (0.05, 0.2, 0.5, 0.8, 1.0):
            k_star = critical_points(xi).k_star
            root = bisect(
                lambda x: group_velocity(x, xi) + 1.0,
                1e-8, k_star * (1.0 - 1e-12), xtol=1e-13,
            )
            assert abs(superluminal_backward_threshold(xi) - root) < 1e-9

    _run(4, "phase/group velocities and thresholds", 5.0, check)


def test_criterion_5_spectrum_specialization():
    OMEGAS = (0.4, 1.0, 2.5, 5.0, 8.0)
    OMEGA_PS = (0.1, 0.5, 1.0, 2.0, 4.0)
    NS = (0, 1, 3, 7, 12)
    MOMENTA = (
        Momentum(),
        Momentum(0.3, 0.0, 0.0),
        Momentum(0.0, 0.4, 0.0),
        Momentum(0.0, 0.0, 0.5),
        Momentum(0.2, 0.1, 0.05),
        Momentum(1.0, 1.0, 1.0),
        Momentum(0.7, -0.2, 0.3),
        Momentum(-0.5, 0.6, -0.1),
    )

    def magnitude(p):
        return math.sqrt(p.squared)

    def phi_of(p):
        if magnitude(p) == 0.0:
            return 0.0
        return math.acos(max(-1.0, min(1.0, p.p_major / magnitude(p))))

    def check():
        count = 0
        for omega in OMEGAS:
            for omega_p in OMEGA_PS:
                cp_params = ModelParams(xi=1.0, omega=omega, omega_p=omega_p)
                lp_params = ModelParams(xi=0.0, omega=omega, omega_p=omega_p)
                for p in MOMENTA:
                    for n in NS:
                        count += 1
                        assert energy_level(cp_params, p, n).energy == pytest.approx(
                            energy_cp(cp_params, p, n), rel=1e-12
                        )
                        assert energy_level(lp_params, p, n).energy == pytest.approx(
                            energy_lp(lp_params, magnitude(p), phi_of(p), n), rel=1e-12
                        )
        assert count == 1000
        # static limit: E depends only on omega_p when p is along the axis
        for p_mag in (0.0, 0.5, 3.0, 10.0):
            got = energy_lp(ModelParams(xi=0.0, omega_p=0.5), p_mag, 0.0, 0)
            assert got == pytest.approx(0.25, abs=1e-10)
        for p_mag in (0.0, 0.5, 3.0):
            got = energy_lp(ModelParams(xi=0.0, omega=1e-6, omega_p=0.5), p_mag, 0.0, 0)
            assert got == pytest.approx(0.25, abs=1e-10)
        # zero-point endpoints
        for omega_p in (0.5, 1.0, 3.0):
            assert zero_point_minimum(1.0, omega_p)[1] == pytest.approx(
                omega_p / math.sqrt(2.0), rel=1e-12
            )
            assert zero_point_minimum(0.0, omega_p)[1] == pytest.approx(
                omega_p / 2.0, rel=1e-12
            )

    _run(5, "spectrum specializations and zero-point endpoints", 2.0, check)


def test_criterion_6_number_basis_verification():
    def check():
        cases = default_verification_cases()
        assert len(cases) == 9
        for params, p in cases:
            report = verify_spectrum(
                params, p, n_levels=5, tol=1e-6, cutoff_start=64, cutoff_cap=1024
            )
            assert report.converged, (params, p)
            assert report.max_rel_err <= 1e-6
            spacing_ref = params.hbar * energy_level(params, p, 0).Omega
            levels = report.lowest_numeric
            for a, b in zip(levels, levels[1:]):
                assert (b - a) == pytest.approx(spacing_ref, rel=1e-6)

    _run(6, "truncated number-basis spectrum verification (9 cases)", 60.0, check)


def test_criterion_7_plane_wave_corrections():
    def check():
        # p = 0, circular: both variants diagonal, shift exactly recoil*(n+1/2)^2
        params = ModelParams(xi=1.0, omega=1.0, omega_p=0.5)
        e_dip = lowest_eigenvalues(build_dipole_hamiltonian(params, Momentum(), 64), 8)
        e_pw = lowest_eigenvalues(build_planewave_hamiltonian(params, Momentum(), 64), 8)
        recoil = (params.omega / params.c) ** 2 / (2.0 * params.mass)
        for n, (a, b) in enumerate(zip(e_dip, e_pw)):
            assert (b - a) == pytest.approx(recoil * (n + 0.5) ** 2, abs=1e-12, rel=1e-12)
        # p = 0, linear, hbar k^2/(2 m omega) = 5e-5: first-order perturbation
        params = ModelParams(xi=0.0, omega=1.0, omega_p=0.5, mass=1e4)
        e0_dip = lowest_eigenvalues(build_dipole_hamiltonian(params, Momentum(), 256), 1)[0]
        e0_pw = lowest_eigenvalues(build_planewave_hamiltonian(params, Momentum(), 256), 1)[0]
        s2 = math.sinh(energy_level(params, Momentum(), 0).theta) ** 2
        first_order = (1.0 / (2.0 * params.mass)) * (3.0 * s2 * s2 + 3.0 * s2 + 0.25)
        assert (e0_pw - e0_dip) == pytest.approx(first_order, rel=1e-2)

    _run(7, "plane-wave diagonal corrections", 30.0, check)


def test_criterion_8_plate_force_suite():
    def check():
        # dual closed forms over a geometry grid
        for xi in (0.0, 0.5, 1.0):
            for d in np.logspace(-1, 2, 8):
                for area in np.logspace(-1, 2, 8):
                    g = PlateGeometry(d=float(d), A=float(area))
                    plasma = force_minimum_plasma_form(g, 1.0, 1.0, xi)
                    bohr = force_minimum_bohr_form(g, 1.0, 1.0, xi)
                    assert bohr == pytest.approx(plasma, rel=1e-12)
        # force equals the negative distance-derivative of the zero-point energy
        for xi in (0.0, 0.5, 1.0):
            for d in (0.3, 1.0, 7.5):
                h = 1e-6 * d

                def e_star(dd):
                    g = PlateGeometry(d=dd, A=2.0)
                    return zero_point_minimum(xi, plasma_frequency_plates(g, 1.0, 1.0))[1]

                fd = -(e_star(d + h) - e_star(d - h)) / (2.0 * h)
                got = force_at_minimum(PlateGeometry(d=d, A=2.0), 1.0, 1.0, xi)
                assert got == pytest.approx(fd, rel=1e-5)
        # linear static limit
        from quasimode import force_general

        g = PlateGeometry(d=1.0, A=math.pi)
        assert force_general(0.0, g, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
        assert force_general(1e-7, g, 1.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-10)
        # charge switched off
        tiny = force_at_minimum(g, 1e-8, 1.0, 1.0)
        assert tiny == pytest.approx(1e-8 * force_at_minimum(g, 1.0, 1.0, 1.0), rel=1e-12)
        # scaling laws by log-log slope fit
        ds = np.logspace(math.log10(0.5), math.log10(50.0), 40)
        recompute = [force_at_minimum(PlateGeometry(d=float(d), A=2.0), 1.0, 1.0, 0.5)
                     for d in ds]
        assert np.polyfit(np.log(ds), np.log(recompute), 1)[0] == pytest.approx(-1.5, abs=1e-3)
        wp0 = plasma_frequency_plates(PlateGeometry(d=1.0, A=2.0), 1.0, 1.0)
        frozen = [force_at_minimum(PlateGeometry(d=float(d), A=2.0), 1.0, 1.0, 0.5, omega_p=wp0)
                  for d in ds]
        assert np.polyfit(np.log(ds), np.log(frozen), 1)[0] == pytest.approx(-1.0, abs=1e-3)

    _run(8, "plate-force dual forms, derivative, limits, scaling", 2.0, check)


def test_criterion_9_figure_datasets(tmp_path):
    def check():
        paths = emit_figure_datasets(tmp_path)
        names = sorted(p.name for p in paths)
        assert names == [
            "fig1_dispersion.csv",
            "fig2a_rek.csv",
            "fig2b_imk.csv",
            "fig3_velocities.csv",
            "fig4_reflectivity.csv",
            "fig5_energy.csv",
        ]
        for path in paths:
            header = path.read_text().splitlines()[0].split(",")
            assert "marker" in header
            marker_col = header.index("marker")
            markers = {
                line.split(",")[marker_col]
                for line in path.read_text().splitlines()[1:]
            }
            assert markers - {""}, f"no marker rows in {path.name}"
            # regression baselines are byte-identical
            baseline = BASELINE_DIR / path.name
            assert baseline.exists(), f"missing baseline {path.name}"
            assert path.read_bytes() == baseline.read_bytes(), (
                f"{path.name} deviates from its checked-in baseline"
            )

    _run(9, "figure datasets with markers and frozen baselines", 5.0, check)
