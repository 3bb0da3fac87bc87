"""Reference datasets for the standard plots.

Six CSV files cover the dispersion curves, both complex wavenumber branches,
the velocities, the branch reflectivities, and the energy surface, each for
xi in {0, 0.2, 0.5, 1} over fixed grids in reduced units.  Critical points
(k*, the dispersion minimum Omega*, and the full-reflection cutoff
Omega~) are appended per polarization as tagged rows in the `marker` column;
ordinary grid rows carry an empty marker.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dispersion import critical_points, k_branches, omega_of_k
from .kinematics import group_velocity, phase_velocity
from .optics import Branch, optical_response
from .output import render_csv
from .params import ModelParams
from .spectrum import Momentum, energy_level, zero_point_minimum

FIGURE_XI = (0.0, 0.2, 0.5, 1.0)

_K_GRID = np.linspace(0.01, 3.0, 300)
_OMEGA_GRID = np.linspace(0.01, 3.0, 300)
_P_GRID = np.linspace(0.0, 2.0, 21)
_W_GRID = np.linspace(0.1, 3.0, 30)


def _dispersion_rows() -> tuple[list[str], list[list]]:
    rows = []
    for xi in FIGURE_XI:
        grid = [0.0, *_K_GRID] if xi == 0.0 else list(_K_GRID)
        for x in grid:
            rows.append([x, xi, omega_of_k(x, xi), ""])
        cp = critical_points(xi)
        rows.append([cp.k_star, xi, omega_of_k(cp.k_star, xi), "k_star"])
    return ["k_over_kp", "xi", "omega_over_wp", "marker"], rows


def _wavenumber_tables() -> tuple[tuple[list[str], list[list]], tuple[list[str], list[list]]]:
    """The Re k and Im k tables, filled from one k_branches call per point."""
    re_rows, im_rows = [], []
    for xi in FIGURE_XI:
        cp = critical_points(xi)
        points = [(y, "") for y in _OMEGA_GRID]
        points += [(cp.omega_tilde, "omega_tilde"), (cp.omega_star, "omega_star")]
        for y, marker in points:
            for wn in k_branches(y, xi):
                re_rows.append([y, xi, wn.branch, wn.value.real, marker])
                im_rows.append([y, xi, wn.branch, wn.value.imag, marker])
    return (
        (["omega_over_wp", "xi", "branch", "re_k_over_kp", "marker"], re_rows),
        (["omega_over_wp", "xi", "branch", "im_k_over_kp", "marker"], im_rows),
    )


def _velocity_rows() -> tuple[list[str], list[list]]:
    rows = []
    for xi in FIGURE_XI:
        for x in _K_GRID:
            rows.append([x, xi, phase_velocity(x, xi), group_velocity(x, xi), ""])
        if xi > 0.0:
            # k* = 0 for linear polarization; the velocities are singular there.
            cp = critical_points(xi)
            rows.append(
                [cp.k_star, xi, phase_velocity(cp.k_star, xi),
                 group_velocity(cp.k_star, xi), "k_star"]
            )
    return ["k_over_kp", "xi", "v_phase_over_c", "v_group_over_c", "marker"], rows


def _reflectivity_rows() -> tuple[list[str], list[list]]:
    rows = []
    for xi in FIGURE_XI:
        for y in _OMEGA_GRID:
            for branch in (Branch.PLUS, Branch.MINUS):
                rows.append([y, xi, branch, optical_response(y, xi, branch).R, ""])
        cp = critical_points(xi)
        markers = [(cp.omega_star, "omega_star")]
        if cp.omega_tilde > 0.0:
            # Omega~ = 0 for circular polarization; no finite full-reflection point.
            markers.insert(0, (cp.omega_tilde, "omega_tilde"))
        for y, marker in markers:
            for branch in (Branch.PLUS, Branch.MINUS):
                rows.append([y, xi, branch, optical_response(y, xi, branch).R, marker])
    return ["omega_over_wp", "xi", "branch", "reflectivity", "marker"], rows


def _energy_rows() -> tuple[list[str], list[list]]:
    # Ground-level surface over (p, omega) with omega_p = 1, hbar = m = 1 and
    # the momentum along the major polarization axis.
    rows = []
    for xi in FIGURE_XI:
        for p in _P_GRID:
            for w in _W_GRID:
                params = ModelParams(xi=xi, omega=w, omega_p=1.0)
                level = energy_level(params, Momentum(p_major=p), n=0)
                rows.append([xi, p, w, level.energy, ""])
        omega_min, e_star = zero_point_minimum(xi, 1.0)
        rows.append([xi, 0.0, omega_min, e_star, "omega_star"])
    return ["xi", "p", "omega_over_wp", "energy_over_hwp", "marker"], rows


def emit_figure_datasets(outdir: Path) -> list[Path]:
    """Write all six datasets into outdir; returns the paths written."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rek, imk = _wavenumber_tables()
    tables = {
        "fig1_dispersion.csv": _dispersion_rows(),
        "fig2a_rek.csv": rek,
        "fig2b_imk.csv": imk,
        "fig3_velocities.csv": _velocity_rows(),
        "fig4_reflectivity.csv": _reflectivity_rows(),
        "fig5_energy.csv": _energy_rows(),
    }
    paths = []
    for name, (header, rows) in tables.items():
        path = outdir / name
        path.write_bytes(render_csv(header, rows))
        paths.append(path)
    return paths
