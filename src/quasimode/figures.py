"""Reference datasets for the standard plots.

Six CSV files cover the dispersion curves, both complex wavenumber branches,
the velocities, the branch reflectivities, and the energy surface, each for
xi in {0, 0.2, 0.5, 1} over fixed grids in reduced units.  Each holds the
rows, or for Re k and Im k the columns, of the matching `sweep` table plus
a `marker` column; the energy surface is the ground level of the spectrum
sweep at omega_p = 1, p a Labels column.  Every table is one block per
polarization: its grid rows, with an empty marker, then the rows of that
polarization's critical points (k*, the dispersion minimum Omega*, the
full-reflection cutoff Omega~, or the energy minimum omega*), tagged in the
marker, a Labels column.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .dispersion import critical_points
from .output import Labels, render_csv, write_bytes
from .spectrum import Momentum, zero_point_minimum
from .tables import TABLE, SweepSpec, sweep_columns

FIGURE_XI = (0.0, 0.2, 0.5, 1.0)

# k/k_p or omega/omega_p.  fig4's permittivities in the damped window are
# divided as numpy divides them (SweepSpec.numpy_division).
_GRID = np.linspace(0.01, 3.0, 300)
_P_GRID = tuple(np.linspace(0.0, 2.0, 21).tolist())
_W_GRID = np.linspace(0.1, 3.0, 30)


def _wave_tables() -> dict[str, tuple[list[str], list[list]]]:
    """The dispersion, wavenumber, velocity and reflectivity sweep tables:
    per xi the grid rows, then the rows at that xi's critical points."""
    tables = {quantity: [] for quantity in ("dispersion", "wavenumber", "velocity", "reflectivity")}
    for xi in FIGURE_XI:
        cp = critical_points(xi)
        k_star = [(cp.k_star, "k_star")]
        omega_tilde = [(cp.omega_tilde, "omega_tilde")]
        omega_star = [(cp.omega_star, "omega_star")]
        markers = {
            "dispersion": k_star,
            "wavenumber": omega_tilde + omega_star,
            # k* = 0 for linear polarization; the velocities are singular there.
            "velocity": k_star if cp.k_star > 0.0 else [],
            # Omega~ = 0 for circular polarization; no finite full-reflection point.
            "reflectivity": (omega_tilde if cp.omega_tilde > 0.0 else []) + omega_star,
        }
        for quantity, blocks in tables.items():
            # The linear dispersion curve starts at k = 0.
            grid = np.r_[0.0, _GRID] if quantity == "dispersion" and xi == 0.0 else _GRID
            marked = markers[quantity]
            points = np.r_[grid, [point for point, _ in marked]]
            # marker i + 1 is that of the ith marked point; 0 the empty one
            codes = np.r_[np.zeros(len(grid)), np.arange(1, len(marked) + 1)].astype(np.uint8)
            spec = SweepSpec(quantity, (xi,), points, numpy_division=True)
            (block,) = sweep_columns(spec)[1]
            per_point = len(block[0]) // len(points)  # rows per point: one per branch
            labels = Labels(np.repeat(codes, per_point), ("", *(label for _, label in marked)))
            blocks.append([*block, labels])
    return {quantity: (TABLE[quantity].columns + ["marker"], blocks)
            for quantity, blocks in tables.items()}


def _columns(table: tuple[list[str], list[list]], names: list[str]) -> tuple[list[str], list[list]]:
    header, blocks = table
    index = [header.index(name) for name in names]
    return names, [[block[i] for i in index] for block in blocks]


def _energy_table() -> tuple[list[str], list[list]]:
    """The ground level of the atomic-unit spectrum sweep at omega_p = 1
    (hbar = m = 1, so energies are in units of hbar omega_p) over (p,
    omega), p the momentum along the major polarization axis: per xi one
    block of the grid rows, p as Labels, then the row of the minimum omega*,
    at p = _P_GRID[0] = 0."""
    codes = np.repeat(np.arange(len(_P_GRID)), len(_W_GRID))
    p = Labels(np.r_[codes, 0].astype(np.uint8), _P_GRID)
    marker = Labels(np.r_[np.zeros(len(codes)), 1].astype(np.uint8), ("", "omega_star"))
    omega = np.tile(_W_GRID, len(_P_GRID))
    blocks = []
    for xi in FIGURE_XI:
        specs = (SweepSpec("spectrum", (xi,), _W_GRID, units="atomic", omega_p=1.0,
                           momentum=Momentum(p_major=p_major)) for p_major in _P_GRID)
        omega_min, e_star = zero_point_minimum(xi, 1.0)
        energy = [*(sweep_columns(spec)[1][0][-1] for spec in specs), [e_star]]
        blocks.append([xi, p, np.r_[omega, omega_min], np.concatenate(energy), marker])
    return ["xi", "p", "omega_over_wp", "energy_over_hwp", "marker"], blocks


def emit_figure_datasets(outdir: Path) -> list[Path]:
    """Write all six datasets into outdir; returns the paths written."""
    outdir = Path(outdir)
    wave = _wave_tables()
    rek, imk = (
        _columns(wave["wavenumber"], ["omega_over_wp", "xi", "branch", part, "marker"])
        for part in ("re_k_over_kp", "im_k_over_kp")
    )
    tables = {
        "fig1_dispersion.csv": wave["dispersion"],
        "fig2a_rek.csv": rek,
        "fig2b_imk.csv": imk,
        "fig3_velocities.csv": wave["velocity"],
        "fig4_reflectivity.csv": wave["reflectivity"],
        "fig5_energy.csv": _energy_table(),
    }
    paths = []
    for name, (header, blocks) in tables.items():
        path = outdir / name
        write_bytes([render_csv(header, blocks)], path)
        paths.append(path)
    return paths
