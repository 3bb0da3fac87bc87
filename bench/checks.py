"""Output checks for benchmark operations.

Each check predicts the output from the operation's spec alone and compares
it with what the program wrote:

* the exit code is the one the generator expects;
* the header matches the documented column contract;
* the row count is xi count x grid size x branches (or levels, plates);
* every float is finite; in CSV every cell has the documented format, and
  sampled floats parse back to the same text;
* the xi and grid columns follow the documented row order;
* a seeded sample of rows, recomputed through the public scalar kernels,
  matches exactly;
* `figures` output is byte-identical to `tests/baselines/`;
* `verify` reports exit 1 exactly when a case did not converge, and every
  converged case is within tolerance.

A failed check raises `CheckFailed`; `check` returns the number of output
rows (verification cases for `verify`).
"""

from __future__ import annotations

import json
import math
import random
import re
from pathlib import Path

from quasimode import (
    ATOMIC_C,
    Branch,
    ModelParams,
    Momentum,
    PlateGeometry,
    default_verification_cases,
    energy_level,
    force_at_minimum,
    force_general,
    k_branches,
    omega_of_k,
    group_velocity,
    optical_response,
    phase_velocity,
    plasma_frequency_plates,
    zero_point_minimum,
)

F, I, S = "f", "i", "s"  # float, integer and string cells

SPECTRUM_COLUMNS = [
    ("omega", F), ("xi", F), ("omega_p", F), ("p_major", F), ("p_minor", F), ("p_perp", F),
    ("n", I), ("theta", F), ("sigma_sq", F), ("effective_omega", F), ("energy", F),
]

# Column contract of every table the workloads produce (README, "Sweep columns").
COLUMNS = {
    "dispersion": [("k_over_kp", F), ("xi", F), ("omega_over_wp", F)],
    "wavenumber": [("omega_over_wp", F), ("xi", F), ("branch", S), ("re_k_over_kp", F),
                   ("im_k_over_kp", F), ("regime", S)],
    "dielectric": [("omega_over_wp", F), ("xi", F), ("branch", S), ("re_zeta", F),
                   ("im_zeta", F)],
    "reflectivity": [("omega_over_wp", F), ("xi", F), ("branch", S), ("reflectivity", F)],
    "velocity": [("k_over_kp", F), ("xi", F), ("v_phase_over_c", F), ("v_group_over_c", F)],
    "spectrum": SPECTRUM_COLUMNS,
    "force": [("omega", F), ("xi", F), ("d", F), ("area", F), ("n_charges", I),
              ("n_photons", I), ("omega_p", F), ("force", F)],
    "spectrum-command": SPECTRUM_COLUMNS,
    "force-command": [("xi", F), ("omega", F), ("d", F), ("area", F), ("n_charges", I),
                      ("n_photons", I), ("scaling", S), ("omega_p", F), ("force", F)],
}

BRANCHES = (Branch.PLUS.value, Branch.MINUS.value)
SAMPLE_ROWS = 16
GRID_RTOL = 1e-12


class CheckFailed(Exception):
    """An operation's exit code or output disagrees with the prediction."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def grid_values(grid: dict) -> list[float]:
    """The documented `start:stop:count[:log]` grid, evenly spaced in value
    or in log10."""
    n, a, b = grid["count"], grid["start"], grid["stop"]
    if grid["spacing"] == "log":
        la, lb = math.log10(a), math.log10(b)
        return [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _close(actual: float, expected: float, what: str) -> None:
    _require(math.isclose(actual, expected, rel_tol=GRID_RTOL, abs_tol=1e-300),
             f"{what}: {actual!r} != {expected!r}")


def _equal(actual, expected, what: str) -> None:
    _require(actual == expected, f"{what}: {actual!r} != {expected!r}")


# --- reading tables ----------------------------------------------------------


# Every cell the program writes: floats in 17-digit scientific notation
# (so never inf or nan), integers, and lower-case labels.
CSV_CELL = {F: r"-?\d\.\d{16}e[+-]\d{2,3}", I: r"-?\d+", S: r"[a-z_]+"}
PARSE = {F: float, I: int, S: str}


class Table:
    """Rows of one output table.  CSV rows stay text and are typed on
    demand; JSON rows are typed already."""

    def __init__(self, rows: list[list], kinds: list[str], text: bool) -> None:
        self.rows, self.kinds, self.text = rows, kinds, text

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, i: int) -> list:
        values = [row[i] for row in self.rows]
        return list(map(PARSE[self.kinds[i]], values)) if self.text else values

    def row(self, i: int) -> list:
        if not self.text:
            return self.rows[i]
        row = [PARSE[kind](cell) for kind, cell in zip(self.kinds, self.rows[i])]
        for kind, cell, value in zip(self.kinds, self.rows[i], row):
            _require(kind != F or f"{value:.16e}" == cell,
                     f"row {i}: {cell!r} does not parse back to the same text")
        return row


def _parse_csv(data: bytes, columns: list) -> Table:
    text = data.decode("utf-8")
    _require(text.endswith("\n") and "\r" not in text, "CSV must end in LF without CR")
    header, *lines = text[:-1].split("\n")
    _equal(header.split(","), [name for name, _ in columns], "header")
    kinds = [kind for _, kind in columns]
    line = re.compile(",".join(f"(?:{CSV_CELL[kind]})" for kind in kinds))
    if not all(map(line.fullmatch, lines)):
        bad = next(i for i, text in enumerate(lines) if not line.fullmatch(text))
        raise CheckFailed(f"row {bad} breaks the column contract: {lines[bad][:200]!r}")
    return Table([text.split(",") for text in lines], kinds, text=True)


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite number {name} in JSON")


def _parse_json_table(data: bytes, columns: list, quantity: str, units: str) -> Table:
    doc = json.loads(data, parse_constant=_reject_constant)
    _equal(sorted(doc), ["columns", "quantity", "rows", "schema_version", "units"], "JSON keys")
    _equal((doc["schema_version"], doc["quantity"], doc["units"]), (1, quantity, units),
           "schema_version, quantity, units")
    _equal(doc["columns"], [name for name, _ in columns], "header")
    kinds = [kind for _, kind in columns]
    rows = doc["rows"]
    _require(all(type(row) is list and len(row) == len(kinds) for row in rows),
             "a row has the wrong number of cells")
    for name, kind, values in zip(doc["columns"], kinds, zip(*rows)):
        _require(set(map(type, values)) == {PARSE[kind]}, f"column {name} holds a wrong type")
        _require(kind != F or all(map(math.isfinite, values)), f"column {name}: non-finite float")
    return Table(rows, kinds, text=False)


def _read_table(path: Path, fmt: str, columns: list, quantity: str, units: str) -> Table:
    data = path.read_bytes()
    if fmt == "csv":
        return _parse_csv(data, columns)
    return _parse_json_table(data, columns, quantity, units)


def _sample(size: int, rng: random.Random) -> list[int]:
    picks = {0, size - 1}
    picks.update(rng.randrange(size) for _ in range(SAMPLE_ROWS))
    return sorted(picks)


# --- tables ------------------------------------------------------------------


def _recompute_reduced(spec: dict, row: list) -> list:
    quantity, value, xi = spec["quantity"], row[0], row[1]
    if quantity == "dispersion":
        return [value, xi, omega_of_k(value, xi)]
    if quantity == "velocity":
        return [value, xi, phase_velocity(value, xi), group_velocity(value, xi)]
    branch = Branch(row[2])
    if quantity == "wavenumber":
        wn = k_branches(value, xi)[BRANCHES.index(branch.value)]
        return [value, xi, wn.branch.value, wn.value.real, wn.value.imag, wn.regime.value]
    resp = optical_response(value, xi, branch)
    if quantity == "dielectric":
        return [value, xi, branch.value, resp.zeta.real, resp.zeta.imag]
    return [value, xi, branch.value, resp.R]


def _recompute_spectrum(spec: dict, row: list, c: float) -> list:
    omega, xi, n = row[0], row[1], row[6]
    params = ModelParams(xi=xi, omega=omega, omega_p=spec["omega_p"], c=c)
    level = energy_level(params, Momentum(*spec["p"]), n, spec["charges"])
    return [omega, xi, spec["omega_p"], *spec["p"], n, level.theta, level.sigma_sq,
            level.Omega, level.energy]


def _geometry(spec: dict, d: float) -> PlateGeometry:
    return PlateGeometry(d=d, A=spec["area"], N_charges=spec["charges"],
                         n_photons=spec["n_photons"])


def _recompute_force_sweep(spec: dict, row: list) -> list:
    omega, xi = row[0], row[1]
    geom = _geometry(spec, spec["d"])
    return [omega, xi, spec["d"], spec["area"], spec["charges"], spec["n_photons"],
            plasma_frequency_plates(geom, spec["charge"], 1.0),
            force_general(omega, geom, spec["charge"], 1.0, xi)]


def _recompute_force_command(spec: dict, row: list, frozen: float | None) -> list:
    xi, omega, d = row[0], row[1], row[2]
    geom = _geometry(spec, d)
    if frozen is None:
        wp = plasma_frequency_plates(geom, spec["charge"], 1.0)
        force = force_general(omega, geom, spec["charge"], 1.0, xi)
    else:
        wp = frozen
        force = force_at_minimum(geom, spec["charge"], 1.0, xi, omega_p=frozen)
        # The CLI reports the minimum's frequency through its own closed form.
        _close(omega, zero_point_minimum(xi, frozen)[0], "frequency at the minimum")
    return [xi, omega, d, spec["area"], spec["charges"], spec["n_photons"],
            spec["scaling"], wp, force]


def _check_layout(table: Table, axes: list) -> None:
    """Rows enumerate the axes in order, outermost first.  Each axis is
    (column, values, approximate): predicted grid values are compared to
    GRID_RTOL, given values and labels exactly."""
    sizes = [len(values) for _, values, _ in axes]
    _equal(len(table), math.prod(sizes), "row count")
    for k, (col, values, approximate) in enumerate(axes):
        stride = math.prod(sizes[k + 1:])
        for i, actual in enumerate(table.column(col)):
            expected = values[(i // stride) % len(values)]
            if actual != expected:
                _require(approximate, f"row {i} column {col}: {actual!r} != {expected!r}")
                _close(actual, expected, f"row {i} column {col}")


def _table_plan(op) -> tuple[str, list, str, str, list]:
    """(quantity, columns, units, format, axes) the table must have."""
    spec = op.spec
    xi = (1, spec["xi"], False)
    if op.kind == "sweep":
        quantity = spec["quantity"]
        axes = [xi, (0, grid_values(spec["grid"]), True)]
        if quantity in ("wavenumber", "dielectric", "reflectivity"):
            axes.append((2, BRANCHES, False))
        if quantity == "spectrum":
            axes.append((6, spec["n"], False))
        return quantity, COLUMNS[quantity], spec["units"], spec["format"], axes
    if op.kind == "spectrum":
        axes = [xi, (0, grid_values(spec["grid"]), True), (6, spec["n"], False)]
        return "spectrum", COLUMNS["spectrum-command"], "atomic", "json", axes
    axes = [(0, spec["xi"], False), (2, grid_values(spec["d"]), True),
            (6, [spec["scaling"]], False)]
    if spec["omega"] is not None:
        axes.append((1, grid_values(spec["omega"]), True))
    return "force", COLUMNS["force-command"], "atomic", "json", axes


def _recompute(op, row: list, frozen: float | None) -> list:
    if op.kind == "spectrum":
        return _recompute_spectrum(op.spec, row, 1.0)
    if op.kind == "force":
        return _recompute_force_command(op.spec, row, frozen)
    quantity = op.spec["quantity"]
    if quantity == "spectrum":
        return _recompute_spectrum(op.spec, row, ATOMIC_C)
    if quantity == "force":
        return _recompute_force_sweep(op.spec, row)
    return _recompute_reduced(op.spec, row)


def check_table(op, path: Path, rng: random.Random) -> int:
    """A `sweep`, `spectrum` or `force` table."""
    quantity, columns, units, fmt, axes = _table_plan(op)
    table = _read_table(path, fmt, columns, quantity, units)
    _check_layout(table, axes)
    frozen = None
    if op.kind == "force" and op.spec["scaling"] == "frozen":
        # omega_p is frozen at the first separation of the d grid.
        ref = _geometry(op.spec, table.row(0)[2])
        frozen = plasma_frequency_plates(ref, op.spec["charge"], 1.0)
    for i in _sample(len(table), rng):
        row = table.row(i)
        _equal(row, _recompute(op, row, frozen), f"row {i} recomputed")
    return len(table)


# --- figures and verify ------------------------------------------------------


def check_figures(outdir: Path, baselines: Path) -> int:
    names = sorted(p.name for p in baselines.glob("*.csv"))
    _require(len(names) == 6, f"expected 6 baseline files, found {len(names)}")
    _equal(sorted(p.name for p in outdir.iterdir()), names, "figure files")
    rows = 0
    for name in names:
        data = (outdir / name).read_bytes()
        _require(data == (baselines / name).read_bytes(), f"{name} differs from its baseline")
        rows += data.count(b"\n") - 1
    return rows


def check_verify(op, rc: int, path: Path) -> int:
    spec = op.spec
    report = json.loads(path.read_bytes())
    _equal((report["schema_version"], report["tol"], report["n_levels"],
            report["cutoff_start"], report["cutoff_cap"]),
           (1, spec["tol"], spec["levels"], spec["cutoff_start"], spec["cutoff_cap"]),
           "report settings")
    if spec["cases"] == "default":
        expected_cases = [[c.xi, c.omega, c.omega_p, [p.p_major, p.p_minor, p.p_perp]]
                          for c, p in default_verification_cases()]
    else:
        expected_cases = spec["cases"]
    cases = report["cases"]
    _equal(len(cases), len(expected_cases), "case count")
    # The cutoff doubles from its start; the generator only uses caps on that ladder.
    ladder = [spec["cutoff_start"]]
    while ladder[-1] < spec["cutoff_cap"]:
        ladder.append(2 * ladder[-1])
    tol = report["tol"]
    for i, (case, (xi, omega, omega_p, p)) in enumerate(zip(cases, expected_cases)):
        _equal([case["xi"], case["omega"], case["omega_p"], case["p"]], [xi, omega, omega_p, p],
               f"case {i} parameters")
        _require(case["cutoff_used"] in ladder,
                 f"case {i}: cutoff {case['cutoff_used']} is off the ladder")
        numeric, analytic = case["lowest_numeric"], case["lowest_analytic"]
        _require(len(numeric) == len(analytic) == report["n_levels"], f"case {i}: level count")
        _require(all(map(math.isfinite, numeric + analytic + [case["max_rel_err"]])),
                 f"case {i}: non-finite value")
        params = ModelParams(xi=xi, omega=omega, omega_p=omega_p)
        levels = [energy_level(params, Momentum(*p), n).energy for n in range(len(analytic))]
        _equal(analytic, levels, f"case {i} analytic levels")
        err = max(abs(v - a) / max(abs(a), 1e-300) for v, a in zip(numeric, analytic))
        _require(math.isclose(case["max_rel_err"], err, rel_tol=1e-9, abs_tol=1e-300),
                 f"case {i}: max_rel_err {case['max_rel_err']!r} != {err!r}")
        if case["converged"]:
            _require(case["max_rel_err"] <= tol, f"case {i}: converged with error above tol")
    all_converged = all(case["converged"] for case in cases)
    _equal(report["all_converged"], all_converged, "all_converged")
    _equal(rc, 0 if all_converged else 1, "exit code against all_converged")
    _equal(rc, spec["expect_exit"], "exit code against the generator")
    return len(cases)


def check(op, rc, stderr: str, out: Path, baselines: Path, rng: random.Random) -> int:
    """Check one finished operation; returns its row count or raises CheckFailed."""
    _require("Traceback" not in stderr, "traceback on stderr")
    if op.kind == "verify":
        return check_verify(op, rc, out)
    _equal(rc, 0, "exit code")
    if op.kind == "figures":
        return check_figures(out, baselines)
    return check_table(op, out, rng)
