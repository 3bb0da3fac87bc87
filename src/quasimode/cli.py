"""Command-line front end: parameter sweeps, figure datasets, spectrum
verification, and single-point force/spectrum calculators.

Exit codes: 0 success, 1 verification failure, 2 usage/spec error,
3 domain error (the offending row is identified on stderr).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .dispersion import REGIMES, Branch, critical_points, k_branches_array, omega_physical_array
from .errors import DomainError
from .fock import default_verification_cases, verify_spectrum
from .kinematics import group_velocity_array, phase_velocity_array
from .optics import _branch_zetas, _finite_zeta, reflectivity, refractive_index
from .output import CHUNK_ROWS, csv_chunks, json_table_chunks, render_json, write_bytes
from .params import ATOMIC_C, ModelParams, _divide, _finite, _require_finite, validate_xi
from .plates import PlateGeometry, force_at_minimum, force_general, plasma_frequency_plates
from .spectrum import Momentum, energy_level

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Largest oracle cutoff `verify` accepts: one banded solve takes seconds there.
MAX_CUTOFF = 16384


class SpecError(ValueError):
    """A sweep/verify specification is malformed (exit code 2)."""


def _require_finite_grid(values) -> tuple[float, ...]:
    for value in values:
        _finite(value, "grid values")
    return tuple(values)


def parse_grid(text: str) -> tuple[float, ...]:
    """"a:b:n[:log]" is a range; otherwise a comma-separated value list.
    Returns the grid points, every one finite."""
    if ":" not in text:
        return _require_finite_grid(_parse_floats(text))
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise SpecError(f"grid must be start:stop:count[:spacing], got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise SpecError(f"malformed grid {text!r}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    _require_finite_grid((start, stop))
    if count < 2:
        raise SpecError(f"grid count must be at least 2, got {count}")
    if not start < stop:
        raise SpecError(f"grid needs start < stop, got {start}:{stop}")
    if spacing not in ("linear", "log"):
        raise SpecError(f"unknown grid spacing {spacing!r}")
    if spacing == "log" and start <= 0.0:
        raise SpecError("log spacing requires start > 0")
    if spacing == "log":
        la, lb = math.log10(start), math.log10(stop)
        steps = [(lb - la) * i / (count - 1) for i in range(count)]
        try:
            points = [10.0 ** (la + step) for step in steps]
        except OverflowError:
            raise DomainError(f"grid point above {stop} overflows") from None
    else:
        points = [
            start + (stop - start) * i / (count - 1)
            for i in range(count)
        ]
    return _require_finite_grid(points)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise SpecError(f"malformed value list {text!r}: {exc}") from None


def parse_momentum(text: str) -> Momentum:
    values = _parse_floats(text)
    if len(values) != 3:
        raise SpecError(f"momentum must be three comma-separated numbers, got {text!r}")
    return Momentum(*values)


@dataclass(frozen=True)
class SweepSpec:
    """Everything needed to evaluate one sweep and write its dataset."""

    quantity: str
    xi_list: tuple[float, ...]
    grid: tuple[float, ...]
    units: str = "reduced"
    out: Path | None = None
    fmt: str = "csv"
    # Context for dimensionful quantities and atomic-unit conversion.
    omega_p: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0
    c: float | None = None
    momentum: Momentum = field(default_factory=Momentum)
    n: tuple[int, ...] = (0,)
    n_charges: int = 1
    d: float = 1.0
    area: float = 1.0
    charge: float = 1.0
    n_photons: int = 0

    def resolved_c(self) -> float:
        if self.c is not None:
            return self.c
        return ATOMIC_C if self.units == "atomic" else 1.0

    def validate(self) -> None:
        if self.quantity not in QUANTITIES:
            raise SpecError(f"unknown quantity {self.quantity!r}")
        if self.units not in ("reduced", "atomic"):
            raise SpecError(f"unknown units {self.units!r}")
        if self.quantity in ATOMIC_ONLY and self.units == "reduced":
            raise SpecError(f"{self.quantity} sweeps are dimensionful; use atomic units")
        if self.fmt not in ("csv", "json"):
            raise SpecError(f"unknown format {self.fmt!r}")
        if not self.xi_list:
            raise SpecError("at least one xi value is required")
        _check_xi(self.xi_list)
        _require_finite(self, "omega_p", "mass", "hbar", "d", "area", "charge")
        if not 0.0 < self.resolved_c() < math.inf:
            raise DomainError(f"speed of light must be positive and finite, got {self.c}")
        _require_finite_grid(self.grid)
        if self.quantity in K_SWEPT and any(xi > 0.0 for xi in self.xi_list):
            if any(v <= 0.0 for v in self.grid):
                raise SpecError(
                    "wavenumber grid must exclude 0 when any xi > 0 (singular point)"
                )


def _check_xi(xi_list: tuple[float, ...]) -> tuple[float, ...]:
    for xi in xi_list:
        try:
            validate_xi(xi)
        except DomainError as exc:
            raise SpecError(str(exc)) from None
    return xi_list


class _Units(NamedTuple):
    """Units of the frequency, wavenumber and velocity columns."""

    omega: float
    k: float
    v: float


def _units(spec: SweepSpec) -> _Units:
    if spec.units == "reduced":
        return _Units(1.0, 1.0, 1.0)
    c = spec.resolved_c()
    return _Units(spec.omega_p, spec.omega_p / c, c)


# Column functions: (spec, units, xi, grid) -> the columns of the rows at xi
# over the grid, which is a float64 array.  A column is a float64 array, an
# object array, or a single value that every row shares.  Branch and regime
# cells are the enum values, which render as the members do.

_BRANCHES = np.array([Branch.PLUS.value, Branch.MINUS.value], dtype=object)
_REGIMES = np.array([regime.value for regime in REGIMES], dtype=object)


def _branch_rows(values: np.ndarray) -> np.ndarray:
    """One row per grid point and branch, the plus branch first: values of
    shape (n,) repeated for both branches, or of shape (2, n) interleaved."""
    if values.ndim == 1:
        return np.repeat(values, 2)
    return values.T.ravel()


def _dispersion(spec: SweepSpec, u: _Units, xi: float, k: np.ndarray) -> list:
    return [k, xi, omega_physical_array(k, u.omega, xi, u.v)]


def _wavenumber(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    x, codes = k_branches_array(omega / u.omega, xi)
    re, im = x.real, x.imag
    if spec.units == "atomic":
        # x * k_p as Python multiplies a complex by a float
        re, im = re * u.k - im * 0.0, re * 0.0 + im * u.k
    return [
        _branch_rows(omega), xi, np.tile(_BRANCHES, len(omega)),
        _branch_rows(re), _branch_rows(im), _branch_rows(_REGIMES[codes]),
    ]


def _zetas(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> np.ndarray:
    """Both branches' permittivities at omega, shape (2, n), from one branch
    evaluation.  They are divided by y^2 as the grid's own floats would
    divide them: numpy floats (the figure grids) as numpy does."""
    y = omega / u.omega
    numpy_division = isinstance(next(iter(spec.grid), None), np.floating)
    zetas = _branch_zetas(y, xi, numpy_division)
    _finite_zeta(y, *zetas)
    return zetas


def _dielectric(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    zetas = _zetas(spec, u, xi, omega)
    return [
        _branch_rows(omega), xi, np.tile(_BRANCHES, len(omega)),
        _branch_rows(zetas.real), _branch_rows(zetas.imag),
    ]


def _reflectivity(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    # cmath.sqrt, Python's complex division and ** have no bit-identical
    # numpy counterparts, so the scalar kernels run per cell.
    zetas = _branch_rows(_zetas(spec, u, xi, omega)).tolist()
    r = np.array([reflectivity(refractive_index(zeta)) for zeta in zetas], dtype=float)
    return [_branch_rows(omega), xi, np.tile(_BRANCHES, len(omega)), r]


def _velocity(spec: SweepSpec, u: _Units, xi: float, k: np.ndarray) -> list:
    x = _divide(k, u.k)
    phase, group = phase_velocity_array(x, xi), group_velocity_array(x, xi)
    return [k, xi, phase * u.v, group * u.v]


def _spectrum(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    p = spec.momentum
    # Only the four floats of each level are kept, not the level itself.
    theta, sigma_sq, Omega, energy = cells = [], [], [], []
    for w in omega.tolist():
        params = ModelParams(
            xi=xi, omega=w, omega_p=spec.omega_p, mass=spec.mass, hbar=spec.hbar, c=u.v,
        )
        for n in spec.n:
            level = energy_level(params, p, n, spec.n_charges)
            theta.append(level.theta)
            sigma_sq.append(level.sigma_sq)
            Omega.append(level.Omega)
            energy.append(level.energy)
    return [
        np.repeat(omega, len(spec.n)), xi, spec.omega_p, p.p_major, p.p_minor, p.p_perp,
        np.tile(np.array(spec.n, dtype=object), len(omega)),
        *(np.array(column, dtype=float) for column in cells),
    ]


def _force(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    plates = _plates(spec, spec.d)
    force = [_plate_force(spec, xi, plates, w)[2] for w in omega.tolist()]
    return [
        omega, xi, spec.d, spec.area, spec.n_charges, spec.n_photons, plates[1],
        np.array(force, dtype=float),
    ]


def _plates(spec: SweepSpec, d: float) -> tuple[PlateGeometry, float]:
    """The plates of `spec` at separation d, and their plasma frequency."""
    geom = PlateGeometry(d=d, A=spec.area, N_charges=spec.n_charges, n_photons=spec.n_photons)
    return geom, plasma_frequency_plates(geom, spec.charge, spec.mass)


def _plate_force(
    spec: SweepSpec, xi: float, plates: tuple[PlateGeometry, float], omega: float | None,
    frozen_wp: float | None = None,
) -> tuple[float, float, float]:
    """(omega, omega_p, force) for plates from _plates; omega None means at the
    energy minimum, and frozen_wp holds omega_p instead of the plates' own."""
    geom, wp = plates
    if frozen_wp is not None:
        wp = frozen_wp
    e, m, hbar = spec.charge, spec.mass, spec.hbar
    if omega is None:
        force = force_at_minimum(geom, e, m, xi, hbar, omega_p=frozen_wp)
        return wp * critical_points(xi).k_star, wp, force
    return omega, wp, force_general(omega, geom, e, m, xi, hbar, omega_p=wp)


class _Quantity(NamedTuple):
    axis: str  # the swept grid, "k" or "omega"
    # Reduced-unit columns are named "<atomic name>_over_<unit>".
    columns: list[str]
    atomic_only: bool
    evaluate: Callable[..., list]


_TABLE = {
    "dispersion": _Quantity("k", ["k_over_kp", "xi", "omega_over_wp"], False, _dispersion),
    "wavenumber": _Quantity(
        "omega", ["omega_over_wp", "xi", "branch", "re_k_over_kp", "im_k_over_kp", "regime"],
        False, _wavenumber,
    ),
    "dielectric": _Quantity(
        "omega", ["omega_over_wp", "xi", "branch", "re_zeta", "im_zeta"], False, _dielectric
    ),
    "reflectivity": _Quantity(
        "omega", ["omega_over_wp", "xi", "branch", "reflectivity"], False, _reflectivity
    ),
    "velocity": _Quantity(
        "k", ["k_over_kp", "xi", "v_phase_over_c", "v_group_over_c"], False, _velocity
    ),
    "spectrum": _Quantity(
        "omega",
        ["omega", "xi", "omega_p", "p_major", "p_minor", "p_perp",
         "n", "theta", "sigma_sq", "effective_omega", "energy"],
        True, _spectrum,
    ),
    "force": _Quantity(
        "omega", ["omega", "xi", "d", "area", "n_charges", "n_photons", "omega_p", "force"],
        True, _force,
    ),
}
QUANTITIES = tuple(_TABLE)
K_SWEPT = {name for name, entry in _TABLE.items() if entry.axis == "k"}
ATOMIC_ONLY = {name for name, entry in _TABLE.items() if entry.atomic_only}


def _checked_columns(evaluate: Callable[..., list], point: tuple, grid: np.ndarray) -> list:
    """evaluate(*point, grid), with an overflow, a division by zero or a
    non-finite float cell raised as a DomainError.  numpy's floating-point
    warnings are silenced: the cells they flag are the ones rejected here."""
    try:
        with np.errstate(all="ignore"):
            columns = evaluate(*point, grid)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"result is not a finite float ({type(exc).__name__})") from None
    for column in columns:
        if isinstance(column, np.ndarray):
            finite = column.dtype != float or np.isfinite(column).all()
        else:
            finite = not isinstance(column, float) or math.isfinite(column)
        if not finite:
            raise DomainError("result is not a finite float")
    return columns


def _first_failure(evaluate: Callable[..., list], point: tuple, grid: np.ndarray) -> int:
    """Index of the first grid point at which evaluate fails.  Whether a
    point fails does not depend on the others, so a slice of the grid fails
    exactly when it holds a failing point."""
    lo, hi = 0, len(grid)  # the first failure lies in grid[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _checked_columns(evaluate, point, grid[lo:mid])
            lo = mid
        except DomainError:
            hi = mid
    return lo


def _tabulate(axes: list[tuple[str, tuple]], evaluate: Callable[..., list]) -> Iterator[tuple]:
    """The rows of evaluate over the product of the named axes, the first
    outermost.  evaluate takes a point of the other axes and the whole last
    axis as a float64 array, and returns the columns of the rows there.
    Every column is evaluated and checked before the rows are returned, so a
    DomainError is raised before any output; it is reported on stderr with
    the first point, in row order, it hits."""
    *outer, (_, values) = axes
    grid = np.array(values, dtype=float)
    points = itertools.product(*(values for _, values in outer)) if len(grid) else ()
    tables = []
    for point in points:
        try:
            tables.append(_checked_columns(evaluate, point, grid))
        except DomainError as exc:
            i = _first_failure(evaluate, point, grid)
            try:
                _checked_columns(evaluate, point, grid[i:i + 1])
            except DomainError as first:
                exc = first
            names = [name for name, _ in axes]
            where = ", ".join(
                f"{name}={value:g}" for name, value in zip(names, (*point, values[i]))
            )
            print(f"domain error at {where}: {exc}", file=sys.stderr)
            raise exc from None
    return _rows(tables)


def _rows(tables: list[list]) -> Iterator[tuple]:
    """The rows of each table of columns, built CHUNK_ROWS at a time, so
    their cells are Python objects: tolist() turns float64 into float."""
    for columns in tables:
        count = next(len(c) for c in columns if isinstance(c, np.ndarray))
        for start in range(0, count, CHUNK_ROWS):
            yield from zip(*(
                c[start:start + CHUNK_ROWS].tolist() if isinstance(c, np.ndarray)
                else itertools.repeat(c)
                for c in columns
            ))


def _sweep_rows(spec: SweepSpec) -> tuple[list[str], Iterator[tuple]]:
    entry = _TABLE[spec.quantity]
    header = entry.columns
    if spec.units == "atomic":
        header = [column.split("_over_")[0] for column in header]
        if not entry.atomic_only and spec.omega_p <= 0.0:
            raise SpecError("atomic units for reduced-family sweeps require omega_p > 0")
    evaluate = functools.partial(entry.evaluate, spec, _units(spec))
    return header, _tabulate([("xi", spec.xi_list), (entry.axis, spec.grid)], evaluate)


def _write_table(spec: SweepSpec, header: list[str], rows: Iterable[tuple]) -> None:
    if spec.fmt == "csv":
        chunks = csv_chunks(header, rows)
    else:
        chunks = json_table_chunks(header, rows, quantity=spec.quantity, units=spec.units)
    write_bytes(chunks, spec.out)


def run_sweep(spec: SweepSpec) -> None:
    """Validate, evaluate, and write one sweep dataset."""
    spec.validate()
    _write_table(spec, *_sweep_rows(spec))


def _add_common_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimode",
        description="Quasimode dispersion, plasma optics, spectrum, and plate-force calculator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate a quantity over a grid")
    sweep.add_argument("quantity", choices=QUANTITIES)
    sweep.add_argument("--xi", required=True, help="comma-separated polarization values")
    sweep.add_argument("--k", help="wavenumber grid: list or start:stop:count[:log]")
    sweep.add_argument("--omega", help="frequency grid: list or start:stop:count[:log]")
    sweep.add_argument("--units", choices=("reduced", "atomic"), default=None)
    sweep.add_argument("--omega-p", type=float, default=1.0)
    sweep.add_argument("--mass", type=float, default=1.0)
    sweep.add_argument("--hbar", type=float, default=1.0)
    sweep.add_argument("--c", type=float, default=None)
    sweep.add_argument("--p", default="0,0,0", help="momentum p_major,p_minor,p_perp")
    sweep.add_argument("--n", type=int, default=0, help="excitation number")
    sweep.add_argument("--charges", type=int, default=1)
    sweep.add_argument("--d", type=float, default=1.0, help="plate separation")
    sweep.add_argument("--area", type=float, default=1.0, help="plate area")
    sweep.add_argument("--charge", type=float, default=1.0)
    sweep.add_argument("--n-photons", type=int, default=0)
    _add_common_output_args(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    figures = sub.add_parser("figures", help="emit the six reference figure datasets")
    figures.add_argument("--outdir", type=Path, default=Path("figures"))
    figures.set_defaults(func=_cmd_figures)

    verify = sub.add_parser("verify", help="check the analytic spectrum against the number-basis matrix")
    verify.add_argument("--xi", default=None, help="comma-separated list (default grid otherwise)")
    verify.add_argument("--omega", default=None, help="comma-separated list")
    verify.add_argument("--omega-p", default=None, help="comma-separated list")
    verify.add_argument("--p", action="append", default=None, help="momentum triple; repeatable")
    verify.add_argument("--levels", type=int, default=5)
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--cutoff-start", type=int, default=64)
    verify.add_argument("--cutoff-cap", type=int, default=1024)
    verify.add_argument("--out", type=Path, default=None, help="JSON report file (default: stdout)")
    verify.set_defaults(func=_cmd_verify)

    force = sub.add_parser("force", help="plate force at given frequencies or at the energy minimum")
    force.add_argument("--xi", required=True)
    force.add_argument("--d", required=True, help="separation grid: list or start:stop:count[:log]")
    force.add_argument("--area", type=float, default=1.0)
    force.add_argument("--omega", default=None, help="frequency grid; omit with --at-minimum")
    force.add_argument("--at-minimum", action="store_true")
    force.add_argument("--charge", type=float, default=1.0)
    force.add_argument("--mass", type=float, default=1.0)
    force.add_argument("--hbar", type=float, default=1.0)
    force.add_argument("--charges", type=int, default=1)
    force.add_argument("--n-photons", type=int, default=0)
    force.add_argument("--scaling", choices=("recompute", "frozen"), default="recompute")
    force.add_argument("--ref-d", type=float, default=None,
                       help="reference separation fixing omega_p in frozen mode (default: first d)")
    _add_common_output_args(force)
    force.set_defaults(func=_cmd_force)

    spectrum = sub.add_parser("spectrum", help="exact energy levels for given parameters")
    spectrum.add_argument("--xi", required=True)
    spectrum.add_argument("--omega", required=True, help="frequency grid: list or range")
    spectrum.add_argument("--omega-p", type=float, required=True)
    spectrum.add_argument("--p", default="0,0,0")
    spectrum.add_argument("--n", default="0", help="comma-separated excitation numbers")
    spectrum.add_argument("--mass", type=float, default=1.0)
    spectrum.add_argument("--hbar", type=float, default=1.0)
    spectrum.add_argument("--c", type=float, default=1.0)
    spectrum.add_argument("--charges", type=int, default=1)
    _add_common_output_args(spectrum)
    spectrum.set_defaults(func=_cmd_spectrum)

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.omega is None):
        raise SpecError("provide exactly one of --k and --omega")
    quantity, axis = args.quantity, _TABLE[args.quantity].axis
    if getattr(args, axis) is None:
        raise SpecError(f"{quantity} sweeps over --{axis}")
    units = args.units
    if units is None:
        units = "atomic" if quantity in ATOMIC_ONLY else "reduced"
    spec = SweepSpec(
        quantity=quantity,
        xi_list=_parse_floats(args.xi),
        grid=parse_grid(getattr(args, axis)),
        units=units,
        out=args.out,
        fmt=args.format,
        omega_p=args.omega_p,
        mass=args.mass,
        hbar=args.hbar,
        c=args.c,
        momentum=parse_momentum(args.p),
        n=(args.n,),
        n_charges=args.charges,
        d=args.d,
        area=args.area,
        charge=args.charge,
        n_photons=args.n_photons,
    )
    run_sweep(spec)
    return EXIT_OK


def _cmd_figures(args: argparse.Namespace) -> int:
    from .figures import emit_figure_datasets  # figures builds on this module's table

    for path in emit_figure_datasets(args.outdir):
        print(path)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0.0 < args.tol < math.inf:
        raise SpecError(f"tolerance must be positive and finite, got {args.tol}")
    if args.cutoff_start < 8:
        raise SpecError(f"cutoff start must be at least 8, got {args.cutoff_start}")
    if args.cutoff_cap < args.cutoff_start:
        raise SpecError("cutoff cap must be at least the starting cutoff")
    if args.cutoff_cap > MAX_CUTOFF:
        raise SpecError(f"cutoff cap must be at most {MAX_CUTOFF}, got {args.cutoff_cap}")
    if args.levels < 1:
        raise SpecError(f"levels must be positive, got {args.levels}")
    if args.levels > args.cutoff_start / 4:
        raise SpecError(
            f"levels must be at most cutoff start/4={args.cutoff_start / 4:g}, got {args.levels}"
        )

    if args.xi is None and args.omega is None and args.omega_p is None and args.p is None:
        cases = default_verification_cases()
    else:
        xis = _check_xi(_parse_floats(args.xi)) if args.xi else (0.0, 0.5, 1.0)
        omegas = _parse_floats(args.omega) if args.omega else (1.0,)
        omega_ps = _parse_floats(args.omega_p) if args.omega_p else (0.5,)
        momenta = [parse_momentum(t) for t in args.p] if args.p else [Momentum()]
        cases = [
            (ModelParams(xi=xi, omega=w, omega_p=wp), p)
            for xi in xis
            for w in omegas
            for wp in omega_ps
            for p in momenta
        ]

    entries = []
    for params, p in cases:
        result = verify_spectrum(
            params, p, n_levels=args.levels, tol=args.tol,
            cutoff_start=args.cutoff_start, cutoff_cap=args.cutoff_cap,
        )
        entries.append({
            "xi": params.xi,
            "omega": params.omega,
            "omega_p": params.omega_p,
            "p": [p.p_major, p.p_minor, p.p_perp],
            **asdict(result),
        })
    report = {
        "tol": args.tol,
        "cutoff_start": args.cutoff_start,
        "cutoff_cap": args.cutoff_cap,
        "n_levels": args.levels,
        "all_converged": all(e["converged"] for e in entries),
        "cases": entries,
    }
    for case in report["cases"]:
        status = "ok" if case["converged"] else "FAILED"
        print(
            f"[{status}] xi={case['xi']:g} omega={case['omega']:g} "
            f"omega_p={case['omega_p']:g} p={tuple(case['p'])} "
            f"cutoff={case['cutoff_used']} max_rel_err={case['max_rel_err']:.3e}",
            file=sys.stderr,
        )
    write_bytes([render_json(report)], args.out)
    return EXIT_OK if report["all_converged"] else EXIT_VERIFY_FAILED


def _cmd_force(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        quantity="force", xi_list=_parse_floats(args.xi), grid=parse_grid(args.d),
        units="atomic", out=args.out, fmt=args.format, mass=args.mass, hbar=args.hbar,
        n_charges=args.charges, area=args.area, charge=args.charge, n_photons=args.n_photons,
    )
    spec.validate()
    if args.at_minimum == (args.omega is not None):
        raise SpecError("provide exactly one of --omega and --at-minimum")
    omega_axis = [("omega", parse_grid(args.omega))] if args.omega else []
    frozen_wp = None
    if args.scaling == "frozen":
        ref_d = args.ref_d if args.ref_d is not None else spec.grid[0]
        frozen_wp = _plates(spec, ref_d)[1]
    plates = {d: _plates(spec, d) for d in spec.grid}

    def columns(xi: float, ds: list[float], omegas: list[float | None]) -> list:
        """The rows at xi and the (d, omega) pairs; omega None means at the minimum."""
        results = [_plate_force(spec, xi, plates[d], w, frozen_wp) for d, w in zip(ds, omegas)]
        omega, wp, force = (np.array(c, dtype=float) for c in zip(*results))
        return [xi, omega, np.array(ds, dtype=float), spec.area, spec.n_charges,
                spec.n_photons, args.scaling, wp, force]

    def at_omega(xi: float, d: float, omega: np.ndarray) -> list:
        return columns(xi, [d] * len(omega), omega.tolist())

    def at_minimum(xi: float, d: np.ndarray) -> list:
        return columns(xi, d.tolist(), [None] * len(d))

    header = ["xi", "omega", "d", "area", "n_charges", "n_photons",
              "scaling", "omega_p", "force"]
    rows = _tabulate(
        [("xi", spec.xi_list), ("d", spec.grid), *omega_axis],
        at_omega if omega_axis else at_minimum,
    )
    _write_table(spec, header, rows)
    return EXIT_OK


def _cmd_spectrum(args: argparse.Namespace) -> int:
    try:
        n_values = tuple(int(v) for v in args.n.split(","))
    except ValueError as exc:
        raise SpecError(f"malformed excitation list {args.n!r}: {exc}") from None
    run_sweep(SweepSpec(
        quantity="spectrum", xi_list=_parse_floats(args.xi), grid=parse_grid(args.omega),
        units="atomic", out=args.out, fmt=args.format, omega_p=args.omega_p, mass=args.mass,
        hbar=args.hbar, c=args.c, momentum=parse_momentum(args.p), n=n_values,
        n_charges=args.charges,
    ))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
