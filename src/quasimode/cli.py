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
from typing import Callable, NamedTuple

from .dispersion import Branch, critical_points, k_branches, omega_physical
from .errors import DomainError
from .fock import default_verification_cases, verify_spectrum
from .kinematics import group_velocity, phase_velocity
from .optics import _branch_zetas, _finite_zeta, reflectivity, refractive_index
from .output import csv_chunks, json_table_chunks, render_json, write_bytes
from .params import ATOMIC_C, ModelParams, _finite, _require_finite, validate_xi
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


def _dispersion(spec: SweepSpec, u: _Units, xi: float, k: float) -> list[list]:
    return [[k, xi, omega_physical(k, u.omega, xi, u.v)]]


def _wavenumber(spec: SweepSpec, u: _Units, xi: float, omega: float) -> list[list]:
    rows = []
    for wn in k_branches(omega / u.omega, xi):
        z = wn.value if spec.units == "reduced" else wn.value * u.k
        rows.append([omega, xi, wn.branch, z.real, z.imag, wn.regime])
    return rows


def _zetas(u: _Units, xi: float, omega: float) -> list[tuple[Branch, complex]]:
    """Both branches' permittivities at omega, from one branch evaluation."""
    y = omega / u.omega
    zetas = zip((Branch.PLUS, Branch.MINUS), _branch_zetas(y, xi))
    return [(b, _finite_zeta(zeta, y)) for b, zeta in zetas]


def _dielectric(spec: SweepSpec, u: _Units, xi: float, omega: float) -> list[list]:
    return [[omega, xi, b, zeta.real, zeta.imag] for b, zeta in _zetas(u, xi, omega)]


def _reflectivity(spec: SweepSpec, u: _Units, xi: float, omega: float) -> list[list]:
    return [
        [omega, xi, b, reflectivity(refractive_index(zeta))] for b, zeta in _zetas(u, xi, omega)
    ]


def _velocity(spec: SweepSpec, u: _Units, xi: float, k: float) -> list[list]:
    x = k / u.k
    return [[k, xi, phase_velocity(x, xi) * u.v, group_velocity(x, xi) * u.v]]


def _spectrum(spec: SweepSpec, u: _Units, xi: float, omega: float) -> list[list]:
    params = ModelParams(
        xi=xi, omega=omega, omega_p=spec.omega_p, mass=spec.mass, hbar=spec.hbar, c=u.v,
    )
    p = spec.momentum
    levels = [energy_level(params, p, n, spec.n_charges) for n in spec.n]
    return [[
        omega, xi, spec.omega_p, p.p_major, p.p_minor, p.p_perp,
        level.n, level.theta, level.sigma_sq, level.Omega, level.energy,
    ] for level in levels]


def _force(spec: SweepSpec, u: _Units, xi: float, omega: float) -> list[list]:
    omega, wp, force = _plate_force(spec, xi, _plates(spec, spec.d), omega)
    return [[omega, xi, spec.d, spec.area, spec.n_charges, spec.n_photons, wp, force]]


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
    rows: Callable[..., list[list]]


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


def _finite_rows(row: Callable[..., list[list]], point: tuple) -> list[list]:
    """row(*point), with an overflow, a division by zero or a non-finite
    float cell raised as a DomainError."""
    try:
        rows = row(*point)
    except (OverflowError, ZeroDivisionError) as exc:
        raise DomainError(f"result is not a finite float ({type(exc).__name__})") from None
    for r in rows:
        for cell in r:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise DomainError("result is not a finite float")
    return rows


def _tabulate(axes: list[tuple[str, tuple]], row: Callable[..., list[list]]) -> list[list]:
    """The rows of row(*point) over the product of the named axes, the first
    outermost.  A DomainError is reported on stderr with the point it hit."""
    rows: list[list] = []
    for point in itertools.product(*(values for _, values in axes)):
        try:
            rows.extend(_finite_rows(row, point))
        except DomainError as exc:
            where = ", ".join(f"{name}={value:g}" for (name, _), value in zip(axes, point))
            print(f"domain error at {where}: {exc}", file=sys.stderr)
            raise
    return rows


def _sweep_rows(spec: SweepSpec) -> tuple[list[str], list[list]]:
    entry = _TABLE[spec.quantity]
    header = entry.columns
    if spec.units == "atomic":
        header = [column.split("_over_")[0] for column in header]
        if not entry.atomic_only and spec.omega_p <= 0.0:
            raise SpecError("atomic units for reduced-family sweeps require omega_p > 0")
    row = functools.partial(entry.rows, spec, _units(spec))
    return header, _tabulate([("xi", spec.xi_list), (entry.axis, spec.grid)], row)


def _write_table(spec: SweepSpec, header: list[str], rows: list[list]) -> None:
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

    def row(xi: float, d: float, omega: float | None = None) -> list[list]:
        omega, wp, force = _plate_force(spec, xi, plates[d], omega, frozen_wp)
        return [[xi, omega, d, spec.area, spec.n_charges, spec.n_photons, args.scaling, wp, force]]

    header = ["xi", "omega", "d", "area", "n_charges", "n_photons",
              "scaling", "omega_p", "force"]
    rows = _tabulate([("xi", spec.xi_list), ("d", spec.grid), *omega_axis], row)
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
