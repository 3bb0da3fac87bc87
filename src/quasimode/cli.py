"""Command-line front end: parameter sweeps, figure datasets, spectrum
verification, and single-point force/spectrum calculators.

Exit codes: 0 success, 1 verification failure, 2 usage/spec error,
3 domain error (the offending row is identified on stderr).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import DomainError, SpecError
from .figures import emit_figure_datasets
from .fock import default_verification_cases, verify_spectrum
from .output import csv_chunks, json_table_chunks, render_json, write_bytes
from .params import ModelParams
from .spectrum import Momentum
from .tables import (
    ATOMIC_ONLY, QUANTITIES, TABLE, SweepSpec, check_xi, finite_grid, force_columns,
    range_grid, sweep_columns,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

# Largest oracle cutoff `verify` accepts: one banded solve takes seconds there.
MAX_CUTOFF = 16384


def parse_grid(text: str) -> np.ndarray:
    """"a:b:n[:log]" is a range (see tables.range_grid); otherwise a
    comma-separated value list.  Returns the grid points, every one finite,
    as a float64 array."""
    if ":" not in text:
        return finite_grid(_parse_floats(text))
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise SpecError(f"grid must be start:stop:count[:spacing], got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise SpecError(f"malformed grid {text!r}: {exc}") from None
    spacing = parts[3] if len(parts) == 4 else "linear"
    finite_grid((start, stop))
    if count < 2:
        raise SpecError(f"grid count must be at least 2, got {count}")
    if not start < stop:
        raise SpecError(f"grid needs start < stop, got {start}:{stop}")
    if spacing not in ("linear", "log"):
        raise SpecError(f"unknown grid spacing {spacing!r}")
    if spacing == "log" and start <= 0.0:
        raise SpecError("log spacing requires start > 0")
    return finite_grid(range_grid(start, stop, count, spacing == "log"))


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


def _write_table(spec: SweepSpec, header: list[str], blocks: list[list]) -> None:
    if spec.fmt == "csv":
        chunks = csv_chunks(header, blocks)
    else:
        chunks = json_table_chunks(header, blocks, quantity=spec.quantity, units=spec.units)
    write_bytes(chunks, spec.out)


def run_sweep(spec: SweepSpec) -> None:
    """Validate, evaluate, and write one sweep dataset."""
    spec.validate()
    _write_table(spec, *sweep_columns(spec))


def _add_common_output_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It names a subcommand;
    main looks its `_cmd_<command>` handler up in this module at call time,
    so a handler rebound after the first build is the one that runs."""
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

    figures = sub.add_parser("figures", help="emit the six reference figure datasets")
    figures.add_argument("--outdir", type=Path, default=Path("figures"))

    verify = sub.add_parser("verify", help="check the analytic spectrum against the number-basis matrix")
    verify.add_argument("--xi", default=None, help="comma-separated list (default grid otherwise)")
    verify.add_argument("--omega", default=None, help="comma-separated list")
    verify.add_argument("--omega-p", default=None, help="comma-separated list")
    verify.add_argument("--p", action="append", default=None, help="momentum triple; repeatable")
    verify.add_argument("--levels", type=int, default=5)
    verify.add_argument("--tol", type=float, default=1e-6)
    verify.add_argument("--cutoff-start", type=int, default=64)
    verify.add_argument("--cutoff-cap", type=int, default=1024,
                        help="largest cutoff; equal to --cutoff-start, each case is solved "
                             "once and the run exits 1, as no doubling can show convergence")
    verify.add_argument("--out", type=Path, default=None, help="JSON report file (default: stdout)")

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

    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.omega is None):
        raise SpecError("provide exactly one of --k and --omega")
    quantity, axis = args.quantity, TABLE[args.quantity].axis
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
        xis = check_xi(_parse_floats(args.xi)) if args.xi is not None else (0.0, 0.5, 1.0)
        omegas = _parse_floats(args.omega) if args.omega is not None else (1.0,)
        omega_ps = _parse_floats(args.omega_p) if args.omega_p is not None else (0.5,)
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
    omega = parse_grid(args.omega) if args.omega is not None else None
    ref_d = None
    if args.scaling == "frozen":
        ref_d = args.ref_d if args.ref_d is not None else spec.grid[0].item()
    _write_table(spec, *force_columns(spec, omega, ref_d))
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
    args = _build_parser().parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (SpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
