"""Sweep and force tables as numpy columns (sweep_columns, force_columns):
blocks of the `output` table format, each of at most _SLICE points of one
polarization xi."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dispersion import REGIMES, Branch, critical_points, k_branches_array, omega_physical_array
from .errors import DomainError, SpecError
from .kinematics import velocities_array
from .optics import _branch_zetas, _finite_zeta, _reflectivities
from .output import Labels
from .params import (
    _FLOAT_MAX, _SLICE, ATOMIC_C, _each, _finite, _plasma_wavenumber, _positive,
    _reduced_wavenumber, validate_xi,
)
from .plates import PlateGeometry, force_at_minimum, force_general, plasma_frequency_plates
from .spectrum import Momentum, energy_levels_array


def finite_grid(values) -> np.ndarray:
    """The values as a float64 array, each of them finite.  One array check
    passes them all; only when it fails (or an int is too large for a float)
    does a per-value check find the first to name.  An int that rounds to
    the largest float fails the array check, so the per-value check sees it."""
    try:
        grid = np.asarray(values, dtype=float)
        finite = bool((np.abs(grid) < _FLOAT_MAX).all())
    except (OverflowError, TypeError, ValueError):
        finite = False
    if not finite:
        for value in values.tolist() if isinstance(values, np.ndarray) else values:
            _finite(value, "grid values")
    return grid


@np.errstate(all="ignore")
def range_grid(start: float, stop: float, count: int, log: bool) -> np.ndarray:
    """The count points of a range from start to stop, count >= 2, as a
    float64 array: point i is start + (stop - start) * i / (count - 1), or
    with log, 10.0 ** (la + (lb - la) * i / (count - 1)) for la and lb the
    log10 of start and stop.  These are the float operations of the Python
    expressions, in their order, with libm's pow; a log point that
    overflows is a DomainError, a linear one is left to finite_grid."""
    steps = np.arange(count, dtype=float)
    if not log:
        return start + (stop - start) * steps / (count - 1)
    la, lb = math.log10(start), math.log10(stop)
    try:
        return _each((10.0).__pow__, la + (lb - la) * steps / (count - 1))
    except OverflowError:
        raise DomainError(f"grid point above {stop} overflows") from None


def check_xi(xi_list: tuple[float, ...]) -> tuple[float, ...]:
    for xi in xi_list:
        try:
            validate_xi(xi)
        except DomainError as exc:
            raise SpecError(str(exc)) from None
    return xi_list


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """Everything needed to evaluate one sweep and write its dataset.  The
    grid is a float64 array (or a sequence of floats), so specs compare by
    identity."""

    quantity: str
    xi_list: tuple[float, ...]
    grid: np.ndarray
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
    # Divide the permittivities in the damped window as numpy divides them
    # (see _zetas); the figures set it.
    numpy_division: bool = False

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
        check_xi(self.xi_list)
        for name in ("omega_p", "mass", "hbar", "d", "area", "charge"):
            _finite(getattr(self, name), name)
        if not 0.0 < self.resolved_c() < math.inf:
            raise DomainError(f"speed of light must be positive and finite, got {self.c}")
        grid = finite_grid(self.grid)
        if self.quantity in K_SWEPT and any(xi > 0.0 for xi in self.xi_list):
            if (grid <= 0.0).any():
                raise SpecError(
                    "wavenumber grid must exclude 0 when any xi > 0 (singular point)"
                )
        # Read by every block of these tables, but checked here, so that a
        # bad hbar is reported ahead of a bad plate input.
        if self.quantity in ATOMIC_ONLY:
            _positive(self.hbar, "hbar")
        elif self.units == "atomic" and self.omega_p <= 0.0:
            raise SpecError("atomic units for reduced-family sweeps require omega_p > 0")


class _Units(NamedTuple):
    """Units of the frequency and velocity columns; the wavenumber unit is
    their ratio, the plasma wavenumber k_p."""

    omega: float
    v: float


def _units(spec: SweepSpec) -> _Units:
    if spec.units == "reduced":
        return _Units(1.0, 1.0)
    return _Units(spec.omega_p, spec.resolved_c())


# Column functions: (spec, units, xi, grid) -> the block of the rows at xi
# over the grid, which is a float64 array.  Branch and regime cells are the
# enum values, as Labels.

_BRANCHES = (Branch.PLUS.value, Branch.MINUS.value)
_BRANCH_CODES = np.arange(2, dtype=np.uint8)
_REGIMES = tuple(regime.value for regime in REGIMES)


def _per_branch(omega: np.ndarray, xi: float, *values: np.ndarray) -> list:
    """The columns of a table of both branches over the grid omega, one row
    per grid point and branch, the plus branch first: omega, xi and the
    branch (plus, minus, plus, ...), then each value of shape (2, n)."""
    branches = Labels(np.tile(_BRANCH_CODES, len(omega)), _BRANCHES)
    return [np.repeat(omega, 2), xi, branches, *(value.T.ravel() for value in values)]


def _dispersion(spec: SweepSpec, u: _Units, xi: float, k: np.ndarray) -> list:
    return [k, xi, omega_physical_array(k, u.omega, xi, u.v)]


def _wavenumber(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    x, codes = k_branches_array(omega / u.omega, xi)
    re, im = x.real, x.imag
    if spec.units == "atomic":
        # x * k_p as Python multiplies a complex by a float, re k_p - im 0 and
        # re 0 + im k_p: Re x is finite and never negative, so re 0 is 0.0.
        k_p = _plasma_wavenumber(u.omega, u.v)
        re, im = re * k_p, im * k_p + 0.0
    # a regime per grid point, the same for both branches
    regimes = Labels(np.repeat(codes.astype(np.uint8), 2), _REGIMES)
    return [*_per_branch(omega, xi, re, im), regimes]


def _zetas(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> np.ndarray:
    """Both branches' permittivities at omega, shape (2, n), from one branch
    evaluation.  In the damped window they are divided by y^2 as Python
    divides a complex by a float, or as numpy does if spec.numpy_division
    is set: the figures' grids were once numpy floats, which divide so."""
    y = omega / u.omega
    zetas = _branch_zetas(y, xi, spec.numpy_division)
    _finite_zeta(y, *zetas)
    return zetas


def _dielectric(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    zetas = _zetas(spec, u, xi, omega)
    return _per_branch(omega, xi, zetas.real, zetas.imag)


def _reflectivity(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    # numpy's complex sqrt and division are not always bit for bit those of
    # the scalar reflectivity(refractive_index(zeta)), so the kernel
    # transcribes CPython's own onto float64 parts: no complex object per
    # cell, and libm's pow, mapped in slices, is the one per-cell call.
    zetas = _zetas(spec, u, xi, omega)
    r = _reflectivities(zetas.real, zetas.imag)
    return _per_branch(omega, xi, r)


def _velocity(spec: SweepSpec, u: _Units, xi: float, k: np.ndarray) -> list:
    phase, group = velocities_array(_reduced_wavenumber(k, u.omega, u.v), xi)
    return [k, xi, phase * u.v, group * u.v]


def _spectrum(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    p, levels = spec.momentum, len(spec.n)
    *per_omega, energy = energy_levels_array(
        xi, omega, spec.omega_p, p, spec.n, spec.n_charges, spec.mass, spec.hbar
    )
    codes = np.tile(np.arange(levels, dtype=np.min_scalar_type(levels - 1)), len(omega))
    if levels > 1:  # a row per frequency and level
        omega, *per_omega = (np.repeat(column, levels) for column in (omega, *per_omega))
    return [
        omega, xi, spec.omega_p, p.p_major, p.p_minor, p.p_perp,
        Labels(codes, spec.n), *per_omega, energy.ravel(),
    ]


def _force(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    geom, wp = _plates(spec, spec.d)
    return [
        omega, xi, spec.d, spec.area, spec.n_charges, spec.n_photons, wp,
        force_general(omega, geom, spec.charge, spec.mass, xi, spec.hbar, omega_p=wp),
    ]


def _geometry(spec: SweepSpec, d) -> PlateGeometry:
    """The plates of `spec` at separation d, a float or an array."""
    return PlateGeometry(d=d, A=spec.area, N_charges=spec.n_charges, n_photons=spec.n_photons)


def _plates(spec: SweepSpec, d) -> tuple[PlateGeometry, float | np.ndarray]:
    """The plates of `spec` at separation d and their plasma frequency."""
    geom = _geometry(spec, d)
    return geom, plasma_frequency_plates(geom, spec.charge, spec.mass)


class Quantity(NamedTuple):
    axis: str  # the swept grid, "k" or "omega"
    # Reduced-unit columns are named "<atomic name>_over_<unit>".
    columns: list[str]
    atomic_only: bool
    evaluate: Callable[..., list]


TABLE = {
    "dispersion": Quantity("k", ["k_over_kp", "xi", "omega_over_wp"], False, _dispersion),
    "wavenumber": Quantity(
        "omega", ["omega_over_wp", "xi", "branch", "re_k_over_kp", "im_k_over_kp", "regime"],
        False, _wavenumber,
    ),
    "dielectric": Quantity(
        "omega", ["omega_over_wp", "xi", "branch", "re_zeta", "im_zeta"], False, _dielectric
    ),
    "reflectivity": Quantity(
        "omega", ["omega_over_wp", "xi", "branch", "reflectivity"], False, _reflectivity
    ),
    "velocity": Quantity(
        "k", ["k_over_kp", "xi", "v_phase_over_c", "v_group_over_c"], False, _velocity
    ),
    "spectrum": Quantity(
        "omega",
        ["omega", "xi", "omega_p", "p_major", "p_minor", "p_perp",
         "n", "theta", "sigma_sq", "effective_omega", "energy"],
        True, _spectrum,
    ),
    "force": Quantity(
        "omega", ["omega", "xi", "d", "area", "n_charges", "n_photons", "omega_p", "force"],
        True, _force,
    ),
}
QUANTITIES = tuple(TABLE)
K_SWEPT = {name for name, entry in TABLE.items() if entry.axis == "k"}
ATOMIC_ONLY = {name for name, entry in TABLE.items() if entry.atomic_only}


def _checked_columns(evaluate: Callable[..., list], value: object, grids: list) -> list:
    """evaluate(value, *grids), with an overflow, a division by zero or a
    non-finite float cell raised as a DomainError.  numpy's floating-point
    warnings are silenced: the cells they flag are the ones rejected here."""
    try:
        with np.errstate(all="ignore"):
            columns = evaluate(value, *grids)
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


def _first_fault(
    check: Callable[[slice], object], part: slice, fault: DomainError
) -> tuple[int, DomainError]:
    """The index of the first point of part at which check, given a slice
    of them, raises a DomainError, and the error it raises at that point
    alone, or fault (that of all of part's points) if none.  Whether a point
    fails does not depend on the others, so a slice fails exactly when it
    holds a failing point; which error a slice raises may."""
    lo, hi = part.start, part.stop  # the first failure lies in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            check(slice(lo, mid))
            lo = mid
        except DomainError:
            hi = mid
    try:
        check(slice(lo, lo + 1))
    except DomainError as own:
        fault = own
    return lo, fault


def tabulate(axes: list[tuple[str, tuple]], evaluate: Callable[..., list]) -> list[list]:
    """The blocks of evaluate over the product of the named axes, the last
    innermost: one block per slice of at most _SLICE consecutive points of
    one value of the first axis, in row order, so that only one slice's
    temporaries are live at a time.  The other axes' values are float64
    arrays (or sequences of floats).  evaluate takes the first axis's value
    and, for each other axis, a float64 array of its value at each point of
    a slice, and returns the columns of the slice's rows (on empty arrays,
    empty columns or a fault of no row).  With one inner axis, its array is
    a view of the grid; the product of several is built per slice.

    Every block is evaluated and checked before any is returned, so a
    DomainError is raised before any output; unless the empty arrays raise
    it too, the error raised is that of the first failing point, in row
    order, alone (_first_fault, within the first failing slice: the earlier
    ones passed), and is reported on stderr with that point."""
    (_, outer), *inner = axes
    shape = tuple(len(values) for _, values in inner)
    count = math.prod(shape)
    arrays = [np.asarray(values, dtype=float) for _, values in inner]

    def grids(part: slice) -> list[np.ndarray]:
        if len(arrays) == 1:
            return [arrays[0][part]]
        at = np.unravel_index(np.arange(part.start, part.stop), shape)
        return [array[i] for array, i in zip(arrays, at)]

    blocks = []
    for value in outer if count else ():
        def rows(part: slice) -> list:
            return _checked_columns(evaluate, value, grids(part))

        for start in range(0, count, _SLICE):
            part = slice(start, min(start + _SLICE, count))
            try:
                blocks.append(rows(part))
            except DomainError as exc:
                rows(slice(0, 0))  # raises a fault of no row
                i, exc = _first_fault(rows, part, exc)
                at = np.unravel_index(i, shape)
                point = [value, *(float(array[j]) for array, j in zip(arrays, at))]
                where = ", ".join(f"{axis}={v:g}" for (axis, _), v in zip(axes, point))
                print(f"domain error at {where}: {exc}", file=sys.stderr)
                raise exc from None
    return blocks


def sweep_columns(spec: SweepSpec) -> tuple[list[str], list[list]]:
    """The header and the blocks of a validated sweep, one per slice of the
    grid at each xi (tabulate)."""
    entry = TABLE[spec.quantity]
    header = entry.columns
    if spec.units == "atomic":
        header = [column.split("_over_")[0] for column in header]
    evaluate = functools.partial(entry.evaluate, spec, _units(spec))
    return header, tabulate([("xi", spec.xi_list), (entry.axis, spec.grid)], evaluate)


def force_columns(
    spec: SweepSpec, omega: np.ndarray | None, ref_d: float | None
) -> tuple[list[str], list[list]]:
    """The header and the blocks, one per slice at each xi (tabulate), of the
    `force` table of a validated spec: the force at each separation d of
    spec.grid over omega, or at the energy minimum if omega is None.
    omega_p is recomputed at each d, or frozen at that of separation ref_d
    unless ref_d is None.  Every separation's plates are checked first, and
    a fault of them is the error of the first failing separation alone
    (_first_fault), naming no d."""
    frozen_wp = None if ref_d is None else _plates(spec, ref_d)[1]
    # The plates are checked before tabulate: --at-minimum sweeps d, so its
    # empty grid builds no plates, and a bad plate input would name a d.
    # The omega_p column of --omega comes from this evaluation; the force
    # kernels recompute it unless it is frozen.
    grid = np.asarray(spec.grid, dtype=float)
    with np.errstate(all="ignore"):
        try:
            wp = _plates(spec, grid)[1]
        except DomainError as exc:
            _, exc = _first_fault(
                lambda part: _plates(spec, grid[part]), slice(0, len(grid)), exc
            )
            raise exc from None
    e, m, hbar = spec.charge, spec.mass, spec.hbar
    header = ["xi", "omega", "d", "area", "n_charges", "n_photons", "scaling", "omega_p", "force"]
    fixed = [spec.area, spec.n_charges, spec.n_photons, "recompute" if ref_d is None else "frozen"]

    def at_minimum(xi: float, d: np.ndarray) -> list:
        if not d.size:  # a fault of the force at a separation names it
            return [d]
        geom, omega_p = _plates(spec, d) if frozen_wp is None else (_geometry(spec, d), frozen_wp)
        force = force_at_minimum(geom, e, m, xi, hbar, omega_p=frozen_wp)
        # k_star <= 1/sqrt(2), so omega is finite where omega_p is
        return [xi, omega_p * critical_points(xi).k_star, d, *fixed, omega_p, force]

    def at_omega(xi: float, d: np.ndarray, omega: np.ndarray) -> list:
        return [xi, omega, force_general(omega, _geometry(spec, d), e, m, xi, hbar,
                                         omega_p=frozen_wp)]

    if omega is None:
        return header, tabulate([("xi", spec.xi_list), ("d", grid)], at_minimum)
    # d and omega_p are Labels of a value per separation, repeated over
    # omega: built once, and sliced by each block's first row within its xi.
    count = len(grid)
    codes = np.repeat(np.arange(count, dtype=np.min_scalar_type(count - 1)), len(omega))
    wp = wp if frozen_wp is None else frozen_wp
    d, wp = (Labels(codes, tuple(np.broadcast_to(v, grid.shape).tolist())) for v in (grid, wp))
    blocks, start = [], 0
    for xi, w, force in tabulate([("xi", spec.xi_list), ("d", grid), ("omega", omega)], at_omega):
        rows = slice(start, start + len(force))
        blocks.append([xi, w, d[rows], *fixed, wp[rows], force])
        start = rows.stop % len(codes)  # the next xi's rows start at 0
    return header, blocks
