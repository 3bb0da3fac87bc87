"""Sweep and force tables as numpy columns (sweep_columns, force_columns):
one block of the `output` table format per point of the outer axes."""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dispersion import REGIMES, Branch, critical_points, k_branches_array, omega_physical_array
from .errors import DomainError, SpecError
from .kinematics import velocities_array
from .optics import _branch_zetas, _finite_zeta, reflectivity, refractive_index
from .params import (
    _FLOAT_MAX, ATOMIC_C, _finite, _plasma_wavenumber, _positive, _reduced_wavenumber,
    _require_finite, validate_xi,
)
from .plates import PlateGeometry, force_at_minimum, force_general, plasma_frequency_plates
from .spectrum import Momentum, energy_levels_array


def finite_grid(values) -> tuple[float, ...]:
    """The values as a tuple, each of them finite.  One array check passes
    them all; only when it fails (or an int is too large for a float) does a
    per-value check find the first to name.  An int that rounds to the
    largest float fails the array check, so the per-value check sees it."""
    try:
        finite = bool((np.abs(np.array(values, dtype=float)) < _FLOAT_MAX).all())
    except (OverflowError, TypeError, ValueError):
        finite = False
    if not finite:
        for value in values:
            _finite(value, "grid values")
    return tuple(values)


def check_xi(xi_list: tuple[float, ...]) -> tuple[float, ...]:
    for xi in xi_list:
        try:
            validate_xi(xi)
        except DomainError as exc:
            raise SpecError(str(exc)) from None
    return xi_list


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
        check_xi(self.xi_list)
        _require_finite(self, "omega_p", "mass", "hbar", "d", "area", "charge")
        if not 0.0 < self.resolved_c() < math.inf:
            raise DomainError(f"speed of light must be positive and finite, got {self.c}")
        finite_grid(self.grid)
        if self.quantity in K_SWEPT and any(xi > 0.0 for xi in self.xi_list):
            if any(v <= 0.0 for v in self.grid):
                raise SpecError(
                    "wavenumber grid must exclude 0 when any xi > 0 (singular point)"
                )
        # Read at every point of these tables, but checked here: the force
        # kernels run once per point, so tabulate's empty grid reads no hbar.
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
# enum values.

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
        # x * k_p as Python multiplies a complex by a float, re k_p - im 0 and
        # re 0 + im k_p: Re x is finite and never negative, so re 0 is 0.0.
        k_p = _plasma_wavenumber(u.omega, u.v)
        re, im = re * k_p, im * k_p + 0.0
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
    phase, group = velocities_array(_reduced_wavenumber(k, u.omega, u.v), xi)
    return [k, xi, phase * u.v, group * u.v]


def _spectrum(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    p, levels = spec.momentum, len(spec.n)
    *per_omega, energy = energy_levels_array(
        xi, omega, spec.omega_p, p, spec.n, spec.n_charges, spec.mass, spec.hbar
    )
    return [
        np.repeat(omega, levels), xi, spec.omega_p, p.p_major, p.p_minor, p.p_perp,
        np.tile(np.array(spec.n, dtype=object), len(omega)),
        *(np.repeat(column, levels) for column in per_omega), energy.ravel(),
    ]


def _force(spec: SweepSpec, u: _Units, xi: float, omega: np.ndarray) -> list:
    plates = _plates(spec, spec.d)
    return [
        omega, xi, spec.d, spec.area, spec.n_charges, spec.n_photons, plates[1],
        _forces(spec, xi, plates, omega),
    ]


def _plates(spec: SweepSpec, d: float) -> tuple[PlateGeometry, float]:
    """The plates of `spec` at separation d, and their plasma frequency."""
    geom = PlateGeometry(d=d, A=spec.area, N_charges=spec.n_charges, n_photons=spec.n_photons)
    return geom, plasma_frequency_plates(geom, spec.charge, spec.mass)


def _forces(spec: SweepSpec, xi: float, plates: tuple, omega: np.ndarray) -> np.ndarray:
    """The force between the plates (of _plates) at each omega."""
    geom, wp = plates
    e, m, hbar = spec.charge, spec.mass, spec.hbar
    return np.array([force_general(w, geom, e, m, xi, hbar, omega_p=wp) for w in omega.tolist()])


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


def tabulate(axes: list[tuple[str, tuple]], evaluate: Callable[..., list]) -> list[list]:
    """The blocks of evaluate over the product of the named axes, the first
    outermost.  evaluate takes a point of the other axes and the whole last
    axis as a float64 array, and returns the block of the rows there (on an
    empty axis, empty columns or a fault of no point).  Every block is
    evaluated and checked before any is returned, so a DomainError is raised
    before any output; unless the empty axis raises it too, it is reported
    on stderr with the first point, in row order, it hits."""
    *outer, (_, values) = axes
    grid = np.array(values, dtype=float)
    points = itertools.product(*(values for _, values in outer)) if len(grid) else ()
    blocks = []
    for point in points:
        try:
            blocks.append(_checked_columns(evaluate, point, grid))
        except DomainError as exc:
            _checked_columns(evaluate, point, grid[:0])  # raises a fault of no point
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
    return blocks


def sweep_columns(spec: SweepSpec) -> tuple[list[str], list[list]]:
    """The header and the blocks of a validated sweep, one block per xi."""
    entry = TABLE[spec.quantity]
    header = entry.columns
    if spec.units == "atomic":
        header = [column.split("_over_")[0] for column in header]
    evaluate = functools.partial(entry.evaluate, spec, _units(spec))
    return header, tabulate([("xi", spec.xi_list), (entry.axis, spec.grid)], evaluate)


def force_columns(
    spec: SweepSpec, omega: tuple[float, ...] | None, ref_d: float | None
) -> tuple[list[str], list[list]]:
    """The header and the blocks of the `force` table of a validated spec,
    one block per xi and separation d of spec.grid: the force at each omega,
    or at the energy minimum if omega is None.  omega_p is recomputed at
    each d, or frozen at that of separation ref_d unless ref_d is None."""
    frozen_wp = None if ref_d is None else _plates(spec, ref_d)[1]
    # Built once per separation, before tabulate: --at-minimum sweeps d, so
    # its empty grid builds no plates, and a bad plate input would name a d.
    plates = {d: _plates(spec, d) for d in spec.grid}
    if frozen_wp is not None:
        plates = {d: (geom, frozen_wp) for d, (geom, _) in plates.items()}
    fixed = [spec.area, spec.n_charges, spec.n_photons, "recompute" if ref_d is None else "frozen"]

    def at_omega(xi: float, d: float, omega: np.ndarray) -> list:
        return [xi, omega, d, *fixed, plates[d][1], _forces(spec, xi, plates[d], omega)]

    def at_minimum(xi: float, d: np.ndarray) -> list:
        at_d = [plates[key] for key in d.tolist()]
        e, m, hbar = spec.charge, spec.mass, spec.hbar
        force = [force_at_minimum(g, e, m, xi, hbar, omega_p=frozen_wp) for g, _ in at_d]
        wp = np.array([omega_p for _, omega_p in at_d], dtype=float)
        return [xi, wp * critical_points(xi).k_star, d, *fixed, wp, np.array(force, dtype=float)]

    header = ["xi", "omega", "d", "area", "n_charges", "n_photons", "scaling", "omega_p", "force"]
    omega_axis = [] if omega is None else [("omega", omega)]
    evaluate = at_minimum if omega is None else at_omega
    return header, tabulate([("xi", spec.xi_list), ("d", spec.grid), *omega_axis], evaluate)
