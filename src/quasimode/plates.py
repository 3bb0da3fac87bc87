"""Zero-point pressure between two parallel plates carrying a smeared charge.

The quantization volume is the gap V = A * d, so the plasma frequency (and
with it the ground-state energy hbar Omega / 2) depends on the separation:

    omega_p(d, A) = 2 sqrt(pi) e sqrt(N) / sqrt(m A d).

Differentiating the energy with respect to d gives a repulsive force.  Two
scaling regimes exist and are exposed explicitly:

* recompute mode (default) -- omega_p is re-evaluated at every separation;
  the force at the energy minimum scales as d^(-3/2);
* frozen mode (pass omega_p=...) -- the plasma frequency is held at a
  reference value, valid for small separation changes; the force then
  scales as 1/d.

All quantities are in atomic units; the Bohr radius hbar^2/(m e^2) equals 1
at the defaults.

The separation d of the plates, and the mode frequency omega of
force_general, may be float64 arrays (in force_general, d and a frozen
omega_p then a float or an array of omega's shape): each kernel then gives
its value at each element, with the bits of the float at that element, and
raises the DomainError of some element that the float would raise it at.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dispersion import critical_points
from .errors import DomainError
from .params import _nonnegative, _positive, _power, _require, polarization_weight


@dataclass(frozen=True)
class PlateGeometry:
    """Two parallel plates: separation d, surface area A, N_charges point
    charges smeared in the gap, n_photons excitations of the mode.  An
    array d holds plates at each of its separations."""

    d: float | np.ndarray
    A: float
    N_charges: int = 1
    n_photons: int = 0

    def __post_init__(self) -> None:
        _positive(self.d, "plate separation", "d")
        _positive(self.A, "plate area", "A")
        if self.N_charges < 0:
            raise DomainError(f"charge count must be nonnegative, got {self.N_charges}")
        _nonnegative(self.n_photons, "photon number", "n_photons")
        if math.isinf(1.0 + 2.0 * self.n_photons):
            raise DomainError("n_photons is too large: 1 + 2 n_photons overflows")


def _require_charge_and_mass(e: float, m: float) -> None:
    _nonnegative(e, "charge")
    _positive(m, "mass")


def plasma_frequency_plates(g: PlateGeometry, e: float, m: float):
    """omega_p = 2 sqrt(pi) e sqrt(N) / sqrt(m A d); N charges enter through
    e^2 -> N e^2."""
    _require_charge_and_mass(e, m)
    mad = m * g.A * g.d
    if (ok := (mad > 0.0) & (mad < math.inf)) is not True:
        _require(
            (m, g.A, g.d), ok, "m * A * d is not a positive finite float (m={}, A={}, d={})"
        )
    try:
        scale = 2.0 * math.sqrt(math.pi) * e * math.sqrt(g.N_charges)
    except OverflowError:  # N is an int too large for a float
        scale = math.inf
    array = isinstance(mad, np.ndarray)
    wp = scale / (np.sqrt if array else math.sqrt)(mad)
    if (ok := (np.isfinite if array else math.isfinite)(wp)) is not True:
        _require(
            (e, g.N_charges, m, g.A, g.d), ok,
            "plasma frequency is not a finite float (e={}, N={}, m={}, A={}, d={})",
        )
    return wp


def _plasma(g: PlateGeometry, e: float, m: float, omega_p: float | None):
    """The plates' own plasma frequency, or the frozen omega_p when given."""
    if omega_p is None:
        return plasma_frequency_plates(g, e, m)
    return _nonnegative(omega_p, "plasma frequency")


def force_general(
    omega,
    g: PlateGeometry,
    e: float,
    m: float,
    xi: float,
    hbar: float = 1.0,
    omega_p: float | None = None,
):
    """Repulsive plate force at mode frequency omega:

        F = hbar omega_p (1 + 2 q omega_p^2/omega^2)
            / (4 sqrt(omega^2/omega_p^2 + 1 + q omega_p^2/omega^2))
            * (1 + 2 n) / d.

    Diverges as omega -> 0 for xi > 0; for xi = 0 the omega -> 0 limit is
    hbar omega_p / (4 d), the maximum of the force.  Pass omega_p to freeze
    the plasma frequency (frozen mode); by default it is recomputed from the
    geometry.  Plates without charge (omega_p = 0) have no force.
    """
    q = polarization_weight(xi)
    _nonnegative(omega, "mode frequency")
    _positive(hbar, "hbar")
    wp = _plasma(g, e, m, omega_p)
    photons = 1.0 + 2.0 * g.n_photons
    array = isinstance(omega, np.ndarray)
    # At omega_p = 0 or omega = 0 the force is the omega -> 0 limit, which
    # is 0 at omega_p = 0.
    special = (wp == 0.0) | (omega == 0.0)
    if special.any() if array else special:
        if q > 0.0 and np.any((omega == 0.0) & (wp != 0.0)):
            raise DomainError("plate force diverges at omega=0 for xi > 0")
        limit = hbar * wp / (4.0 * g.d) * photons
        if not array:
            return limit
        # the other elements as an array of their own, at their omega_p
        force, rest = np.array(np.broadcast_to(limit, omega.shape)), ~special
        if rest.any():
            force[rest] = force_general(
                omega[rest], replace(g, d=_part(g.d, rest)), e, m, xi, hbar, _part(wp, rest)
            )
        return force
    r2 = _power(wp / omega, 2)
    if (ok := (r2 > 0.0) & (r2 < math.inf)) is not True:
        _require(omega, ok, "(omega_p/omega)^2 is not a positive finite float at omega = {}")
    inverse = 1.0 / r2
    if (ok := inverse < math.inf) is not True:
        _require(omega, ok, "(omega/omega_p)^2 overflows at omega = {}")
    numer = hbar * wp * (1.0 + 2.0 * q * r2)
    denom = 4.0 * (np.sqrt if array else math.sqrt)(inverse + 1.0 + q * r2)
    return numer / denom * photons / g.d


def _part(value, mask: np.ndarray):
    """The elements of value where mask is true, or value if it is a float."""
    return value[mask] if isinstance(value, np.ndarray) else value


def force_minimum_plasma_form(
    g: PlateGeometry,
    e: float,
    m: float,
    xi: float,
    hbar: float = 1.0,
    omega_p: float | None = None,
):
    """Force at the zero-point-energy minimum, plasma-frequency form:
    F* = (kappa/4) hbar omega_p(d, A) (1 + 2 n) / d, with kappa the
    omega_star of critical_points."""
    kappa = critical_points(xi).omega_star
    _positive(hbar, "hbar")
    wp = _plasma(g, e, m, omega_p)
    return kappa / 4.0 * hbar * wp * (1.0 + 2.0 * g.n_photons) / g.d


def force_minimum_bohr_form(
    g: PlateGeometry, e: float, m: float, xi: float, hbar: float = 1.0
):
    """Force at the zero-point-energy minimum, Bohr-radius form:

        F* = kappa sqrt(pi R_B / A) e_N^2 (1/2 + n) / d^(3/2),

    with e_N^2 = N e^2 the effective squared charge and R_B = hbar^2/(m e_N^2)
    the Bohr radius of that effective charge and kappa the omega_star of
    critical_points.  Equal to the plasma-frequency form for every N and n.
    """
    kappa = critical_points(xi).omega_star
    _positive(hbar, "hbar")
    _require_charge_and_mass(e, m)
    e_sq = g.N_charges * e * e
    if e_sq == 0.0:
        return 0.0 * g.d
    if m * e_sq == 0.0:
        raise DomainError(f"m * N e^2 underflows to 0 (m={m}, e={e}, N={g.N_charges})")
    bohr = hbar * hbar / (m * e_sq)
    d_power = _power(g.d, 1.5)
    if (ok := (d_power > 0.0) & (d_power < math.inf)) is not True:
        _require(g.d, ok, "d^(3/2) is not a positive finite float at d = {}")
    return (
        kappa
        * math.sqrt(math.pi * bohr / g.A)
        * e_sq
        * (0.5 + g.n_photons)
        / d_power
    )


def force_at_minimum(
    g: PlateGeometry,
    e: float,
    m: float,
    xi: float,
    hbar: float = 1.0,
    omega_p: float | None = None,
):
    """Repulsive force at the minimum of the zero-point energy.

    In the default (recompute) mode both closed forms are evaluated and
    cross-checked: a relative disagreement beyond 1e-9, as when one form
    overflows, raises DomainError.  In frozen mode (omega_p given) only the
    plasma-frequency form applies.
    """
    plasma = force_minimum_plasma_form(g, e, m, xi, hbar, omega_p)
    if omega_p is not None:
        return plasma
    bohr = force_minimum_bohr_form(g, e, m, xi, hbar)
    larger = np.maximum if isinstance(plasma, np.ndarray) else max
    scale = larger(larger(abs(plasma), abs(bohr)), 1e-300)
    if (ok := abs(plasma - bohr) <= 1e-9 * scale) is not True:
        _require((plasma, bohr), ok, "dual closed forms disagree: {!r} vs {!r}")
    return plasma
