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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dispersion import critical_points
from .errors import DomainError
from .params import _nonnegative, _positive, polarization_weight


@dataclass(frozen=True)
class PlateGeometry:
    """Two parallel plates: separation d, surface area A, N_charges point
    charges smeared in the gap, n_photons excitations of the mode."""

    d: float
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


def plasma_frequency_plates(g: PlateGeometry, e: float, m: float) -> float:
    """omega_p = 2 sqrt(pi) e sqrt(N) / sqrt(m A d); N charges enter through
    e^2 -> N e^2."""
    _require_charge_and_mass(e, m)
    mad = m * g.A * g.d
    if not 0.0 < mad < math.inf:
        raise DomainError(f"m * A * d is not a positive finite float (m={m}, A={g.A}, d={g.d})")
    try:
        wp = 2.0 * math.sqrt(math.pi) * e * math.sqrt(g.N_charges) / math.sqrt(mad)
    except OverflowError:  # N is an int too large for a float
        wp = math.inf
    if not math.isfinite(wp):
        inputs = f"e={e}, N={g.N_charges}, m={m}, A={g.A}, d={g.d}"
        raise DomainError(f"plasma frequency is not a finite float ({inputs})")
    return wp


def _plasma(g: PlateGeometry, e: float, m: float, omega_p: float | None) -> float:
    """The plates' own plasma frequency, or the frozen omega_p when given."""
    if omega_p is None:
        return plasma_frequency_plates(g, e, m)
    return _nonnegative(omega_p, "plasma frequency")


def force_general(
    omega: float,
    g: PlateGeometry,
    e: float,
    m: float,
    xi: float,
    hbar: float = 1.0,
    omega_p: float | None = None,
) -> float:
    """Repulsive plate force at mode frequency omega:

        F = hbar omega_p (1 + 2 q omega_p^2/omega^2)
            / (4 sqrt(omega^2/omega_p^2 + 1 + q omega_p^2/omega^2))
            * (1 + 2 n) / d.

    Diverges as omega -> 0 for xi > 0; for xi = 0 the omega -> 0 limit is
    hbar omega_p / (4 d), the maximum of the force.  Pass omega_p to freeze
    the plasma frequency (frozen mode); by default it is recomputed from the
    geometry.
    """
    q = polarization_weight(xi)
    _nonnegative(omega, "mode frequency")
    _positive(hbar, "hbar")
    wp = _plasma(g, e, m, omega_p)
    if wp == 0.0:
        return 0.0
    photons = 1.0 + 2.0 * g.n_photons
    if omega == 0.0:
        if q > 0.0:
            raise DomainError("plate force diverges at omega=0 for xi > 0")
        return hbar * wp / (4.0 * g.d) * photons
    try:
        r2 = (wp / omega) ** 2
    except OverflowError:
        r2 = math.inf
    if not 0.0 < r2 < math.inf:
        raise DomainError(
            f"(omega_p/omega)^2 is not a positive finite float at omega = {omega}"
        )
    inverse = 1.0 / r2
    if math.isinf(inverse):
        raise DomainError(f"(omega/omega_p)^2 overflows at omega = {omega}")
    numer = hbar * wp * (1.0 + 2.0 * q * r2)
    denom = 4.0 * math.sqrt(inverse + 1.0 + q * r2)
    return numer / denom * photons / g.d


def force_minimum_plasma_form(
    g: PlateGeometry,
    e: float,
    m: float,
    xi: float,
    hbar: float = 1.0,
    omega_p: float | None = None,
) -> float:
    """Force at the zero-point-energy minimum, plasma-frequency form:
    F* = (kappa/4) hbar omega_p(d, A) (1 + 2 n) / d, with kappa the
    omega_star of critical_points."""
    kappa = critical_points(xi).omega_star
    _positive(hbar, "hbar")
    wp = _plasma(g, e, m, omega_p)
    return kappa / 4.0 * hbar * wp * (1.0 + 2.0 * g.n_photons) / g.d


def force_minimum_bohr_form(
    g: PlateGeometry, e: float, m: float, xi: float, hbar: float = 1.0
) -> float:
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
        return 0.0
    if m * e_sq == 0.0:
        raise DomainError(f"m * N e^2 underflows to 0 (m={m}, e={e}, N={g.N_charges})")
    bohr = hbar * hbar / (m * e_sq)
    try:
        d_power = g.d**1.5
    except OverflowError:
        d_power = math.inf
    if not 0.0 < d_power < math.inf:
        raise DomainError(f"d^(3/2) is not a positive finite float at d = {g.d}")
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
) -> float:
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
    scale = max(abs(plasma), abs(bohr), 1e-300)
    if not abs(plasma - bohr) <= 1e-9 * scale:
        raise DomainError(f"dual closed forms disagree: {plasma!r} vs {bohr!r}")
    return plasma
