"""Exact energy spectrum of the diagonalized charge-mode Hamiltonian.

Diagonalization proceeds in two steps: a hyperbolic rotation of the ladder
operators with angle theta removes the a^2 + a^dag^2 terms and renormalizes
the oscillator frequency to Omega; a displacement sigma proportional to the
in-plane momentum removes the linear coupling and lowers every level by
hbar Omega |sigma|^2.  The resulting levels are

    E(p, n) = p^2/(2m) + hbar Omega (n + 1/2 - |sigma|^2),

equally spaced by hbar Omega.  Momenta are expressed in the polarization
frame: p_major along the major axis of the polarization ellipse, p_minor
along the minor axis, p_perp along the propagation direction.

For N identical charges driven by the same mode the spectrum keeps this
shape with omega_p^2 scaled by N and p read as the summed momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import critical_points
from .errors import DomainError
from .params import (
    _FLOAT_MAX,
    _SQUARE_MAX,
    ModelParams,
    _each,
    _finite,
    _nonnegative,
    _positive,
    _power,
    _quad,
    _require,
    _require_omega,
    _require_squares,
    polarization_weight,
)


@dataclass(frozen=True)
class Momentum:
    """Charge momentum in the polarization frame (atomic units)."""

    p_major: float = 0.0
    p_minor: float = 0.0
    p_perp: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p_major", "p_minor", "p_perp"):
            _finite(getattr(self, name), name)
        try:
            squared = self.squared
        except OverflowError:
            squared = math.inf
        if not math.isfinite(squared):
            raise DomainError(f"squared momentum overflows for {self}")

    @property
    def squared(self) -> float:
        return self.p_major**2 + self.p_minor**2 + self.p_perp**2


@dataclass(frozen=True)
class EnergyLevel:
    """One exact level: E = p^2/2m + hbar*Omega*(n + 1/2 - sigma_sq)."""

    n: int
    theta: float
    sigma_sq: float
    energy: float
    Omega: float


def _require_counts(n: int, N_charges: int = 1) -> None:
    """Reject an excitation number below 0 or a charge count below 1, and
    either one too large for a float."""
    _nonnegative(n, "excitation number")
    if not 1 <= N_charges <= _FLOAT_MAX:
        _finite(N_charges, "charge count")
        raise DomainError(f"charge count must be at least 1, got {N_charges}")


def _charges_omega_p(omega_p: float, N_charges: int) -> float:
    """sqrt(N) omega_p, the plasma frequency of N_charges charges, checked
    finite as ModelParams checks its own."""
    if N_charges == 1:
        return omega_p
    return _finite(omega_p * math.sqrt(N_charges), "omega_p")


def _diagonalization(xi: float, omega, omega_p: float, p: Momentum, mass: float, hbar: float):
    """theta, sigma_sq and Omega of energy_level at the mode frequency omega:
    a float, or a float64 array for the three at each of its elements.  The
    array is computed with the same operations in the same order, so each
    element has the bits of the float at its value."""
    if omega_p == 0.0:
        return 0.0, 0.0, omega
    q = polarization_weight(xi)
    # At omega = 0 the divergence of Omega for xi > 0 is reported before
    # the positive-frequency requirement that theta and quad share.
    if q > 0.0:
        _require(omega, omega != 0.0, "effective frequency diverges at omega=0 for xi > 0")
    _require_omega(omega)
    w2 = _power(omega, 2)
    _require(omega, w2 != 0.0, "omega^2 underflows to 0 at omega = {}")
    wp2 = omega_p**2
    sqrt = np.sqrt if isinstance(omega, np.ndarray) else math.sqrt
    Omega = sqrt(w2 + wp2 * (1.0 + q * wp2 / w2))
    xi2 = xi**2
    half_wp2 = wp2 / (2.0 * omega)
    tanh_2theta = half_wp2 * (1.0 - xi2) / ((1.0 + xi2) * (omega + half_wp2))
    # not tanh_2theta >= 1: a NaN passes, and is reported as a level that is
    # not finite
    _require(
        (omega, omega_p), (tanh_2theta >= 1.0) ^ True,
        "tanh(2 theta) rounds to 1 at omega = {}, omega_p = {}: theta is not a finite float",
    )
    theta = 0.5 * _each(math.atanh, tanh_2theta)
    quad = _quad(hbar, omega_p, omega)
    scale = hbar * omega + quad
    _require(omega, scale != 0.0, "hbar omega + quad underflows to 0 at omega = {}")
    pref = _each(math.cosh, 2.0 * theta) / scale
    weighted = (
        p.p_major**2 * _each(math.exp, -2.0 * theta)
        + xi2 * p.p_minor**2 * _each(math.exp, 2.0 * theta)
    )
    sigma_sq = pref * pref * (quad / mass) / (1.0 + xi2) * weighted
    return theta, sigma_sq, Omega


def _energy(p: Momentum, n: int, mass: float, hbar: float, sigma_sq, Omega):
    """The level n of _diagonalization's sigma_sq and Omega, each a float or
    an array; raises if the level, sigma_sq or Omega is not finite."""
    energy = p.squared / (2.0 * mass) + hbar * Omega * (n + 0.5 - sigma_sq)
    isfinite = np.isfinite if isinstance(energy, np.ndarray) else math.isfinite
    _require(
        (Omega, sigma_sq, energy), isfinite(Omega) & isfinite(sigma_sq) & isfinite(energy),
        "level is not finite: Omega={}, sigma_sq={}, energy={}",
    )
    return energy


def energy_level(
    params: ModelParams, p: Momentum, n: int, N_charges: int = 1
) -> EnergyLevel:
    """Exact energy of excitation n at momentum p, with the three numbers of
    the diagonalization it rests on:

        Omega         = sqrt(omega^2 + omega_p^2 (1 + q omega_p^2/omega^2)),
        tanh(2 theta) = (omega_p^2/2omega) (1-xi^2)/(1+xi^2)
                        / (omega + omega_p^2/2omega),
        |sigma|^2     = [cosh(2theta)/(hbar omega + quad)]^2 * g^2/(1+xi^2)
                        * (p_major^2 e^{-2theta} + xi^2 p_minor^2 e^{2theta}),

    with q the polarization weight, quad = hbar omega_p^2/(2 omega) and
    g^2 = quad/m.  theta vanishes for circular polarization, only the
    in-plane momentum couples to sigma, and without coupling the three are
    omega, 0 and 0.

    For N_charges > 1 the plasma frequency is scaled by sqrt(N) and p is
    interpreted as the summed momentum of all charges.
    """
    _require_counts(n, N_charges)
    # The scaled omega_p is checked as ModelParams checks its own, without
    # building a second ModelParams per level: a level costs the same for
    # any charge count.
    omega_p = _charges_omega_p(params.omega_p, N_charges)
    if N_charges > 1:
        _require_squares(params.omega, omega_p)
    theta, sigma_sq, Omega = _diagonalization(
        params.xi, params.omega, omega_p, p, params.mass, params.hbar
    )
    energy = _energy(p, n, params.mass, params.hbar, sigma_sq, Omega)
    return EnergyLevel(n=n, theta=theta, sigma_sq=sigma_sq, energy=energy, Omega=Omega)


@np.errstate(all="ignore")
def energy_levels_array(
    xi: float,
    omega: np.ndarray,
    omega_p: float,
    p: Momentum,
    n: tuple[int, ...],
    N_charges: int = 1,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """energy_level at each mode frequency of the float64 array omega and
    each excitation number of n: theta, sigma_sq and Omega, one per
    frequency, and the energies, of shape (len(omega), len(n)).  Every value
    has the bits of energy_level(ModelParams(xi, w, omega_p, mass, hbar), p,
    n, N_charges) at its point, and where that or ModelParams would raise a
    DomainError, this raises it, with the message of its first such point
    within the first check that fails: the frequencies are checked by a
    ModelParams that holds them all.  The inputs every frequency reads are
    checked on an empty omega too, omega_p^2 at the charge count with a
    message of its own."""
    ModelParams(xi, omega, omega_p, mass, hbar)
    for level in n:
        _require_counts(level, N_charges)
    omega_p = _charges_omega_p(omega_p, N_charges)
    if omega_p > _SQUARE_MAX:  # omega_p^2, read at every frequency, so checked once
        raise DomainError(f"omega_p^2 overflows at {omega_p}")
    theta, sigma_sq, Omega = _diagonalization(xi, omega, omega_p, p, mass, hbar)
    energy = [_energy(p, level, mass, hbar, sigma_sq, Omega) for level in n]
    theta, sigma_sq = (np.broadcast_to(v, omega.shape) for v in (theta, sigma_sq))
    return theta, sigma_sq, Omega, np.stack(energy, axis=-1)


def energy_cp(params: ModelParams, p: Momentum, n: int) -> float:
    """Circular-polarization closed form, an independent check of
    energy_level at xi = 1:

        E = (2 p^2 omega^2 + p_perp^2 omega_p^2) / (2 m (2 omega^2 + omega_p^2))
            + hbar omega (1 + omega_p^2/(2 omega^2)) (1/2 + n).
    """
    _require_counts(n)
    omega = params.require_omega()
    w2 = omega * omega
    wp2 = params.omega_p**2
    kinetic = (2.0 * p.squared * w2 + p.p_perp**2 * wp2) / (
        2.0 * params.mass * (2.0 * w2 + wp2)
    )
    return kinetic + params.hbar * omega * (1.0 + wp2 / (2.0 * w2)) * (0.5 + n)


def energy_lp(params: ModelParams, p_magnitude: float, phi: float, n: int) -> float:
    """Linear-polarization closed form, an independent check of energy_level
    at xi = 0; phi is the angle between p and the polarization axis:

        E = p^2/(2m) (1 - omega_p^2 cos^2 phi / (omega^2 + omega_p^2))
            + hbar sqrt(omega^2 + omega_p^2) (1/2 + n).

    Well defined down to omega = 0, where the kinetic term vanishes for
    phi = 0 and the level is hbar omega_p (1/2 + n) independent of p.
    """
    _require_counts(n)
    w2 = params.omega**2
    wp2 = params.omega_p**2
    coupling = 0.0 if wp2 == 0.0 else wp2 * math.cos(phi) ** 2 / (w2 + wp2)
    kinetic = p_magnitude**2 / (2.0 * params.mass) * (1.0 - coupling)
    return kinetic + params.hbar * math.sqrt(w2 + wp2) * (0.5 + n)


def zero_point_minimum(
    xi: float, omega_p: float, hbar: float = 1.0
) -> tuple[float, float]:
    """Minimum over the mode frequency of the ground-state energy
    hbar Omega(omega)/2 at p = 0.

    Returns (omega_min, E_star) with omega_min = omega_p k_star and
    E_star = kappa hbar omega_p / 2, kappa being omega_star (see
    critical_points).  For xi = 0 the minimum sits at omega = 0 with
    E_star = hbar omega_p / 2 (a limit, not an error).
    """
    cp = critical_points(xi)
    _positive(omega_p, "plasma frequency")
    _positive(hbar, "hbar")
    return omega_p * cp.k_star, cp.omega_star * hbar * omega_p / 2.0
