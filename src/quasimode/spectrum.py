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

from .errors import DomainError
from .params import (
    ModelParams,
    ellipticity_kappa,
    polarization_weight,
    _require_finite,
    validate_xi,
)


@dataclass(frozen=True)
class Momentum:
    """Charge momentum in the polarization frame (atomic units)."""

    p_major: float = 0.0
    p_minor: float = 0.0
    p_perp: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "p_major", "p_minor", "p_perp")

    @property
    def squared(self) -> float:
        return self.p_major**2 + self.p_minor**2 + self.p_perp**2

    @property
    def magnitude(self) -> float:
        return math.sqrt(self.squared)


@dataclass(frozen=True)
class EnergyLevel:
    """One exact level: E = p^2/2m + hbar*Omega*(n + 1/2 - sigma_sq)."""

    n: int
    theta: float
    sigma_sq: float
    energy: float
    Omega: float


def bogoliubov_theta(params: ModelParams) -> float:
    """Hyperbolic-rotation angle removing the quadratic ladder terms:

        tanh(2 theta) = (omega_p^2/2omega) (1-xi^2)/(1+xi^2)
                        / (omega + omega_p^2/2omega).

    Zero for circular polarization and for vanishing coupling.
    """
    if params.omega_p == 0.0:
        return 0.0
    omega = params.require_omega()
    half_wp2 = params.omega_p**2 / (2.0 * omega)
    xi2 = params.xi**2
    ratio = half_wp2 * (1.0 - xi2) / ((1.0 + xi2) * (omega + half_wp2))
    return 0.5 * math.atanh(ratio)


def effective_frequency(params: ModelParams) -> float:
    """Quasimode frequency Omega = sqrt(omega^2 + omega_p^2 (1 + q omega_p^2/omega^2))."""
    if params.omega_p == 0.0:
        return params.omega
    q = polarization_weight(params.xi)
    if params.omega == 0.0:
        if q > 0.0:
            raise DomainError("effective frequency diverges at omega=0 for xi > 0")
        return params.omega_p
    w2 = params.omega**2
    wp2 = params.omega_p**2
    return math.sqrt(w2 + wp2 * (1.0 + q * wp2 / w2))


def displacement_sigma_sq(params: ModelParams, p: Momentum) -> float:
    """|sigma|^2 of the level-lowering displacement.

    Only the in-plane momentum components couple:

        |sigma|^2 = [cosh(2theta)/(hbar omega + quad)]^2 * g^2/(1+xi^2)
                    * (p_major^2 e^{-2theta} + xi^2 p_minor^2 e^{2theta}),

    with quad = hbar omega_p^2/(2 omega) and g^2 = quad/m.
    """
    if params.omega_p == 0.0:
        return 0.0
    omega = params.require_omega()
    quad = params.hbar * params.omega_p**2 / (2.0 * omega)
    g_sq = quad / params.mass
    theta = bogoliubov_theta(params)
    pref = math.cosh(2.0 * theta) / (params.hbar * omega + quad)
    xi2 = params.xi**2
    weighted = (
        p.p_major**2 * math.exp(-2.0 * theta)
        + xi2 * p.p_minor**2 * math.exp(2.0 * theta)
    )
    return pref * pref * g_sq / (1.0 + xi2) * weighted


def energy_level(
    params: ModelParams, p: Momentum, n: int, N_charges: int = 1
) -> EnergyLevel:
    """Exact energy of excitation n at momentum p.

    For N_charges > 1 the plasma frequency is scaled by sqrt(N) and p is
    interpreted as the summed momentum of all charges.
    """
    if n < 0:
        raise DomainError(f"excitation number must be nonnegative, got {n}")
    if N_charges < 1:
        raise DomainError(f"charge count must be at least 1, got {N_charges}")
    if N_charges > 1:
        params = ModelParams(
            xi=params.xi,
            omega=params.omega,
            omega_p=params.omega_p * math.sqrt(N_charges),
            mass=params.mass,
            hbar=params.hbar,
            c=params.c,
        )
    Omega = effective_frequency(params)
    theta = bogoliubov_theta(params)
    sigma_sq = displacement_sigma_sq(params, p)
    energy = p.squared / (2.0 * params.mass) + params.hbar * Omega * (
        n + 0.5 - sigma_sq
    )
    return EnergyLevel(n=n, theta=theta, sigma_sq=sigma_sq, energy=energy, Omega=Omega)


def energy_cp(params: ModelParams, p: Momentum, n: int) -> float:
    """Circular-polarization closed form, an independent check of
    energy_level at xi = 1:

        E = (2 p^2 omega^2 + p_perp^2 omega_p^2) / (2 m (2 omega^2 + omega_p^2))
            + hbar omega (1 + omega_p^2/(2 omega^2)) (1/2 + n).
    """
    if n < 0:
        raise DomainError(f"excitation number must be nonnegative, got {n}")
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
    if n < 0:
        raise DomainError(f"excitation number must be nonnegative, got {n}")
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

    Returns (omega_min, E_star) with omega_min = omega_p sqrt(xi/(1+xi^2))
    and E_star = kappa hbar omega_p / 2.  For xi = 0 the minimum sits at
    omega = 0 with E_star = hbar omega_p / 2 (a limit, not an error).
    """
    validate_xi(xi)
    if omega_p <= 0.0:
        raise DomainError(f"plasma frequency must be positive, got {omega_p}")
    omega_min = omega_p * math.sqrt(xi / (1.0 + xi * xi))
    e_star = ellipticity_kappa(xi) * hbar * omega_p / 2.0
    return omega_min, e_star
