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

from .dispersion import critical_points
from .errors import DomainError
from .params import (
    ModelParams,
    _finite,
    _quad,
    _require_finite,
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
        _require_finite(self, "p_major", "p_minor", "p_perp")
        try:
            squared = self.squared
        except OverflowError:
            squared = math.inf
        if not math.isfinite(squared):
            raise DomainError(f"squared momentum overflows for {self}")

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
    if n < 0:
        raise DomainError(f"excitation number must be nonnegative, got {n}")
    if N_charges < 1:
        raise DomainError(f"charge count must be at least 1, got {N_charges}")
    omega_p = params.omega_p
    if N_charges > 1:
        # The scaled omega_p is checked as ModelParams checks its own, without
        # building a second ModelParams per level: a level costs the same
        # for any charge count.
        omega_p = _finite(omega_p * math.sqrt(N_charges), "omega_p")
        _require_squares(params.omega, omega_p)
    if omega_p == 0.0:
        Omega, theta, sigma_sq = params.omega, 0.0, 0.0
    else:
        q = polarization_weight(params.xi)
        # At omega = 0 the divergence of Omega for xi > 0 is reported before
        # the positive-frequency requirement that theta and quad share.
        if params.omega == 0.0 and q > 0.0:
            raise DomainError("effective frequency diverges at omega=0 for xi > 0")
        omega = params.require_omega()
        w2 = omega**2
        if w2 == 0.0:
            raise DomainError(f"omega^2 underflows to 0 at omega = {omega}")
        wp2 = omega_p**2
        Omega = math.sqrt(w2 + wp2 * (1.0 + q * wp2 / w2))
        xi2 = params.xi**2
        half_wp2 = wp2 / (2.0 * omega)
        tanh_2theta = half_wp2 * (1.0 - xi2) / ((1.0 + xi2) * (omega + half_wp2))
        if tanh_2theta >= 1.0:
            raise DomainError(
                f"tanh(2 theta) rounds to 1 at omega = {omega}, omega_p = {omega_p}:"
                " theta is not a finite float"
            )
        theta = 0.5 * math.atanh(tanh_2theta)
        quad = _quad(params, omega_p)
        pref = math.cosh(2.0 * theta) / (params.hbar * omega + quad)
        weighted = (
            p.p_major**2 * math.exp(-2.0 * theta)
            + xi2 * p.p_minor**2 * math.exp(2.0 * theta)
        )
        sigma_sq = pref * pref * (quad / params.mass) / (1.0 + xi2) * weighted
    energy = p.squared / (2.0 * params.mass) + params.hbar * Omega * (
        n + 0.5 - sigma_sq
    )
    if not (math.isfinite(Omega) and math.isfinite(sigma_sq) and math.isfinite(energy)):
        raise DomainError(
            f"level is not finite: Omega={Omega}, sigma_sq={sigma_sq}, energy={energy}"
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

    Returns (omega_min, E_star) with omega_min = omega_p k_star and
    E_star = kappa hbar omega_p / 2, kappa being omega_star (see
    critical_points).  For xi = 0 the minimum sits at omega = 0 with
    E_star = hbar omega_p / 2 (a limit, not an error).
    """
    cp = critical_points(xi)
    if _finite(omega_p, "plasma frequency") <= 0.0:
        raise DomainError(f"plasma frequency must be positive, got {omega_p}")
    return omega_p * cp.k_star, cp.omega_star * hbar * omega_p / 2.0
