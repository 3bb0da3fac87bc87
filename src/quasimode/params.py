"""Parameter model, unit conventions, and derived scalar constants.

Two unit conventions are used throughout the package:

* reduced units -- frequencies in units of the plasma frequency, wavenumbers
  in units of the plasma wavenumber k_p, velocities in units of c.  The
  dispersion/optics/kinematics modules work exclusively in these.
* atomic units -- hbar = m = e = 1, with c = 1 ("natural" mode, default) or
  c = 137.035999 ("atomic" mode).  The spectrum, plate-force, and Fock-basis
  modules are dimensionful and use these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

# Speed of light in hartree atomic units (inverse fine-structure constant).
ATOMIC_C = 137.035999


def validate_xi(xi: float) -> float:
    """Reject polarization parameters outside [0, 1]; no clamping."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"polarization parameter must lie in [0, 1], got {xi}")
    return float(xi)


def _require_finite(obj: object, *names: str) -> None:
    """Reject NaN and infinite fields by name.  Sign checks alone let NaN
    through, because every comparison with NaN is false."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def polarization_weight(xi: float) -> float:
    """q = xi^2 / (1 + xi^2)^2, the ellipticity weight of the singular
    dispersion term.  q in [0, 1/4]; 0 for linear, 1/4 for circular."""
    validate_xi(xi)
    return xi * xi / (1.0 + xi * xi) ** 2


def ellipticity_kappa(xi: float) -> float:
    """kappa = (1 + xi) / sqrt(1 + xi^2), in [1, sqrt(2)].

    Ratio of the dispersion minimum to the plasma frequency; also the
    polarization factor of the zero-point plate force.
    """
    validate_xi(xi)
    return (1.0 + xi) / math.sqrt(1.0 + xi * xi)


def plasma_frequency_from_volume(e: float, m: float, V: float) -> float:
    """Plasma frequency of a charge e of mass m smeared over a volume V:
    omega_p = sqrt(4 pi e^2 / (m V))."""
    if e < 0.0:
        raise DomainError(f"charge must be nonnegative, got {e}")
    if m <= 0.0:
        raise DomainError(f"mass must be positive, got {m}")
    if V <= 0.0:
        raise DomainError(f"volume must be positive, got {V}")
    return math.sqrt(4.0 * math.pi * e * e / (m * V))


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of one charge coupled to one radiation mode.

    omega may be left at 0.0 when only frequency-independent quantities are
    needed; operations that require a driving frequency raise DomainError.
    """

    xi: float
    omega: float = 0.0
    omega_p: float = 0.0
    mass: float = 1.0
    hbar: float = 1.0
    c: float = 1.0

    def __post_init__(self) -> None:
        validate_xi(self.xi)
        _require_finite(self, "omega", "omega_p", "mass", "hbar", "c")
        if math.isinf(self.omega * self.omega) or math.isinf(self.omega_p * self.omega_p):
            raise DomainError(f"omega^2 or omega_p^2 overflows at {self.omega}, {self.omega_p}")
        if self.omega < 0.0:
            raise DomainError(f"mode frequency must be nonnegative, got {self.omega}")
        if self.omega_p < 0.0:
            raise DomainError(f"plasma frequency must be nonnegative, got {self.omega_p}")
        if self.mass <= 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if self.hbar <= 0.0:
            raise DomainError(f"hbar must be positive, got {self.hbar}")
        if self.c <= 0.0:
            raise DomainError(f"speed of light must be positive, got {self.c}")

    @classmethod
    def from_charge_volume(
        cls,
        xi: float,
        omega: float = 0.0,
        *,
        e: float = 1.0,
        mass: float = 1.0,
        volume: float = 1.0,
        hbar: float = 1.0,
        c: float = 1.0,
    ) -> "ModelParams":
        """Alternative constructor: supply (e, m, V) instead of omega_p."""
        omega_p = plasma_frequency_from_volume(e, mass, volume)
        return cls(xi=xi, omega=omega, omega_p=omega_p, mass=mass, hbar=hbar, c=c)

    def require_omega(self) -> float:
        if self.omega <= 0.0:
            raise DomainError("operation requires a positive mode frequency omega")
        return self.omega


@dataclass(frozen=True)
class DerivedConstants:
    """Frequently used scalar combinations of the model parameters.

    k_p   -- plasma wavenumber omega_p / c
    q     -- polarization weight xi^2/(1+xi^2)^2
    kappa -- (1+xi)/sqrt(1+xi^2)
    g     -- linear coupling strength, sqrt(hbar omega_p^2 / (2 m omega));
             multiplies the momentum in the interaction term
    quad  -- quadratic coupling energy, hbar omega_p^2 / (2 omega);
             satisfies m g^2 = quad identically
    """

    k_p: float
    q: float
    kappa: float
    g: float
    quad: float


def derived_constants(p: ModelParams) -> DerivedConstants:
    """Compute all derived constants; requires omega > 0 (g and quad)."""
    omega = p.require_omega()
    quad = p.hbar * p.omega_p**2 / (2.0 * omega)
    g = math.sqrt(quad / p.mass)
    return DerivedConstants(
        k_p=p.omega_p / p.c,
        q=polarization_weight(p.xi),
        kappa=ellipticity_kappa(p.xi),
        g=g,
        quad=quad,
    )
