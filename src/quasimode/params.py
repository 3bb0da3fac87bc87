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

import numpy as np

from .errors import DomainError

# Speed of light in hartree atomic units (inverse fine-structure constant).
ATOMIC_C = 137.035999


def validate_xi(xi: float) -> float:
    """Reject polarization parameters outside [0, 1]; no clamping."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"polarization parameter must lie in [0, 1], got {xi}")
    return float(xi)


def _finite(value: float, name: str) -> float:
    """Reject a NaN or infinite value by name.  Sign checks alone let NaN
    through, because every comparison with NaN is false."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def _require(values: np.ndarray, ok: np.ndarray, message: str) -> None:
    """Raise DomainError(message.format(v)) for the first element v of values
    where ok is false: the array form of a kernel's entry or result check."""
    if ok.size and not ok[i := ok.argmin()]:
        raise DomainError(message.format(values[i].item()))


def _any(mask: np.ndarray) -> bool:
    """mask.any(), at a fraction of its cost on the one-element arrays of
    the scalar kernels."""
    return mask.size > 0 and bool(mask[mask.argmax()])


def _finite_array(values: np.ndarray, name: str) -> None:
    """_finite for every element of values."""
    _require(values, np.isfinite(values), f"{name} must be finite, got {{}}")


def _divide(values: np.ndarray, divisor: float) -> np.ndarray:
    """values / divisor, raising ZeroDivisionError for a zero divisor as
    Python's float division does, where numpy would return inf."""
    if divisor == 0.0:
        raise ZeroDivisionError("float division by zero")
    return values / divisor


def _require_finite(obj: object, *names: str) -> None:
    """Reject NaN and infinite fields by name."""
    for name in names:
        _finite(getattr(obj, name), name)


def _require_squares(omega: float, omega_p: float) -> None:
    """Reject an omega or omega_p whose square overflows."""
    if math.isinf(omega * omega) or math.isinf(omega_p * omega_p):
        raise DomainError(f"omega^2 or omega_p^2 overflows at {omega}, {omega_p}")


def polarization_weight(xi: float) -> float:
    """q = xi^2 / (1 + xi^2)^2, the ellipticity weight of the singular
    dispersion term.  q in [0, 1/4]; 0 for linear, 1/4 for circular."""
    validate_xi(xi)
    return xi * xi / (1.0 + xi * xi) ** 2


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
        _require_squares(self.omega, self.omega_p)
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

    def require_omega(self) -> float:
        if self.omega <= 0.0:
            raise DomainError("operation requires a positive mode frequency omega")
        return self.omega


@dataclass(frozen=True)
class DerivedConstants:
    """The coupling constants of the model parameters.

    g    -- linear coupling strength, sqrt(hbar omega_p^2 / (2 m omega));
            multiplies the momentum in the interaction term
    quad -- quadratic coupling energy, hbar omega_p^2 / (2 omega);
            satisfies m g^2 = quad identically
    """

    g: float
    quad: float


def derived_constants(p: ModelParams) -> DerivedConstants:
    """Compute the coupling constants; requires omega > 0."""
    quad = _quad(p, p.omega_p)
    return DerivedConstants(g=math.sqrt(quad / p.mass), quad=quad)


def _quad(p: ModelParams, omega_p: float) -> float:
    """The quadratic coupling energy of p with its plasma frequency set to
    omega_p; requires omega > 0."""
    return p.hbar * omega_p**2 / (2.0 * p.require_omega())
