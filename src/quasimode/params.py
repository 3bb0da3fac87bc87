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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Speed of light in hartree atomic units (inverse fine-structure constant).
ATOMIC_C = 137.035999

# The largest finite float.  Comparing with it rejects NaN, inf and the ints
# beyond the float range, which math.isfinite raises OverflowError for.
_FLOAT_MAX = sys.float_info.max


def validate_xi(xi: float) -> float:
    """Reject polarization parameters outside [0, 1]; no clamping."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"polarization parameter must lie in [0, 1], got {xi}")
    return float(xi)


def _finite(value: float, name: str) -> float:
    """Reject a NaN or infinite value, or an int too large for a float, by
    name.  Sign checks alone let NaN through, because every comparison with
    NaN is false."""
    if -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    if isinstance(value, int):
        raise DomainError(f"{name} is too large for a float")
    raise DomainError(f"{name} must be finite, got {value}")


def _positive(value: float, name: str, field: str | None = None) -> float:
    """Reject a value that is not finite and positive: a NaN, infinite or
    too large one by its field name (name unless given), any other by name."""
    if 0.0 < value <= _FLOAT_MAX:
        return value
    _finite(value, field or name)
    raise DomainError(f"{name} must be positive, got {value}")


def _nonnegative(value: float, name: str, field: str | None = None) -> float:
    """Reject a value that is not finite and nonnegative, as _positive does."""
    if 0.0 <= value <= _FLOAT_MAX:
        return value
    _finite(value, field or name)
    raise DomainError(f"{name} must be nonnegative, got {value}")


def _require(values, ok, message: str) -> None:
    """Raise DomainError(message.format(v)) for the first element v of values
    where ok is false: the array form of a kernel's entry or result check.
    ok may also be a bool, for the same check of a float; values may be a
    tuple, whose members (arrays, or floats shared by every element) fill
    the message's fields in turn."""
    if ok is True:
        return
    values = values if isinstance(values, tuple) else (values,)
    if isinstance(ok, np.ndarray):
        if not ok.size or ok[i := ok.argmin()]:
            return
        values = [np.broadcast_to(v, ok.shape)[i].item() for v in values]
    elif ok:
        return
    raise DomainError(message.format(*values))


def _any(mask: np.ndarray) -> bool:
    """mask.any(), at a fraction of its cost on the one-element arrays of
    the scalar kernels."""
    return mask.size > 0 and bool(mask[mask.argmax()])


def _finite_array(values: np.ndarray, name: str) -> None:
    """_finite for every element of values."""
    _require(values, np.isfinite(values), f"{name} must be finite, got {{}}")


def _plasma_wavenumber(omega_p: float, c: float) -> float:
    """The plasma wavenumber k_p = omega_p / c of a positive omega_p and c;
    a k_p that overflows is a DomainError."""
    k_p = omega_p / c
    if k_p > _FLOAT_MAX:
        raise DomainError(f"k_p = omega_p/c overflows (omega_p={omega_p}, c={c})")
    return k_p


def _reduced_wavenumber(k: np.ndarray, omega_p: float, c: float) -> np.ndarray:
    """k / k_p, in units of the plasma wavenumber k_p = omega_p / c of a
    positive omega_p; a k_p that overflows or underflows to 0 is a
    DomainError."""
    k_p = _plasma_wavenumber(omega_p, c)
    if k_p == 0.0:
        raise DomainError(f"k_p = omega_p/c underflows to 0 (omega_p={omega_p}, c={c})")
    return k / k_p


def _require_finite(obj: object, *names: str) -> None:
    """Reject NaN and infinite fields by name."""
    for name in names:
        _finite(getattr(obj, name), name)


def _require_squares(omega, omega_p: float) -> None:
    """Reject an omega or omega_p whose square overflows; omega may be an
    array, checked element by element."""
    _require(
        (omega, omega_p),
        (omega * omega <= _FLOAT_MAX) & (omega_p * omega_p <= _FLOAT_MAX),
        "omega^2 or omega_p^2 overflows at {}, {}",
    )


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
        _nonnegative(self.omega, "mode frequency", "omega")
        _nonnegative(self.omega_p, "plasma frequency", "omega_p")
        _require_squares(self.omega, self.omega_p)
        _positive(self.mass, "mass")
        _positive(self.hbar, "hbar")
        _positive(self.c, "speed of light", "c")

    def require_omega(self) -> float:
        return _require_omega(self.omega)


def _require_omega(omega):
    """Reject an omega, or an element of an omega array, that is not positive."""
    _require(omega, omega > 0.0, "operation requires a positive mode frequency omega")
    return omega


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
    quad = _quad(p.hbar, p.omega_p, p.require_omega())
    return DerivedConstants(g=math.sqrt(quad / p.mass), quad=quad)


def _quad(hbar: float, omega_p: float, omega):
    """The quadratic coupling energy hbar omega_p^2 / (2 omega), at a
    positive omega or at each element of an omega array."""
    return hbar * omega_p**2 / (2.0 * omega)
