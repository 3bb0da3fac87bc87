"""Parameter model, unit conventions, and derived scalar constants.

Two unit conventions are used throughout the package:

* reduced units -- frequencies in units of the plasma frequency, wavenumbers
  in units of the plasma wavenumber k_p, velocities in units of c.  The
  dispersion/optics/kinematics modules work exclusively in these.
* atomic units -- hbar = m = e = 1, with c = 1 ("natural" mode, default) or
  c = 137.035999 ("atomic" mode).  The spectrum, plate-force, and Fock-basis
  modules are dimensionful and use these.

Inputs are checked by six helpers, each raising a DomainError that names the
value it rejects: _require (the first element where a mask is false),
_finite (NaN, inf, or an int too large for a float), _positive and
_nonnegative (_finite by field name, then the sign), _require_squares (a
square that overflows) and _require_omega (an omega that is not positive).
Each takes a float, an int, a numpy scalar or an array, 0-d included.  An
array is checked finite over all of its elements before its sign, and the
first element that fails is named.
"""

from __future__ import annotations

import itertools
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
# The largest int whose square is at most _FLOAT_MAX.  It lies strictly
# between T = sqrt(_FLOAT_MAX), the largest float whose square rounds to a
# finite float, and the next float, and numpy compares with it as with T.  So
# |x| <= _SQUARE_MAX holds exactly where x*x does not overflow, for a float,
# and where x*x <= _FLOAT_MAX, for an int: no product, no overflow to ignore.
_SQUARE_MAX = math.isqrt(int(_FLOAT_MAX))


def validate_xi(xi: float) -> float:
    """Reject polarization parameters outside [0, 1]; no clamping."""
    if not 0.0 <= xi <= 1.0:
        raise DomainError(f"polarization parameter must lie in [0, 1], got {xi}")
    return float(xi)


def _finite(value, name: str):
    """Reject a NaN or infinite value, or an int too large for a float, by
    name; an array is rejected as its first element that is.  Sign checks
    alone let NaN through, because every comparison with NaN is false."""
    if isinstance(value, np.ndarray):
        _require(value, np.isfinite(value), f"{name} must be finite, got {{}}")
        return value
    if -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return value
    if isinstance(value, int):
        raise DomainError(f"{name} is too large for a float")
    raise DomainError(f"{name} must be finite, got {value}")


def _positive(value, name: str, field: str | None = None):
    """Reject a value that is not finite and positive: a NaN, infinite or
    too large one by its field name (name unless given), any other by name."""
    try:
        if 0.0 < value <= _FLOAT_MAX:
            return value
    except ValueError:  # an array has no truth value unless of one element
        pass
    _finite(value, field or name)
    _require(value, value > 0.0, f"{name} must be positive, got {{}}")
    return value


def _nonnegative(value, name: str, field: str | None = None):
    """Reject a value that is not finite and nonnegative, as _positive does."""
    try:
        if 0.0 <= value <= _FLOAT_MAX:
            return value
    except ValueError:
        pass
    _finite(value, field or name)
    _require(value, value >= 0.0, f"{name} must be nonnegative, got {{}}")
    return value


def _require(values, ok, message: str) -> None:
    """Raise DomainError(message.format(v)) for the first element v of values
    where ok is false: the array form of a kernel's entry or result check.
    ok may also be a bool, for the same check of a float; values may be a
    tuple, whose members (arrays, or values shared by every element) fill
    the message's fields in turn.  A kernel whose float path must stay cheap
    calls it only if ok is not True, saving the call."""
    if ok is True:
        return
    values = values if isinstance(values, tuple) else (values,)
    if isinstance(ok, np.ndarray):
        if not ok.size or ok[i := ok.argmin()]:
            return
        values = [
            np.broadcast_to(v, ok.shape)[i].item() if isinstance(v, np.ndarray) else v
            for v in values
        ]
    elif ok:
        return
    raise DomainError(message.format(*values))


def _any(mask: np.ndarray) -> bool:
    """mask.any(), at a fraction of its cost on the one-element arrays of
    the scalar kernels."""
    return mask.size > 0 and bool(mask[mask.argmax()])


# Elements per slice of a libm map: the Python floats of one slice are all
# that a map holds at a time, whatever the array's size.  Table blocks are
# slices of at most as many points (tables.tabulate), 8 output chunks.
_SLICE = 8192


def _mapped(f, x: np.ndarray) -> np.ndarray:
    """The array of x's shape of the floats f returns for lists of the
    elements of x, in row order: one list if x has at most _SLICE elements,
    else one per slice of _SLICE elements, the results chained."""
    flat = x.ravel()
    if flat.size <= _SLICE:
        values = f(flat.tolist())
    else:
        slices = (flat[start:start + _SLICE].tolist() for start in range(0, flat.size, _SLICE))
        values = itertools.chain.from_iterable(map(f, slices))
    return np.fromiter(values, float, flat.size).reshape(x.shape)


def _each(f, x):
    """f(x) for a float; for an array, f of each element.  The math module's
    functions round as libm does, and numpy's own exp, cosh and arctanh do
    not always."""
    if isinstance(x, np.ndarray):
        return _mapped(lambda values: map(f, values), x)
    return f(x)


def _power(x, y: float):
    """x**y as Python computes it, with libm's pow, for a float or each
    element of an array; inf where Python raises OverflowError.  numpy
    squares by x*x, which rounds differently for about one float in a
    thousand.  An array maps the builtin pow, which is x**y, with no Python
    frame per element, and only once an element overflows this function."""
    if isinstance(x, np.ndarray):
        powers = itertools.repeat(y)
        try:
            return _mapped(lambda values: map(pow, values, powers), x)
        except OverflowError:
            return _mapped(lambda values: map(_power, values, powers), x)
    if isinstance(x, np.floating):  # numpy's scalar power warns where Python's raises
        x = float(x)
    try:
        return x**y
    except OverflowError:
        return math.inf


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


def _require_squares(omega, omega_p) -> None:
    """Reject an omega or omega_p whose square overflows; either may be an
    array, checked element by element."""
    _require(
        (omega, omega_p),
        (abs(omega) <= _SQUARE_MAX) & (abs(omega_p) <= _SQUARE_MAX),
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
    omega may also be a float64 array, for the array kernels: each element
    is checked as a float is, and the first to fail the earliest check named.
    """

    xi: float
    omega: float | np.ndarray = 0.0
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
