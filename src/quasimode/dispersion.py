"""Quasimode dispersion relation, inverse wavenumber branches, and
propagation-regime classification.

All functions work in reduced units: x = k/k_p, y = Omega/omega_p.  The
dispersion is y(x) = sqrt(x^2 + 1 + q/x^2) with q = xi^2/(1+xi^2)^2; for
xi > 0 it diverges at both ends and has a global minimum at x* = q^(1/4).
Inverting it for a given frequency yields two branches

    x_pm = sqrt( (y^2 - 1 +- sqrt((y^2 - 1)^2 - 4 q)) / 2 ),

evaluated with principal complex square roots (argument in (-pi, pi],
nonnegative real part) at both nesting levels.  The principal convention
makes Im x_plus >= 0 and Im x_minus <= 0 in the damped window, and both
purely imaginary positive below the cutoff frequency; the minus branch
therefore carries a jump discontinuity at the cutoff.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import (
    _any, _nonnegative, _positive, _reduced_wavenumber, _require,
    polarization_weight, validate_xi,
)


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


class Regime(enum.Enum):
    TRAVELING = "traveling"
    DECAYING_TRAVELING = "decaying_traveling"
    EVANESCENT = "evanescent"


@dataclass(frozen=True)
class ComplexWavenumber:
    """A reduced wavenumber k/k_p on one branch, tagged with its regime."""

    value: complex
    branch: Branch
    regime: Regime


@dataclass(frozen=True)
class CriticalPoints:
    """Reduced critical points of the dispersion for a given xi, the one
    home of these closed forms.

    k_star      -- location of the global minimum, sqrt(xi/(1+xi^2)); times
                   omega_p, also the mode frequency that minimizes the
                   zero-point energy
    omega_star  -- frequency at the minimum, (1+xi)/sqrt(1+xi^2); also the
                   ellipticity factor kappa in [1, sqrt(2)] of the plate
                   force at the minimum and of E* = kappa hbar omega_p / 2
    omega_tilde -- cutoff below which waves are fully evanescent,
                   (1-xi)/sqrt(1+xi^2)
    """

    k_star: float
    omega_star: float
    omega_tilde: float


def omega_of_k(x: float, xi: float) -> float:
    """Reduced quasimode frequency y = sqrt(x^2 + 1 + q/x^2).

    Singular at x = 0 for xi > 0; for xi = 0 the value at x = 0 is 1
    (the plasma frequency).
    """
    return omega_of_k_array(np.array([x], dtype=float), xi).item()


@np.errstate(all="ignore")
def omega_of_k_array(x: np.ndarray, xi: float) -> np.ndarray:
    """omega_of_k at every element of x; a DomainError names the first
    element failing the earliest check."""
    q = polarization_weight(xi)
    _nonnegative(x, "reduced wavenumber")
    zero = x == 0.0
    if q > 0.0:
        _require(x, ~zero, "dispersion is singular at k=0 for xi > 0")
    x2 = x * x
    _require(x, (x2 != 0.0) | zero, "x^2 underflows to 0 at x = {}")
    y = np.sqrt(x2 + 1.0 + q / x2)
    if q == 0.0:
        y[zero] = 1.0
    _require(x, np.isfinite(y), "frequency is not a finite float at x = {}")
    return y


def critical_points(xi: float) -> CriticalPoints:
    validate_xi(xi)
    one_plus = 1.0 + xi * xi
    return CriticalPoints(
        k_star=math.sqrt(xi / one_plus),
        omega_star=(1.0 + xi) / math.sqrt(one_plus),
        omega_tilde=(1.0 - xi) / math.sqrt(one_plus),
    )


# Regime codes index this tuple.
REGIMES = (Regime.TRAVELING, Regime.DECAYING_TRAVELING, Regime.EVANESCENT)


def _regimes(y: np.ndarray, cp: CriticalPoints) -> tuple[np.ndarray, np.ndarray]:
    """The masks of the traveling regime and of the damped window."""
    traveling = y >= cp.omega_star
    return traveling, (y > cp.omega_tilde) > traveling


def _regime_codes(traveling: np.ndarray, damped: np.ndarray) -> np.ndarray:
    return np.where(traveling, 0, 2 - damped)


def _branch_squares(y: np.ndarray, xi: float) -> tuple[np.ndarray, ...]:
    """Squared branches s_pm = x_pm^2 at reduced frequencies y >= 0, behind
    both k_branches (x = sqrt(s)) and optics.dielectric (zeta = s / y^2).
    Returns Re s and Im s, each of shape (2, n) with the plus branch in row 0,
    and the masks of _regimes.  At the double root y == omega_tilde, s_minus
    carries a -0.0 imaginary part: its limit from above, where Im s_minus < 0.
    Floating-point exceptions must be ignored."""
    q = polarization_weight(xi)
    cp = critical_points(xi)
    traveling, damped = _regimes(y, cp)
    a = y * y - 1.0
    disc = a * a - 4.0 * q
    # The discriminant is >= 0 outside the damped window; clamp rounding
    # noise so both squares stay exactly real (disc is never -0.0, so
    # np.maximum clamps it as Python's max does).  The larger-magnitude
    # square is (a + inner)/2, and a >= 0 when traveling (y >= omega_star >= 1),
    # or (a - inner)/2, and a <= 0 when evanescent (y <= omega_tilde <= 1).
    # The smaller one comes from the product law s_plus s_minus = q, which
    # sidesteps the a -+ inner cancellation.
    inner = np.sqrt(np.maximum(disc, 0.0))
    big = a + np.where(traveling, inner, -inner)
    nonzero = big != 0.0
    small = np.divide(2.0 * q, big, out=np.zeros(big.shape), where=nonzero)
    pair = np.array((big / 2.0, small))
    re = np.where(traveling, pair, pair[::-1])
    im = np.zeros(re.shape)
    if _any(damped):
        # Strictly inside the damped window the two branches are exact
        # complex conjugates, s_plus = (a + 1j*sqrt(-disc)) / 2, the minus
        # branch derived from the plus one so that the structure holds even
        # when the discriminant rounds to zero.  These are the parts Python's
        # complex arithmetic gives: + 0.0 turns a -0.0 root into 0.0.
        root = (np.sqrt(np.maximum(-disc, 0.0)) + 0.0) / 2.0
        re = np.where(damped, a / 2.0, re)
        im = np.where(damped, np.array((root, -root)), im)
    if q > 0.0:
        # Evanescent: omega_tilde and omega_star round to the same float
        # when xi is tiny.
        double = (y == cp.omega_tilde) > traveling
        if _any(double):
            re[:, double] = -(xi / (1.0 + xi * xi))
            im[1, double] = -0.0
    return re, im, traveling, damped


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array of these parts, signed zeros and all."""
    z = np.empty(re.shape, dtype=complex)
    z.real, z.imag = re, im
    return z


def _real_root(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """cmath.sqrt of squares with zero imaginary part, without the bits that
    cmath.sqrt drops for |s| just above the subnormal range."""
    root = np.sqrt(np.abs(re))
    positive = re > 0.0
    return _complex(np.where(positive, root, 0.0), np.where(positive, 0.0, np.copysign(root, im)))


# Below it, cmath.sqrt rescales both parts of its argument; and up to this
# many elements, it is cheaper than the fixed cost of _csqrt's numpy operations.
_DBL_MIN = sys.float_info.min
_CSQRT_PER_ELEMENT = 4


def _cmath_sqrt(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """cmath.sqrt at each element of re + i im, as a complex array."""
    roots = map(cmath.sqrt, _complex(re, im).ravel().tolist())
    return np.fromiter(roots, complex, re.size).reshape(re.shape)


def _csqrt(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """cmath.sqrt(complex(re, im)) at each element of the finite float64
    arrays re and im, of one shape, as a complex array.  This is CPython's
    cmath_sqrt_impl (Modules/cmathmodule.c) in array operations, each
    correctly rounded or libm's hypot (np.hypot), so every bit is
    cmath.sqrt's.  Where both parts are below DBL_MIN (zero included),
    cmath_sqrt_impl first scales them by a power of two: cmath.sqrt itself
    runs there, as it does on every element of a small array.
    Floating-point exceptions must be ignored."""
    if re.size <= _CSQRT_PER_ELEMENT:
        return _cmath_sqrt(re, im)
    ax, ay = np.abs(re), np.abs(im)
    tiny = (ax < _DBL_MIN) & (ay < _DBL_MIN)
    # s = 2 sqrt(ax/8 + hypot(ax/8, ay/8)) and d = ay/(2 s), in place; the
    # root is (s, d) for re >= 0, else (d, s), with the sign of im
    ax /= 8.0
    s = np.hypot(ax, ay / 8.0)
    s += ax
    del ax
    np.sqrt(s, out=s)
    s *= 2.0
    d = np.divide(ay, 2.0 * s, out=ay)
    negative = re < 0.0
    root = np.empty(re.shape, dtype=complex)
    root.real = np.where(negative, d, s)
    np.copyto(d, s, where=negative)
    del s
    root.imag = np.copysign(d, im, out=d)
    if tiny.any():
        root[tiny] = _cmath_sqrt(re[tiny], im[tiny])
    return root


def k_branches(y: float, xi: float) -> tuple[ComplexWavenumber, ComplexWavenumber]:
    """Both complex wavenumber branches x_pm at reduced frequency y.

    At y == omega_tilde the minus branch takes the value of its limit from
    above (-i q^(1/4)); the limit from below has the opposite sign.
    """
    x, codes = k_branches_array(np.array([y], dtype=float), xi)
    regime = REGIMES[codes[0]]
    return (
        ComplexWavenumber(value=x[0, 0].item(), branch=Branch.PLUS, regime=regime),
        ComplexWavenumber(value=x[1, 0].item(), branch=Branch.MINUS, regime=regime),
    )


@np.errstate(all="ignore")
def k_branches_array(y: np.ndarray, xi: float) -> tuple[np.ndarray, np.ndarray]:
    """k_branches at every element of y: the complex wavenumbers, shape
    (2, n) with x_plus in row 0, and the regime codes, which index REGIMES.
    A DomainError names the first element failing the earliest check."""
    _nonnegative(y, "reduced frequency")
    re, im, traveling, damped = _branch_squares(y, xi)
    x = _real_root(re, im)
    if _any(damped):
        # numpy's complex sqrt differs from cmath.sqrt in the last bit where
        # s is purely imaginary (y = 1), so the roots are cmath.sqrt's own,
        # from its transcription _csqrt.
        x[0, damped] = roots = _csqrt(re[0, damped], im[0, damped])
        x[1, damped] = roots.conjugate()
    finite = np.isfinite(x[0]) & np.isfinite(x[1])
    _require(y, finite, "wavenumber is not a finite float at y = {}")
    return x, _regime_codes(traveling, damped)


def omega_physical(k: float, omega_p: float, xi: float, c: float = 1.0) -> float:
    """Dimensionful dispersion Omega(k) = omega_p * y(k/k_p); restores the
    free-photon line c*k as omega_p -> 0."""
    return omega_physical_array(np.array([k], dtype=float), omega_p, xi, c).item()


@np.errstate(all="ignore")
def omega_physical_array(k: np.ndarray, omega_p: float, xi: float, c: float = 1.0) -> np.ndarray:
    """omega_physical at every element of k."""
    _positive(c, "speed of light")
    _nonnegative(omega_p, "plasma frequency")
    if omega_p == 0.0:
        validate_xi(xi)
        return c * _nonnegative(k, "wavenumber")
    return omega_p * omega_of_k_array(_reduced_wavenumber(k, omega_p, c), xi)
