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
from dataclasses import dataclass

from .errors import DomainError
from .params import _finite, polarization_weight, validate_xi


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
    q = polarization_weight(xi)
    if _finite(x, "reduced wavenumber") < 0.0:
        raise DomainError(f"reduced wavenumber must be nonnegative, got {x}")
    if x == 0.0:
        if q > 0.0:
            raise DomainError("dispersion is singular at k=0 for xi > 0")
        return 1.0
    x2 = x * x
    if x2 == 0.0:
        raise DomainError(f"x^2 underflows to 0 at x = {x}")
    y = math.sqrt(x2 + 1.0 + q / x2)
    if not math.isfinite(y):
        raise DomainError(f"frequency is not a finite float at x = {x}")
    return y


def critical_points(xi: float) -> CriticalPoints:
    validate_xi(xi)
    one_plus = 1.0 + xi * xi
    return CriticalPoints(
        k_star=math.sqrt(xi / one_plus),
        omega_star=(1.0 + xi) / math.sqrt(one_plus),
        omega_tilde=(1.0 - xi) / math.sqrt(one_plus),
    )


def classify_regime(y: float, xi: float) -> Regime:
    """Traveling for y >= omega_star, decaying-traveling in between,
    evanescent for y <= omega_tilde."""
    if _finite(y, "reduced frequency") < 0.0:
        raise DomainError(f"reduced frequency must be nonnegative, got {y}")
    return _regime(y, critical_points(xi))


def _regime(y: float, cp: CriticalPoints) -> Regime:
    if y >= cp.omega_star:
        return Regime.TRAVELING
    if y > cp.omega_tilde:
        return Regime.DECAYING_TRAVELING
    return Regime.EVANESCENT


def _branch_squares(y: float, xi: float) -> tuple[complex, complex, Regime]:
    """Squared branches s_pm = x_pm^2 and the regime at reduced frequency
    y >= 0, behind both k_branches (x = sqrt(s)) and optics.dielectric
    (zeta = s / y^2).  At the double root y == omega_tilde, s_minus carries
    a -0.0 imaginary part: its limit from above, where Im s_minus < 0."""
    q = polarization_weight(xi)
    cp = critical_points(xi)
    regime = _regime(y, cp)

    if q > 0.0 and regime is Regime.EVANESCENT and y == cp.omega_tilde:
        s = -(xi / (1.0 + xi * xi))
        return complex(s, 0.0), complex(s, -0.0), regime

    a = y * y - 1.0
    disc = a * a - 4.0 * q
    if regime is Regime.DECAYING_TRAVELING:
        # Strictly inside the damped window the two branches are exact
        # complex conjugates; deriving the minus branch from the plus one
        # keeps that structure even when the discriminant rounds to zero.
        s_plus = (a + 1j * math.sqrt(max(-disc, 0.0))) / 2.0
        return s_plus, s_plus.conjugate(), regime
    # The discriminant is >= 0 outside the damped window; clamp rounding
    # noise so both squares stay exactly real.  The smaller-magnitude square
    # comes from the product law s_plus s_minus = q, which sidesteps the
    # a -+ inner cancellation.
    inner = math.sqrt(max(disc, 0.0))
    if regime is Regime.TRAVELING:
        big = max(a + inner, 0.0)
        small = 2.0 * q / big if big > 0.0 else 0.0
        return complex(big / 2.0, 0.0), complex(small, 0.0), regime
    big = min(a - inner, 0.0)
    small = 2.0 * q / big if big < 0.0 else 0.0
    return complex(small, 0.0), complex(big / 2.0, 0.0), regime


def k_branches(y: float, xi: float) -> tuple[ComplexWavenumber, ComplexWavenumber]:
    """Both complex wavenumber branches x_pm at reduced frequency y.

    At y == omega_tilde the minus branch takes the value of its limit from
    above (-i q^(1/4)); the limit from below has the opposite sign.
    """
    if _finite(y, "reduced frequency") < 0.0:
        raise DomainError(f"reduced frequency must be nonnegative, got {y}")
    s_plus, s_minus, regime = _branch_squares(y, xi)
    root = cmath.sqrt if regime is Regime.DECAYING_TRAVELING else _real_root
    x_plus, x_minus = root(s_plus), root(s_minus)
    if not (cmath.isfinite(x_plus) and cmath.isfinite(x_minus)):
        raise DomainError(f"wavenumber is not a finite float at y = {y}")
    return (
        ComplexWavenumber(value=x_plus, branch=Branch.PLUS, regime=regime),
        ComplexWavenumber(value=x_minus, branch=Branch.MINUS, regime=regime),
    )


def _real_root(s: complex) -> complex:
    """cmath.sqrt of an s with zero imaginary part, without the bits that
    cmath.sqrt drops for |s| just above the subnormal range."""
    if s.real > 0.0:
        return complex(math.sqrt(s.real), 0.0)
    return complex(0.0, math.copysign(math.sqrt(-s.real), s.imag))


def omega_physical(k: float, omega_p: float, xi: float, c: float = 1.0) -> float:
    """Dimensionful dispersion Omega(k) = omega_p * y(k/k_p); restores the
    free-photon line c*k as omega_p -> 0."""
    if _finite(c, "speed of light") <= 0.0:
        raise DomainError(f"speed of light must be positive, got {c}")
    if _finite(omega_p, "plasma frequency") < 0.0:
        raise DomainError(f"plasma frequency must be nonnegative, got {omega_p}")
    if omega_p == 0.0:
        validate_xi(xi)
        if _finite(k, "wavenumber") < 0.0:
            raise DomainError(f"wavenumber must be nonnegative, got {k}")
        return c * k
    k_p = omega_p / c
    return omega_p * omega_of_k(k / k_p, xi)
