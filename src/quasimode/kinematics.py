"""Phase and group velocities of the quasimode.

Reduced wavenumber x = k/k_p; velocities in units of c.  The phase velocity
exceeds c everywhere.  For xi > 0 the group velocity is negative below the
dispersion minimum x* = q^(1/4) and diverges to -infinity as x -> 0; it drops
below -c at a polarization-dependent threshold that has a closed form.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .params import _finite, polarization_weight, validate_xi


def _powers(x: float, what: str) -> tuple[float, float]:
    """(x^2, x^4) for a velocity at reduced wavenumber x, which must be
    finite and positive with x^4 still above 0."""
    if _finite(x, "reduced wavenumber") <= 0.0:
        raise DomainError(f"{what} requires x > 0, got {x}")
    x2 = x * x
    x4 = x2 * x2
    if x4 == 0.0:
        raise DomainError(f"x^4 underflows to 0 at x = {x}")
    return x2, x4


def phase_velocity(x: float, xi: float) -> float:
    """v_ph / c = sqrt(1 + 1/x^2 + q/x^4) = y(x)/x."""
    q = polarization_weight(xi)
    x2, x4 = _powers(x, "phase velocity")
    v = math.sqrt(1.0 + 1.0 / x2 + q / x4)
    if not math.isfinite(v):
        raise DomainError(f"phase velocity is not a finite float at x = {x}")
    return v


def group_velocity(x: float, xi: float) -> float:
    """v_g / c = (1 - q/x^4) / sqrt(1 + 1/x^2 + q/x^4), signed."""
    q = polarization_weight(xi)
    x2, x4 = _powers(x, "group velocity")
    v = (1.0 - q / x4) / math.sqrt(1.0 + 1.0 / x2 + q / x4)
    if not math.isfinite(v):
        raise DomainError(f"group velocity is not a finite float at x = {x}")
    return v


def superluminal_backward_threshold(xi: float) -> float:
    """Reduced wavenumber below which v_g < -c, for 0 < xi <= 1:

        x = xi^(2/3) sqrt(1 - xi^(2/3) + xi^(4/3)) / (1 + xi^2).

    Equivalently the positive root of x^6 + 3 q x^4 - q^2 = 0.  For xi = 0
    no backward propagation exists and a DomainError is raised.
    """
    validate_xi(xi)
    if xi == 0.0:
        raise DomainError("group velocity is never negative for linear polarization")
    s = xi ** (2.0 / 3.0)
    return s * math.sqrt(1.0 - s + s * s) / (1.0 + xi * xi)
