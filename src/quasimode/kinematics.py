"""Phase and group velocities of the quasimode.

Reduced wavenumber x = k/k_p; velocities in units of c.  The phase velocity
exceeds c everywhere.  For xi > 0 the group velocity is negative below the
dispersion minimum x* = q^(1/4) and diverges to -infinity as x -> 0; it drops
below -c at a polarization-dependent threshold that has a closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .params import _finite, _require, polarization_weight, validate_xi


def phase_velocity(x: float, xi: float) -> float:
    """v_ph / c = sqrt(1 + 1/x^2 + q/x^4) = y(x)/x."""
    return velocities_array(np.array([x], dtype=float), xi, "phase velocity")[0].item()


def group_velocity(x: float, xi: float) -> float:
    """v_g / c = (1 - q/x^4) / sqrt(1 + 1/x^2 + q/x^4), signed."""
    return velocities_array(np.array([x], dtype=float), xi, "group velocity")[1].item()


@np.errstate(all="ignore")
def velocities_array(
    x: np.ndarray, xi: float, what: str = "phase velocity"
) -> tuple[np.ndarray, np.ndarray]:
    """(phase, group) velocity at every element of x, which must be finite
    and positive with x^4 still above 0; a DomainError, worded for `what`,
    names the first element failing the earliest check.  The group velocity
    divides by the phase velocity, which is at least 1 wherever it is finite,
    so one finiteness check covers both."""
    q = polarization_weight(xi)
    _finite(x, "reduced wavenumber")
    _require(x, x > 0.0, f"{what} requires x > 0, got {{}}")
    x2 = x * x
    x4 = x2 * x2
    _require(x, x4 != 0.0, "x^4 underflows to 0 at x = {}")
    singular = q / x4
    phase = np.sqrt(1.0 + 1.0 / x2 + singular)
    _require(x, np.isfinite(phase), f"{what} is not a finite float at x = {{}}")
    return phase, (1.0 - singular) / phase


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
