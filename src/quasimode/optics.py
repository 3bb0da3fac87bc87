"""Dielectric function, refractive index, and normal-incidence reflectivity.

The relative permittivity of the medium seen by the two wavenumber branches
is, in reduced frequency y = Omega/omega_p,

    zeta_pm = 1/2 [ 1 +- (1/y^2) ( sqrt((1 - y^2)^2 - 4 q) -+ 1 ) ],

which coincides with (x_pm / y)^2 and is evaluated as such, from the branch
squares of the dispersion module.  For xi = 0 both branches merge into the
textbook plasma permittivity 1 - 1/y^2.  Complex square roots are principal
throughout, consistent with the dispersion module.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .dispersion import Branch, Regime, _branch_squares
from .errors import DomainError


@dataclass(frozen=True)
class OpticalResponse:
    """Permittivity, refractive index, and reflectivity on one branch."""

    zeta: complex
    eta: complex
    R: float
    branch: Branch


def _branch_zetas(y: float, xi: float) -> tuple[complex, complex]:
    """(zeta_plus, zeta_minus) at reduced frequency y from one branch-square
    evaluation, not yet checked for finiteness: a caller checks the branches
    it reports with _finite_zeta."""
    if y <= 0.0:
        raise DomainError(f"dielectric function requires y > 0, got {y}")
    y2 = y * y
    if y2 == 0.0:
        raise DomainError(f"y^2 underflows to 0 at y = {y}")
    s_plus, s_minus, regime = _branch_squares(y, xi)
    if regime is Regime.DECAYING_TRAVELING:
        # Divide, then conjugate: the other order can flip the sign of a zero
        # imaginary part.
        zeta = s_plus / y2
        return zeta, zeta.conjugate()
    # Real outside the damped window; the signed zero that picks the minus
    # branch's limit at the double root belongs to x, not to zeta.
    return complex(s_plus.real / y2, 0.0), complex(s_minus.real / y2, 0.0)


def _finite_zeta(zeta: complex, y: float) -> complex:
    if not cmath.isfinite(zeta):
        raise DomainError(f"permittivity is not a finite float at y = {y}")
    return zeta


def dielectric(y: float, xi: float, branch: Branch) -> complex:
    """Relative permittivity zeta = (x / y)^2 on the given branch at reduced
    frequency y."""
    zeta_plus, zeta_minus = _branch_zetas(y, xi)
    return _finite_zeta(zeta_plus if branch is Branch.PLUS else zeta_minus, y)


def refractive_index(zeta: complex) -> complex:
    """eta = sqrt(zeta), principal branch."""
    return cmath.sqrt(zeta)


def reflectivity(eta: complex) -> float:
    """Normal-incidence reflectivity |(eta - 1)/(eta + 1)|^2."""
    if not cmath.isfinite(eta):
        raise DomainError(f"refractive index must be finite, got {eta}")
    if eta == -1:
        raise DomainError("reflectivity is undefined at eta = -1")
    return abs((eta - 1.0) / (eta + 1.0)) ** 2


def optical_response(y: float, xi: float, branch: Branch) -> OpticalResponse:
    """Full optical response on one branch at reduced frequency y."""
    zeta = dielectric(y, xi, branch)
    eta = refractive_index(zeta)
    return OpticalResponse(zeta=zeta, eta=eta, R=reflectivity(eta), branch=branch)
