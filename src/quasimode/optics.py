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

import numpy as np

from .dispersion import Branch, _branch_squares, _complex
from .errors import DomainError
from .params import _any, _require


@dataclass(frozen=True)
class OpticalResponse:
    """Permittivity, refractive index, and reflectivity on one branch."""

    zeta: complex
    eta: complex
    R: float
    branch: Branch


@np.errstate(all="ignore")
def _branch_zetas(y: np.ndarray, xi: float, numpy_division: bool = False) -> np.ndarray:
    """Permittivities at reduced frequencies y from one branch-square
    evaluation, shape (2, n) with zeta_plus in row 0, not yet checked for
    finiteness: a caller checks the branches it reports with _finite_zeta.
    Inside the damped window zeta_plus = s_plus / y^2 is divided as Python
    divides a complex by a float, or with numpy_division as numpy does,
    which multiplies by the reciprocal: the frequencies were numpy floats."""
    _require(y, ~(y <= 0.0), "dielectric function requires y > 0, got {}")
    y2 = y * y
    _require(y, y2 != 0.0, "y^2 underflows to 0 at y = {}")
    re, im, _, damped = _branch_squares(y, xi)
    # Real outside the damped window; the signed zero that picks the minus
    # branch's limit at the double root belongs to x, not to zeta.  Inside
    # it these are the parts Python's division gives for Im s_plus >= +0,
    # and zeta_minus is the conjugate of zeta_plus.
    zeta = _complex(re / y2, 0.0)
    if _any(damped):
        zeta.imag = np.where(damped, im / y2, 0.0)
        if numpy_division:
            # Divide, then conjugate: the other order can flip the sign of a
            # zero imaginary part.
            zeta[0, damped] = _complex(re[0, damped], im[0, damped]) / y2[damped]
            zeta[1, damped] = zeta[0, damped].conjugate()
    return zeta


def _finite_zeta(y: np.ndarray, *zetas: np.ndarray) -> None:
    finite = np.isfinite(zetas[0])
    for zeta in zetas[1:]:
        finite &= np.isfinite(zeta)
    _require(y, finite, "permittivity is not a finite float at y = {}")


def dielectric(y: float, xi: float, branch: Branch) -> complex:
    """Relative permittivity zeta = (x / y)^2 on the given branch at reduced
    frequency y."""
    numpy_division = isinstance(y, np.floating)
    y = np.array([y], dtype=float)
    zeta = _branch_zetas(y, xi, numpy_division)[0 if branch is Branch.PLUS else 1]
    _finite_zeta(y, zeta)
    return zeta.item()


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
