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

from .dispersion import Branch, _branch_squares, _complex, _csqrt
from .errors import DomainError
from .params import _any, _power, _require


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
    y = np.array([y], dtype=float)
    zeta = _branch_zetas(y, xi)[0 if branch is Branch.PLUS else 1]
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


@np.errstate(all="ignore")
def _reflectivities(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """reflectivity(refractive_index(zeta)) at each finite permittivity
    zeta = re + i im, float64 arrays of one shape, with its bits.  Each step
    is Python's own, in array operations: eta by _csqrt; the quotient
    q = (eta - 1.0)/(eta + 1.0) by CPython's _Py_c_quot
    (Objects/complexobject.c); abs(q) by libm's hypot (np.hypot); and the
    square by libm's pow (params._power).  Only the signs of q's zero parts
    may differ from Python's, and abs drops them."""
    eta = _csqrt(re, im)
    eta_re, eta_im = eta.real, eta.imag
    # Re eta >= 0, so eta is never -1 and b = eta + 1 has Re b >= 1.
    # _Py_c_quot divides a = eta - 1 and b by the larger part of b, big:
    # over Re b, q = (Re a + Im a r, Im a - Re a r) / (Re b + Im b r), and
    # over Im b, (Re a r + Im a, Im a r - Re a) / (Re b r + Im b), with
    # r = small/big.  IEEE addition commutes and x - y = -(y - x) up to the
    # sign of 0, so both are (first + second r, +-(second - first r)) /
    # (big + small r).
    b_re = eta_re + 1.0
    a_re = np.subtract(eta_re, 1.0, out=eta_re)
    by_re = b_re >= np.abs(eta_im)
    big, small = np.where(by_re, b_re, eta_im), np.where(by_re, eta_im, b_re)
    del b_re
    ratio = small / big
    denom = np.multiply(small, ratio, out=small)
    denom += big
    del big
    first, second = np.where(by_re, a_re, eta_im), np.where(by_re, eta_im, a_re)
    del a_re, eta, eta_re, eta_im
    q_re = second * ratio
    q_re += first
    q_re /= denom
    q_im = np.multiply(first, ratio, out=first)
    np.subtract(second, q_im, out=q_im)
    q_im /= denom
    return _power(np.hypot(q_re, q_im, out=q_re), 2)


def optical_response(y: float, xi: float, branch: Branch) -> OpticalResponse:
    """Full optical response on one branch at reduced frequency y."""
    zeta = dielectric(y, xi, branch)
    eta = refractive_index(zeta)
    return OpticalResponse(zeta=zeta, eta=eta, R=reflectivity(eta), branch=branch)
