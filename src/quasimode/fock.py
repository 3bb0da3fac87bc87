"""Brute-force verification of the analytic spectrum.

The original (pre-diagonalization) Hamiltonian is built as a Hermitian
matrix in the truncated photon-number basis n = 0..cutoff,

    H[n, n]     = p^2/2m + (hbar omega + quad) (n + 1/2)
    H[n, n+1]   = -g sqrt(n+1) (p_major + i xi p_minor) / sqrt(1 + xi^2)
    H[n, n+2]   = (quad/2) (1 - xi^2)/(1 + xi^2) sqrt((n+1)(n+2)),

with quad = hbar omega_p^2/(2 omega) and g = sqrt(quad/m); the matrix is
pentadiagonal and Hermitian by construction.  Only its upper band is stored,
in the LAPACK Hermitian band layout band[2 + i - j, j] = H[i, j] (3 x (cutoff+1)
values), and only the requested lowest eigenvalues are computed (zhbevx).
They must reproduce the closed-form levels of the spectrum module; agreement
is the acceptance test of the whole diagonalization.

A plane-wave variant adds the two diagonal corrections that survive the
unitary transfer of the spatial phase factors onto the number operator:
-(hbar k.p/m)(n + 1/2) and (hbar^2 k^2/2m)(n + 1/2)^2 with k = omega/c along
the propagation axis.  At p = 0 it differs from the dipole variant only by
the second-order term.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import ModelParams, derived_constants
from .spectrum import Momentum, energy_level


class HamiltonianVariant(enum.Enum):
    DIPOLE = "dipole"
    PLANE_WAVE = "plane_wave"


@dataclass(frozen=True)
class FockHamiltonian:
    """Hermitian pentadiagonal matrix of dimension cutoff+1 in the number basis.

    `matrix` holds its upper band, shape (3, cutoff+1): row 2 the diagonal,
    row 1 the first superdiagonal (from column 1) and row 0 the second
    superdiagonal (from column 2), i.e. matrix[2 + i - j, j] = H[i, j].
    """

    cutoff: int
    matrix: np.ndarray
    params: ModelParams
    p: Momentum
    variant: HamiltonianVariant


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one analytic-vs-numeric spectrum comparison."""

    lowest_analytic: list[float]
    lowest_numeric: list[float]
    max_rel_err: float
    cutoff_used: int
    converged: bool


def _base_matrix(params: ModelParams, p: Momentum, cutoff: int) -> np.ndarray:
    if cutoff < 8:
        raise DomainError(f"cutoff must be at least 8, got {cutoff}")
    dc = derived_constants(params)
    n = np.arange(cutoff + 1, dtype=float)

    band = np.zeros((3, cutoff + 1), dtype=complex)
    band[2] = p.squared / (2.0 * params.mass) + (
        params.hbar * params.omega + dc.quad
    ) * (n + 0.5)
    band[1, 1:] = (
        -dc.g
        * np.sqrt(n[:-1] + 1.0)
        * complex(p.p_major, params.xi * p.p_minor)
        / math.sqrt(1.0 + params.xi**2)
    )
    band[0, 2:] = (
        dc.quad
        / 2.0
        * (1.0 - params.xi**2)
        / (1.0 + params.xi**2)
        * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    )
    return band


def build_dipole_hamiltonian(
    params: ModelParams, p: Momentum, cutoff: int
) -> FockHamiltonian:
    """Truncated matrix of the dipole-coupled Hamiltonian."""
    return FockHamiltonian(
        cutoff=cutoff,
        matrix=_base_matrix(params, p, cutoff),
        params=params,
        p=p,
        variant=HamiltonianVariant.DIPOLE,
    )


def build_planewave_hamiltonian(
    params: ModelParams, p: Momentum, cutoff: int
) -> FockHamiltonian:
    """Dipole matrix plus the plane-wave diagonal corrections."""
    band = _base_matrix(params, p, cutoff)
    k = params.require_omega() / params.c
    n = np.arange(cutoff + 1, dtype=float)
    half = n + 0.5
    recoil = params.hbar**2 * k**2 / (2.0 * params.mass)
    band[2] += (
        -params.hbar * k * p.p_perp / params.mass * half + recoil * half**2
    )
    return FockHamiltonian(
        cutoff=cutoff,
        matrix=band,
        params=params,
        p=p,
        variant=HamiltonianVariant.PLANE_WAVE,
    )


def lowest_eigenvalues(h: FockHamiltonian, count: int) -> list[float]:
    """The `count` smallest eigenvalues, ascending.

    count is capped at cutoff/4: levels above that are contaminated by
    basis truncation and must not be trusted.
    """
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if count > h.cutoff / 4:
        raise DomainError(
            f"count={count} exceeds cutoff/4={h.cutoff / 4:g}; "
            "raise the cutoff to trust that many levels"
        )
    if not np.isfinite(h.matrix).all():
        raise DomainError("Hamiltonian entries overflow to a non-finite value")
    # scipy costs ~0.2 s to import; only the oracle needs it, so the CLI
    # and the closed-form modules do not pay for it.
    from scipy.linalg import eigvals_banded

    levels = eigvals_banded(
        h.matrix, select="i", select_range=(0, count - 1), check_finite=False
    )
    return [float(v) for v in levels]


def verify_spectrum(
    params: ModelParams,
    p: Momentum,
    n_levels: int = 5,
    tol: float = 1e-6,
    cutoff_start: int = 64,
    cutoff_cap: int = 1024,
    variant: HamiltonianVariant = HamiltonianVariant.DIPOLE,
) -> VerificationReport:
    """Compare the lowest numeric eigenvalues against the analytic levels.

    The cutoff starts at cutoff_start and doubles until the n_levels lowest
    eigenvalues move by less than tol/10 (relative) between successive
    cutoffs.  cutoff_cap is inclusive: the last rung is cut back to it, and
    no cutoff above it is ever built.  Hitting the cap without stabilizing is
    reported (converged=False), not raised.
    """
    if tol <= 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    build = (
        build_dipole_hamiltonian
        if variant is HamiltonianVariant.DIPOLE
        else build_planewave_hamiltonian
    )

    cutoff = cutoff_start
    numeric = lowest_eigenvalues(build(params, p, cutoff), n_levels)
    stabilized = False
    while cutoff < cutoff_cap:
        next_cutoff = min(2 * cutoff, cutoff_cap)
        curr = lowest_eigenvalues(build(params, p, next_cutoff), n_levels)
        change = max(
            abs(c - q) / max(abs(c), 1e-300) for c, q in zip(curr, numeric)
        )
        if change < tol / 10.0:
            stabilized = True
            break
        cutoff, numeric = next_cutoff, curr

    analytic = [energy_level(params, p, n).energy for n in range(n_levels)]
    max_rel_err = max(
        abs(v - a) / max(abs(a), 1e-300) for v, a in zip(numeric, analytic)
    )
    return VerificationReport(
        lowest_analytic=analytic,
        lowest_numeric=numeric,
        max_rel_err=max_rel_err,
        cutoff_used=cutoff,
        converged=stabilized and max_rel_err <= tol,
    )


def default_verification_cases() -> list[tuple[ModelParams, Momentum]]:
    """The standard 9-case verification grid: all polarizations at weak and
    strong coupling, with and without momentum."""
    momenta = [
        (1.0, 0.5, Momentum()),
        (1.0, 0.5, Momentum(0.2, 0.1, 0.05)),
        (1.0, 2.0, Momentum(0.2, 0.1, 0.05)),
    ]
    cases = []
    for xi in (0.0, 0.5, 1.0):
        for omega, omega_p, p in momenta:
            cases.append((ModelParams(xi=xi, omega=omega, omega_p=omega_p), p))
    return cases
