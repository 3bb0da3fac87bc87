"""Exactly solvable charge + single-mode-field model: quasimode dispersion,
plasma optics, velocities, energy spectrum, zero-point plate force, and a
number-basis verification oracle."""

from .dispersion import (
    Branch,
    ComplexWavenumber,
    CriticalPoints,
    Regime,
    critical_points,
    k_branches,
    omega_of_k,
    omega_physical,
)
from .errors import DomainError
from .fock import (
    FockHamiltonian,
    VerificationReport,
    build_dipole_hamiltonian,
    build_planewave_hamiltonian,
    default_verification_cases,
    lowest_eigenvalues,
    verify_spectrum,
)
from .kinematics import (
    group_velocity,
    phase_velocity,
    superluminal_backward_threshold,
)
from .optics import (
    OpticalResponse,
    dielectric,
    optical_response,
    reflectivity,
    refractive_index,
)
from .params import (
    ATOMIC_C,
    DerivedConstants,
    ModelParams,
    derived_constants,
    polarization_weight,
)
from .plates import (
    PlateGeometry,
    force_at_minimum,
    force_general,
    force_minimum_bohr_form,
    force_minimum_plasma_form,
    plasma_frequency_plates,
)
from .spectrum import (
    EnergyLevel,
    Momentum,
    energy_cp,
    energy_level,
    energy_lp,
    zero_point_minimum,
)

__version__ = "0.1.0"

__all__ = [
    "ATOMIC_C",
    "Branch",
    "ComplexWavenumber",
    "CriticalPoints",
    "DerivedConstants",
    "DomainError",
    "EnergyLevel",
    "FockHamiltonian",
    "ModelParams",
    "Momentum",
    "OpticalResponse",
    "PlateGeometry",
    "Regime",
    "VerificationReport",
    "build_dipole_hamiltonian",
    "build_planewave_hamiltonian",
    "critical_points",
    "default_verification_cases",
    "derived_constants",
    "dielectric",
    "energy_cp",
    "energy_level",
    "energy_lp",
    "force_at_minimum",
    "force_general",
    "force_minimum_bohr_form",
    "force_minimum_plasma_form",
    "group_velocity",
    "k_branches",
    "lowest_eigenvalues",
    "omega_of_k",
    "omega_physical",
    "optical_response",
    "phase_velocity",
    "plasma_frequency_plates",
    "polarization_weight",
    "reflectivity",
    "refractive_index",
    "superluminal_backward_threshold",
    "verify_spectrum",
    "zero_point_minimum",
]
