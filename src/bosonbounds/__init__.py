"""Rigorous lower and upper bounds on N-boson ground-state energies.

The library covers two exactly-soluble soft-core pair potentials (harmonic
oscillator plus inverse-square core, and Kratzer), a variational
collective-field upper bound over the density family exp(-(r/b)**q), an
independent radial eigensolver used as an oracle, and a CLI front end.
"""

from .closed_bounds import (
    BoundReport,
    asymptotic_bounds,
    bound_report,
    gamma_d,
    gaussian_upper,
    lower_bound,
    m_constant,
    sigma2_gaussian,
)
from .collective_field import (
    PhiResult,
    TrialDensity,
    delta_1d_phi,
    energy_at,
    inverse_square_coeff,
    kinetic_coeff,
    minimize_scale,
    moment_coeff,
    optimize,
)
from .model import (
    PhysicalSystem,
    Potential,
    PotentialKind,
    Problem,
    classical_floor,
    delta_exact_energy,
    dimensionless_coupling,
    minimum_point,
    potential_value,
    recover_energy,
)
from .radial_oracle import ground_energy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PotentialKind",
    "Potential",
    "Problem",
    "PhysicalSystem",
    "potential_value",
    "minimum_point",
    "dimensionless_coupling",
    "recover_energy",
    "delta_exact_energy",
    "classical_floor",
    "BoundReport",
    "lower_bound",
    "gaussian_upper",
    "gamma_d",
    "sigma2_gaussian",
    "asymptotic_bounds",
    "m_constant",
    "bound_report",
    "TrialDensity",
    "PhiResult",
    "kinetic_coeff",
    "moment_coeff",
    "inverse_square_coeff",
    "energy_at",
    "minimize_scale",
    "optimize",
    "delta_1d_phi",
    "ground_energy",
]
