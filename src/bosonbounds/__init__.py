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
    delta_1d_phi,
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
    delta_exact_energy,
    dimensionless_coupling,
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
    "dimensionless_coupling",
    "recover_energy",
    "delta_exact_energy",
    "BoundReport",
    "lower_bound",
    "gaussian_upper",
    "gamma_d",
    "sigma2_gaussian",
    "asymptotic_bounds",
    "m_constant",
    "bound_report",
    "PhiResult",
    "kinetic_coeff",
    "moment_coeff",
    "inverse_square_coeff",
    "minimize_scale",
    "optimize",
    "delta_1d_phi",
    "ground_energy",
]
