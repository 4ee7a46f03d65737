"""Independent ground-state solver for the reduced Hamiltonian.

Finite-difference eigensolver for H = -Laplacian + v*f(r) in d dimensions,
reduced to the half line by u(r) = r**((d-1)/2) * psi(r):

    -u'' + [ v*f(r) + (d-1)*(d-3)/(4*r**2) ] u = E u,   u(r_min) = u(r_max) = 0

The closed-form lower bounds elsewhere in this package are the exact lowest
eigenvalues of this operator; this module recomputes them by a route that
shares no algebra with those formulas, so the two can be tested against
each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closed_bounds import sigma2_gaussian
from .model import PotentialKind, Problem, minimum_point

__all__ = ["Mesh", "default_mesh", "ground_energy"]


@dataclass(frozen=True)
class Mesh:
    """Uniform radial grid; n_points counts interior nodes."""

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError(
                f"need 0 < r_min < r_max, got r_min={self.r_min}, r_max={self.r_max}"
            )
        if self.n_points < 200:
            raise ValueError(f"n_points must be >= 200, got {self.n_points}")


def default_mesh(prob: Problem) -> Mesh:
    """Mesh tied to the physical scales of the problem.

    The inner cutoff sits four decades below the potential-minimum radius
    (or the Gaussian size when mu = 0 leaves no interior minimum); the
    outer wall sits at twenty times the Gaussian size estimate, far beyond
    the exponential tail of any bound state here.
    """
    pot = prob.potential
    size = math.sqrt(sigma2_gaussian(prob))
    if pot.mu > 0.0:
        scale_low, _ = minimum_point(pot)
    else:
        scale_low = size
    return Mesh(r_min=1e-4 * scale_low, r_max=20.0 * size, n_points=4000)


def _lowest_eigenvalue(prob: Problem, r_min: float, r_max: float, n: int) -> float:
    h = (r_max - r_min) / (n + 1)
    r = r_min + h * np.arange(1, n + 1)
    pot = prob.potential
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        f = pot.lam * r * r + pot.mu / (r * r)
    else:
        f = -pot.lam / r + pot.mu / (r * r)
    centrifugal = (prob.d - 1) * (prob.d - 3) / 4.0
    diag = 2.0 / (h * h) + prob.v * f + centrifugal / (r * r)
    off = np.full(n - 1, -1.0 / (h * h))
    # imported here: scipy.linalg dominates package import time
    from scipy import linalg

    val = linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 0)
    )
    return float(val[0])


# Successive Richardson estimates must agree this well before one is trusted.
_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 5


def _refined_eigenvalue(prob: Problem, r_min: float, r_max: float, n: int) -> float:
    e_coarse = _lowest_eigenvalue(prob, r_min, r_max, n)
    # half spacing needs 2n+1 interior nodes
    e_fine = _lowest_eigenvalue(prob, r_min, r_max, 2 * n + 1)
    refined = (4.0 * e_fine - e_coarse) / 3.0
    # A weak soft core leaves u ~ r**s with s barely above 1 at the inner
    # wall, and the h**2 expansion underlying one extrapolation step then
    # carries a slow fractional-power remainder.  The Richardson correction
    # itself underestimates that remainder, so the only honest convergence
    # check is agreement between successive extrapolated values: keep
    # halving the spacing (each fine solve becomes the next coarse one)
    # until two of them agree.
    for _ in range(_MAX_DOUBLINGS):
        n, e_coarse = 2 * n + 1, e_fine
        e_fine = _lowest_eigenvalue(prob, r_min, r_max, 2 * n + 1)
        previous, refined = refined, (4.0 * e_fine - e_coarse) / 3.0
        # relative, not absolute: the bound-state energies here scale with
        # lam**2 and the agreement this feeds is always a relative one
        if abs(refined - previous) <= _REFINE_RTOL * abs(refined):
            return refined
    raise RuntimeError(
        "mesh too coarse: Richardson estimates still moving by "
        f"{abs(refined - previous):.3e} at {n} interior nodes"
    )


def ground_energy(prob: Problem, mesh: Optional[Mesh] = None) -> float:
    """Smallest eigenvalue of the reduced radial operator.

    Solves on the given mesh and on successive half-spacing refinements,
    removing the leading h**2 error by Richardson extrapolation
    (4*E_fine - E_coarse)/3 at each level and stopping once two
    consecutive extrapolated values agree to a part in 10**6.  If they
    still disagree after five doublings the mesh cannot support the
    result and an error is raised instead.

    Without a soft core the reduced wave function behaves like u ~ r at
    the origin, so the Dirichlet wall at r_min acts as a hard core and
    shifts the eigenvalue by |u'(0)|**2 * r_min.  For mu = 0 the solve is
    therefore repeated with the wall at r_min/2 and the linear wall error
    extrapolated away as well.
    """
    mesh = mesh or default_mesh(prob)
    e = _refined_eigenvalue(prob, mesh.r_min, mesh.r_max, mesh.n_points)
    if prob.potential.mu == 0.0:
        e_half = _refined_eigenvalue(prob, 0.5 * mesh.r_min, mesh.r_max, mesh.n_points)
        e = 2.0 * e_half - e
    return e
