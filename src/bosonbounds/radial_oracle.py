"""Independent ground-state solver for the reduced Hamiltonian.

Finite-difference eigensolver for H = -Laplacian + v*f(r) in d dimensions,
reduced to the half line by u(r) = r**((d-1)/2) * psi(r):

    -u'' + [ v*f(r) + (d-1)*(d-3)/(4*r**2) ] u = E u,   u(0) = u(r_max) = 0

The closed-form lower bounds elsewhere in this package are the exact lowest
eigenvalues of this operator; this module recomputes them by a route that
shares no algebra with those formulas, so the two can be tested against
each other.
"""

from __future__ import annotations

import math

import numpy as np

from .closed_bounds import sigma2_gaussian
from .model import PotentialKind, Problem

__all__ = ["ground_energy"]

# The outer wall sits this many Gaussian sizes out, far beyond the
# exponential tail of any bound state here; the first solve uses this many
# interior nodes.
_R_MAX_SIZES = 20.0
_N_INTERIOR = 4000
# Successive Richardson estimates must agree this well before one is
# trusted, within this many halvings after the first extrapolated value.
_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 5


def _lowest_eigenvalue(prob: Problem, r_max: float, n: int) -> float:
    h = r_max / (n + 1)
    r = h * np.arange(1, n + 1)
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


def _error_order(prob: Problem) -> float:
    # Near the origin u ~ r**(1/2 + kappa) with 2*kappa the square root of
    # (d-2)**2 + 4*v*mu, and the leading discretisation error goes as
    # h**(2*kappa) until the regular h**2 term takes over (Sidi, Practical
    # Extrapolation Methods, 2003, ch. 1).  At d = 3 without a soft core
    # there is no 1/r**2 term and u is smooth at the origin.
    g = prob.v * prob.potential.mu
    if g == 0.0:
        return 2.0
    return min(2.0, math.sqrt((prob.d - 2) ** 2 + 4.0 * g))


def ground_energy(prob: Problem) -> float:
    """Smallest eigenvalue of the reduced radial operator.

    The Dirichlet walls sit at the origin, which is the exact boundary
    condition, and at twenty Gaussian sizes.  The spacing is halved
    repeatedly and the leading h**p error removed by Richardson
    extrapolation (2**p * E_fine - E_coarse)/(2**p - 1), with p the soft
    core's indicial exponent (at most 2), until two consecutive
    extrapolated values agree to a part in 10**6.  If they still disagree
    after five further doublings the result cannot be trusted and an error
    is raised instead.
    """
    r_max = _R_MAX_SIZES * math.sqrt(sigma2_gaussian(prob))
    factor = 2.0 ** _error_order(prob)
    # nan never agrees, so the first comparison comes with the second
    # extrapolated value
    e_coarse = refined = math.nan
    for k in range(_MAX_DOUBLINGS + 2):
        # halving the spacing r_max/(n+1) doubles n+1
        n = (_N_INTERIOR + 1) * 2**k - 1
        e_fine = _lowest_eigenvalue(prob, r_max, n)
        previous, refined = refined, (factor * e_fine - e_coarse) / (factor - 1.0)
        # relative, not absolute: the bound-state energies here scale with
        # lam**2 and the agreement this feeds is always a relative one
        if abs(refined - previous) <= _REFINE_RTOL * abs(refined):
            return refined
        e_coarse = e_fine
    raise RuntimeError(
        "mesh too coarse: Richardson estimates still moving by "
        f"{abs(refined - previous):.3e} at {n} interior nodes"
    )
