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

from .closed_bounds import sigma2_gaussian
from .model import PotentialKind, Problem

__all__ = ["ground_energy"]

# The outer wall sits this many Gaussian sizes out, far beyond the
# exponential tail of any bound state here; the first solve uses this many
# interior nodes.
_R_MAX_SIZES = 10.0
_N_INTERIOR = 250
# Successive Richardson estimates must agree this well before one is
# trusted, within this many halvings after the first extrapolated value.
_REFINE_RTOL = 1e-6
_MAX_DOUBLINGS = 5
# From the second solve on, the coarser grid's eigenvalue lies well within
# this fraction of the finer one's, so only that window is bisected; at
# 1e-3 about one problem in ten misses it once and falls back to a full solve.
_WINDOW_RTOL = 1e-2


def _lowest_eigenvalue(prob: Problem, r_max: float, n: int, guess: float = math.nan) -> float:
    # imported here: numpy and scipy.linalg dominate package import time
    import numpy as np
    from scipy import linalg

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
    # bisect only (lo, hi] around the guess; its lowest eigenvalue is the
    # lowest of all when T - lo*I is positive definite (dpttrf info 0).  A nan
    # guess (the first solve) or a zero one makes lo < hi false.
    lo, hi = guess - _WINDOW_RTOL * abs(guess), guess + _WINDOW_RTOL * abs(guess)
    if lo < hi:
        val = linalg.eigh_tridiagonal(diag, off, eigvals_only=True, select="v", select_range=(lo, hi))
        if val.size and linalg.lapack.dpttrf(diag - lo, off)[2] == 0:
            return float(val[0])
    val = linalg.eigh_tridiagonal(
        diag, off, eigvals_only=True, select="i", select_range=(0, 0)
    )
    return float(val[0])


def _error_orders(prob: Problem) -> tuple[float, float]:
    # Near the origin u ~ r**(1/2 + kappa) with 2*kappa the square root of
    # (d-2)**2 + 4*v*mu, and the discretisation error is a series in h**2,
    # h**(2*kappa) and higher powers (Sidi, Practical Extrapolation Methods,
    # 2003, ch. 1); the two leading ones are removed.  At d = 3 without a
    # soft core there is no 1/r**2 term, u is smooth at the origin and the
    # series runs h**2, h**4.  At 2*kappa = 2 (d = 4, mu = 0) the leading
    # term is h**2 ln h: removing h**2 once leaves a pure h**2, which the
    # second pass removes.
    g = prob.v * prob.potential.mu
    two_kappa = 4.0 if prob.d == 3 and g == 0.0 else math.sqrt((prob.d - 2) ** 2 + 4.0 * g)
    return tuple(sorted((2.0, min(4.0, two_kappa))))


def ground_energy(prob: Problem) -> float:
    """Smallest eigenvalue of the reduced radial operator.

    The Dirichlet walls sit at the origin, which is the exact boundary
    condition, and at ten Gaussian sizes.  The first solve uses 250
    interior nodes; each further solve halves the spacing and extends a
    Richardson table that removes the two leading error orders h**p1 and
    h**p2, (2**p * T_fine - T_coarse)/(2**p - 1) once per order, with
    (p1, p2) = sorted((2, min(4, 2*kappa))) read from the soft core's
    indicial exponent.  From the second solve on, bisection covers only a
    window of 1 % around the coarser grid's raw eigenvalue, and the lowest
    eigenvalue found there is accepted once the matrix minus the window's
    lower end lo factors as LDL^T with positive pivots: that proves it
    positive definite, so no eigenvalue lies at or below lo.  An empty or
    uncertified window falls back to the full bisection of the first
    solve.  The result is returned once two consecutive table estimates
    agree to a part in 10**6.  If they still disagree after five further
    halvings the result cannot be trusted and an error is raised
    instead, as it is when the outer wall (sigma2) is not finite.
    """
    sigma2 = sigma2_gaussian(prob)
    r_max = _R_MAX_SIZES * math.sqrt(sigma2)
    if not math.isfinite(r_max):
        raise RuntimeError(f"no finite outer wall: sigma2 = {sigma2!r} at v={prob.v!r}")
    p1, p2 = _error_orders(prob)
    f1, f2 = 2.0**p1, 2.0**p2
    # the previous row of the table: the raw solve and the value with one
    # order removed; nan never agrees, so the first comparison comes with
    # the first value that has both orders removed
    e_coarse = t1_coarse = estimate = math.nan
    for k in range(_MAX_DOUBLINGS + 2):
        # halving the spacing r_max/(n+1) doubles n+1
        n = (_N_INTERIOR + 1) * 2**k - 1
        e_fine = _lowest_eigenvalue(prob, r_max, n, e_coarse)
        t1 = (f1 * e_fine - e_coarse) / (f1 - 1.0)
        t2 = (f2 * t1 - t1_coarse) / (f2 - 1.0)
        previous, estimate = estimate, (t2 if k >= 2 else t1)
        # relative, not absolute: the bound-state energies here scale with
        # lam**2 and the agreement this feeds is always a relative one
        if abs(estimate - previous) <= _REFINE_RTOL * abs(estimate):
            return estimate
        e_coarse, t1_coarse = e_fine, t1
    raise RuntimeError(
        "mesh too coarse: Richardson estimates still moving by "
        f"{abs(estimate - previous):.3e} at {n} interior nodes "
        f"(orders h**{p1:.4g} and h**{p2:.4g} removed; last two estimates "
        f"{previous!r} and {estimate!r})"
    )
