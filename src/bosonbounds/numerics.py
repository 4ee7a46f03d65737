"""Shared numerical kernels.

Two independent tools used throughout the package:

* ``de_nodes``: nodes and weights of the double-exponential rule on the
  half line (0, inf), the rule behind the soft-core pair moment.
* ``minimize_1d``: bracketed one-dimensional minimization (golden section
  with parabolic acceleration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "MinimizeSpec",
    "MinimizeResult",
    "QuadratureError",
    "de_nodes",
    "minimize_1d",
]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


class QuadratureError(RuntimeError):
    """Raised when level refinement fails to converge.

    Carries the last two refinement estimates in ``estimates`` so callers
    can see how far apart the final levels were.
    """

    def __init__(self, message, estimates):
        super().__init__(f"{message} (last two estimates: {estimates[0]!r}, {estimates[1]!r})")
        self.estimates = estimates


# The map s = exp(xi - exp(-xi)) sends the real line onto (0, inf).  Toward
# xi -> -inf the image collapses onto 0 double-exponentially fast, which is
# what tames integrable endpoint singularities; toward xi -> +inf it grows
# like e^xi, so integrands containing exp(-s^q) (every integrand in this
# package does, with q > 1/2) die double-exponentially as well.  A fixed
# window in xi therefore suffices for all refinement levels.
_XI_LO = -6.0
_XI_HI = 9.0


@lru_cache(maxsize=None)
def de_nodes(level: int):
    """Nodes and weights of the double-exponential rule at a refinement level.

    Level ``l`` uses the trapezoid step ``h = 0.25 / 2**l`` on the fixed
    window [-6, 9].  Returns ``(s, w, log_s)`` as read-only float64 arrays;
    ``log_s`` is supplied so integrands of the form exp(-s**q) can be formed
    as exp(-exp(q*log_s)) without re-taking logs.
    """
    h = 0.25 / 2**level
    xi = np.arange(_XI_LO, _XI_HI + 0.5 * h, h)
    em = np.exp(-xi)
    s = np.exp(xi - em)
    w = h * s * (1.0 + em)
    log_s = xi - em
    for arr in (s, w, log_s):
        arr.flags.writeable = False
    return s, w, log_s


# ---------------------------------------------------------------------------
# 1-D minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeSpec:
    """Bracket and stopping rule for minimize_1d."""

    bracket_low: float
    bracket_high: float
    tolerance: float = 1e-8
    max_iterations: int = 200

    def __post_init__(self):
        if not self.bracket_low < self.bracket_high:
            raise ValueError("bracket_low must be < bracket_high")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class MinimizeResult:
    x_min: float
    f_min: float
    converged: bool
    iterations: int

    def __iter__(self):
        # supports the documented (x_min, f_min) unpacking
        yield self.x_min
        yield self.f_min


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def minimize_1d(f, spec: MinimizeSpec) -> MinimizeResult:
    """Minimize a unimodal function on a bracket.

    Golden-section search with parabolic acceleration (Brent's method).
    Unimodality is assumed, not verified; for a multimodal f the result is
    the best point the search visited.  If the iteration budget runs out
    the best sample so far is returned with ``converged`` False.

    Parameters
    ----------
    f : callable
        Scalar objective.
    spec : MinimizeSpec
        Bracket, tolerance on the minimizer location, iteration cap.

    Returns
    -------
    MinimizeResult
        Fields x_min, f_min, converged, iterations.  Iterating the result
        yields (x_min, f_min).
    """
    a, b = spec.bracket_low, spec.bracket_high
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for it in range(1, spec.max_iterations + 1):
        m = 0.5 * (a + b)
        tol1 = spec.tolerance * max(1.0, abs(x))
        tol2 = 2.0 * tol1
        if abs(x - m) <= tol2 - 0.5 * (b - a):
            return MinimizeResult(x, fx, True, it)
        use_golden = True
        if abs(e) > tol1:
            # parabola through (v, fv), (w, fw), (x, fx)
            r = (x - w) * (fx - fv)
            qd = (x - v) * (fx - fw)
            p = (x - v) * qd - (x - w) * r
            qd = 2.0 * (qd - r)
            if qd > 0.0:
                p = -p
            qd = abs(qd)
            e_prev = e
            e = d
            if abs(p) < abs(0.5 * qd * e_prev) and qd * (a - x) < p < qd * (b - x):
                d = p / qd
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol1 if x < m else -tol1
                use_golden = False
        if use_golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else (tol1 if d > 0.0 else -tol1))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return MinimizeResult(x, fx, False, spec.max_iterations)
