"""Shared numerical kernels.

Two independent tools used throughout the package:

* ``tanh_sinh_nodes``: nodes and weights of the tanh-sinh
  (double-exponential) rule on (0, 1), the rule behind the pair moments.
* ``minimize_1d``: bracketed one-dimensional minimization (golden section
  with parabolic acceleration).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MinimizeResult",
    "QuadratureError",
    "minimize_1d",
    "tanh_sinh_nodes",
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


# The tanh-sinh map x = 1/(1 + exp(-pi*sinh(tau))) sends the real line onto
# (0, 1) and reaches either end double-exponentially fast in tau, which damps
# integrable endpoint singularities such as a logarithm.  The window
# |tau| <= 3.5 stops where x and 1 - x are 2.7e-23, so an integrand growing no
# faster than a logarithm at either end loses far less than double precision.
_TAU_MAX = 3.5


def tanh_sinh_nodes(level: int):
    """Nodes and weights of the tanh-sinh rule on (0, 1) at a refinement level.

    Level ``l >= 1`` uses the trapezoid step ``h = 2**-l`` on the fixed window
    [-3.5, 3.5] in tau, so each level's nodes are every other node of the
    next, at twice the weight.  Returns ``(x, one_minus_x, w, log_x)`` as
    float64 arrays.  ``one_minus_x`` comes from the exponent, never by
    subtraction, so it keeps full relative precision where x rounds to 1.0;
    ``log_x`` lets integrands with x**q be formed as exp(q*log_x).
    """
    # imported here: numpy dominates package import time, and the
    # closed-form commands never build an array
    import numpy as np

    h = 2.0**-level
    n = round(_TAU_MAX / h)
    tau = h * np.arange(-n, n + 1)
    u = math.pi * np.sinh(tau)
    x = 1.0 / (1.0 + np.exp(-u))
    one_minus_x = 1.0 / (1.0 + np.exp(u))
    w = h * math.pi * np.cosh(tau) * x * one_minus_x
    log_x = -np.log1p(np.exp(-u))
    return x, one_minus_x, w, log_x


# ---------------------------------------------------------------------------
# 1-D minimization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeResult:
    x_min: float
    f_min: float
    converged: bool
    iterations: int


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_ITERATIONS = 200


def minimize_1d(f, lo: float, hi: float, tol: float) -> MinimizeResult:
    """Minimize a unimodal function on the bracket [lo, hi].

    Golden-section search with parabolic acceleration (Brent's method).
    Unimodality is assumed, not verified; for a multimodal f the result is
    the best point the search visited.  If 200 iterations do not meet the
    tolerance the best sample so far is returned with ``converged`` False.

    Parameters
    ----------
    f : callable
        Scalar objective.
    lo, hi : float
        Finite bracket, lo < hi.
    tol : float
        Relative tolerance on the minimizer location, > 0.

    Returns
    -------
    MinimizeResult
        Fields x_min, f_min, converged, iterations.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need a finite bracket lo < hi, got [{lo}, {hi}]")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    for it in range(1, _MAX_ITERATIONS + 1):
        m = 0.5 * (a + b)
        tol1 = tol * max(1.0, abs(x))
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
    return MinimizeResult(x, fx, False, _MAX_ITERATIONS)
