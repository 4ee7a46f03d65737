"""Variational collective-field upper bound over the density family
phi(r) = exp(-(r/b)**q).

For large N the energy parameter is bounded above by the functional

    F_phi = (1/8) * Int (grad phi)**2 / phi  +  v * Int Int phi f(|r - r'|) phi'

over normalized inter-particle trial densities phi.  On the one-parameter
shape family above (d = 3), the kinetic term and every pair moment reduce
to dimensionless coefficients times powers of the scale b:

    <KE> = T(q)/b**2,   <r**p> = C_p(q) * b**p

so minimization over b is analytic and only the power q is optimized
numerically, by one Brent search on [0.62, 12].  T(q) and C_2(q) are Gamma
ratios.  For C_-1(q) and the soft-core moment C_-2(q) the substitution
t = x*s between the two radii turns the double radial integral into a Gamma
function times one integral over x in (0, 1); it is evaluated with the
tanh-sinh rule from ``numerics``, refined level by level until two agree.

The 1-D delta-interaction model used for calibration lives here too: its
functional on the same family is fully closed-form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .model import Potential, PotentialKind, Problem
from .numerics import QuadratureError, minimize_1d, tanh_sinh_nodes

__all__ = [
    "PhiResult",
    "kinetic_coeff",
    "moment_coeff",
    "inverse_square_coeff",
    "minimize_scale",
    "optimize",
    "delta_1d_phi",
]

logger = logging.getLogger(__name__)

# bracket of both q searches (optimize and delta_1d_phi): q_opt depends only
# on the kind and g = v*mu; at every g sampled it rises from 2 (oscillator)
# and 1.6013 (Kratzer) at g = 0 towards 9.4251 and 4.9880 as g grows, inside
# the bracket, and the 1-D delta optimum is 1.6121; q > 1/2 bounds it below.
_Q_LO, _Q_HI = 0.62, 12.0

# C_-1 and C_-2 are accepted once two successive levels of the (0, 1) rule
# agree to _RTOL; a level's even nodes at twice the weight are the level below
_RTOL = 1e-10
_MIN_LEVEL, _MAX_LEVEL = 4, 6


@dataclass(frozen=True)
class PhiResult:
    energy: float
    q_opt: float
    b_opt: float
    converged: bool


def _require_q(q: float):
    # one domain for both models: the 1-D kinetic integral needs q > 1/2,
    # while the 3-D integrals would allow any q > 0
    if not (math.isfinite(q) and q > 0.5):
        raise ValueError(f"q must be finite and exceed 1/2, got {q}")


def _require_d3(prob: Problem):
    if prob.d != 3:
        raise ValueError(
            f"collective-field integrals are implemented for d = 3 only, got d = {prob.d}"
        )


def kinetic_coeff(q: float) -> float:
    """Kinetic coefficient T(q) with <KE> = T(q)/b**2 at d = 3.

    For w(s) = exp(-s**q) one has (w')**2/w = q**2 s**(2q-2) w, so the
    kinetic integral is pure Gamma:  T(q) = q**2 Gamma(2 + 1/q) / (8 Gamma(3/q)).
    T(2) = 3/4 and T(1) = 1/8 exactly.
    """
    _require_q(q)
    return q * q * math.gamma(2.0 + 1.0 / q) / (8.0 * math.gamma(3.0 / q))


# ---------------------------------------------------------------------------
# Pair moments of two independent unit-scale draws with radii s, t
#
# C_2 = <|r - r'|**2> = 2 <r**2> is a Gamma ratio.  For C_-1 and C_-2 the
# shell averages 1/max(s, t) and ln((s+t)/|s-t|)/(2st) are homogeneous in
# (s, t), and the radial law s**2 exp(-s**q) depends on s only via s**q, so
# t = x*s on the half t < s (doubled by symmetry) leaves a Gamma function
# times one integral on (0, 1):
#
#   C = (q Gamma(a/q)/Gamma(3/q)**2) Int_0^1 kernel(x) (1 + x**q)**(-a/q) dx
#
# with a = 5, kernel 2 x**2 for C_-1 and a = 4, kernel x ln((1+x)/(1-x)) for
# C_-2.  That log singularity sits at the endpoint x = 1, which the tanh-sinh
# rule damps; ln(1 - x) takes 1 - x exactly as the rule produced it.
# ---------------------------------------------------------------------------


def _second_moment(q: float) -> float:
    return 2.0 * math.gamma(5.0 / q) / math.gamma(3.0 / q)


# name -> a
_PAIR_EXPONENTS = {"C_-1": 5.0, "C_-2": 4.0}


@lru_cache(maxsize=None)
def _weighted_kernel(name: str, level: int):
    """log x and the q-independent kernel(x) times the weights at one level."""
    # numpy is imported where arrays are built, never at package import
    import numpy as np

    x, one_minus_x, w, log_x = tanh_sinh_nodes(level)
    if name == "C_-1":
        kernel = 2.0 * x * x
    else:
        kernel = x * (np.log1p(x) - np.log(one_minus_x))
    kw = kernel * w
    kw.flags.writeable = log_x.flags.writeable = False
    return log_x, kw


@lru_cache(maxsize=8192)
def _pair_moment(name: str, q: float) -> float:
    """Certified C_-1 or C_-2: levels are doubled until two agree to _RTOL."""
    import numpy as np

    a = _PAIR_EXPONENTS[name]
    g = math.gamma(3.0 / q)
    scale = q * math.gamma(a / q) / (g * g)
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        log_x, kw = _weighted_kernel(name, level)
        e = np.exp(-a / q * np.log1p(np.exp(q * log_x)))
        cur = scale * float(kw @ e)
        prev = 2.0 * scale * float(kw[::2] @ e[::2])
        if abs(cur - prev) <= _RTOL * abs(cur):
            return cur
    raise QuadratureError(f"{name} did not converge for q = {q}", (prev, cur))


def moment_coeff(q: float, p: float) -> float:
    """Pair-moment coefficient C_p(q) with <r**p> = C_p(q) * b**p.

    Parameters
    ----------
    q : float
        Trial-density power, q > 1/2.
    p : float
        Moment exponent, 2 or -1 (the exponents of the attractive terms;
        the log-kernel case p = -2 is ``inverse_square_coeff``).

    Returns
    -------
    float
        C_2(q) = 2 Gamma(5/q)/Gamma(3/q), or C_-1(q), one certified
        integral on (0, 1) with the same refinement as ``inverse_square_coeff``.
    """
    _require_q(q)
    if p == 2:
        return _second_moment(q)
    if p == -1:
        return _pair_moment("C_-1", q)
    if p == -2:
        raise ValueError("p = -2 has a logarithmic kernel; use inverse_square_coeff")
    raise ValueError(f"moment_coeff supports p = 2 and p = -1, got p = {p}")


def inverse_square_coeff(q: float) -> float:
    """Soft-core coefficient C_-2(q) with <r**-2> = C_-2(q) / b**2.

    One integral on (0, 1) with a logarithmic endpoint singularity, by the
    tanh-sinh rule: level 4's 113 nodes give both the level-4 and the level-3
    estimate; levels 5 and 6 run only while two successive levels disagree
    beyond 1e-10 relative, and ``QuadratureError`` is raised if 5 and 6 do.
    """
    _require_q(q)
    return _pair_moment("C_-2", q)


# ---------------------------------------------------------------------------
# Energy assembly and optimization
# ---------------------------------------------------------------------------


def minimize_scale(prob: Problem, q: float) -> tuple[float, float]:
    """Analytic minimization over the scale b at fixed power q (d = 3).

    The collective-field energy of the trial density at scale b is

    * oscillator: E(b) = T/b**2 + v*(lam*C2*b**2 + mu*Cm2/b**2)
    * Kratzer:    E(b) = T/b**2 + v*(-lam*Cm1/b + mu*Cm2/b**2)

    With A = T(q) + v*mu*C_-2(q):

    * oscillator, B = v*lam*C2(q):  b_opt = (A/B)**(1/4), energy = 2*sqrt(A*B)
    * Kratzer,    C = v*lam*C_-1(q): b_opt = 2*A/C,        energy = -C**2/(4*A)

    Returns (b_opt, energy); raises ``OverflowError`` if either is not finite.
    """
    _require_d3(prob)
    _require_q(q)
    pot, v = prob.potential, prob.v
    a = kinetic_coeff(q)
    if pot.mu > 0.0:
        a += v * pot.mu * _pair_moment("C_-2", q)
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        c = v * pot.lam * _second_moment(q)
        b_opt, energy = (a / c) ** 0.25, 2.0 * math.sqrt(a * c)
    else:
        c = v * pot.lam * _pair_moment("C_-1", q)
        b_opt, energy = 2.0 * a / c, -c * c / (4.0 * a)
    if not (math.isfinite(energy) and math.isfinite(b_opt)):
        raise OverflowError(f"collective-field bound at q = {q} is not finite: energy {energy}, b {b_opt}")
    return b_opt, energy


def optimize(prob: Problem) -> PhiResult:
    """Minimize the scale-reduced energy over the power q (d = 3).

    E(q) is a positive unit fixed by v*lam times E(q) of the unit problem
    lam = v = 1, mu = g = v*mu, so q_opt depends only on the kind and g, and
    the search runs on the unit problem: one golden-section/parabolic
    (Brent) search over the bracket [0.62, 12], on which E(q) has a single
    interior minimum at every g tested.  Energy and b_opt are then evaluated
    on ``prob``.  A minimizer on the bracket edge is logged as a warning,
    since the result is then one-sided.  Raises ``OverflowError`` when g or
    any energy or width it computes is not finite.
    """
    _require_d3(prob)
    g = prob.v * prob.potential.mu
    if not math.isfinite(g):
        raise OverflowError(f"soft-core coupling g = v*mu is not finite, got {g}")
    unit = Problem(Potential(prob.potential.kind, 1.0, g), 3, 1.0)
    res = minimize_1d(lambda q: minimize_scale(unit, q)[1], _Q_LO, _Q_HI, 1e-8)
    if min(res.x_min - _Q_LO, _Q_HI - res.x_min) < 1e-6:
        logger.warning(
            "energy over q is lowest at the bracket edge q = %g; result is one-sided",
            res.x_min,
        )
    b_opt, energy = minimize_scale(prob, res.x_min)
    return PhiResult(energy=energy, q_opt=res.x_min, b_opt=b_opt, converged=res.converged)


# ---------------------------------------------------------------------------
# 1-D delta-interaction calibration model
# ---------------------------------------------------------------------------


def _delta_coeffs(q: float) -> tuple:
    """(T1, U1) for the 1-D family phi(x) ~ exp(-(|x|/b)**q).

    Kinetic (1/8) Int (phi')**2/phi = T1(q)/b**2 with
    T1(q) = q**2 Gamma(2 - 1/q) / (8 Gamma(1/q)), and the delta cross term
    v * Int phi**2 = v * U1(q)/b with U1(q) = q * 2**(-1 - 1/q) / Gamma(1/q).
    Both are exact Gamma reductions; q > 1/2 keeps the kinetic integral
    finite.
    """
    _require_q(q)
    g1 = math.gamma(1.0 / q)
    t1 = q * q * math.gamma(2.0 - 1.0 / q) / (8.0 * g1)
    u1 = q * 2.0 ** (-1.0 - 1.0 / q) / g1
    return t1, u1


def delta_1d_phi(v: float, q: Optional[float] = None) -> PhiResult:
    """Collective-field bound for the 1-D attractive delta model.

    Minimizes T1(q)/b**2 - v*U1(q)/b over b (analytic: b = 2*T1/(v*U1),
    energy = -v**2 U1**2/(4 T1)) and over q numerically unless ``q`` is
    given, in which case only the scale is optimized.  At q = 2 the value
    is exactly -v**2/(2*pi); the full optimum sits near q = 1.612.  The
    energy scales exactly as v**2, so q is searched at v = 1 and q_opt does
    not depend on v.  Raises ``OverflowError`` when the energy or the width
    at the returned q is not finite.
    """
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"v must be positive and finite, got {v}")

    def scale_min(qq: float, v: float = v) -> tuple:
        t1, u1 = _delta_coeffs(qq)
        return 2.0 * t1 / (v * u1), -v * v * u1 * u1 / (4.0 * t1)

    converged = True
    if q is None:
        res = minimize_1d(lambda qq: scale_min(qq, 1.0)[1], _Q_LO, _Q_HI, 1e-10)
        q, converged = res.x_min, res.converged
    b_opt, energy = scale_min(q)
    if not (math.isfinite(energy) and math.isfinite(b_opt)):
        raise OverflowError(f"delta-model bound at v = {v} is not finite: energy {energy}, b {b_opt}")
    return PhiResult(energy=energy, q_opt=q, b_opt=b_opt, converged=converged)
