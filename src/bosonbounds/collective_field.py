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
function times one integral over x in (0, 1).  For C_-1 that integral is an
incomplete beta function at 1/2, summed as a series of positive terms; for
C_-2 it is evaluated with the tanh-sinh rule from ``numerics``, refined
level by level until two agree.  Everything is plain Python on ``math``.

The 1-D delta-interaction model used for calibration lives here too: its
functional on the same family is fully closed-form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
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

# bracket of the q search in optimize: q_opt depends only on the kind and
# g = v*mu; at every g sampled it rises from 2 (oscillator) and 1.6013
# (Kratzer) at g = 0 towards 9.4251 and 4.9880 as g grows, inside the
# bracket; q > 1/2 bounds it below.
_Q_LO, _Q_HI = 0.62, 12.0
_Q_TOL = 1e-6

# C_-2 is accepted once two successive levels of the (0, 1) rule agree to
# _RTOL; a level's even nodes at twice the weight are the level below.
# Level 4 certifies every q > 1/2 outside about [45, 43 000], and level 5
# certifies those; a q that needed more would raise QuadratureError
_RTOL = 1e-10
_MIN_LEVEL, _MAX_LEVEL = 4, 5
# C_-2's terms kernel*weight that together are below this fraction of the
# level's sum are dropped: (1 + x**q)**(-4/q) lies in [2**-8, 1] for
# q > 1/2, so C_-2 moves by less than 3e-16 relative
_DROP = 1e-18


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
# with a = 2d + p = 6 + p: kernel 2 x**2 for C_-1 and x ln((1+x)/(1-x)) for
# C_-2.  For C_-1 the integral is an incomplete beta function.  C_-2's log
# singularity sits at the endpoint x = 1, which the tanh-sinh rule damps;
# ln(1 - x) takes 1 - x exactly as the rule produced it.
# ---------------------------------------------------------------------------


def _second_moment(q: float) -> float:
    return 2.0 * math.gamma(5.0 / q) / math.gamma(3.0 / q)


def _inverse_moment_integral(q: float) -> float:
    """Int_0^1 2 x**2 (1 + x**q)**(-5/q) dx, the (0, 1) integral of C_-1.

    y = x**q/(1 + x**q) turns it into (2/q) B(1/2; 3/q, 2/q), an incomplete
    beta function, and its hypergeometric series (DLMF 8.17.8) at 1/2,

        B(1/2; a, b) = 2**-(a+b)/a * sum_n (a+b)_n/(a+1)_n 2**-n,

    has positive terms only.  Term n+1 over term n is
    (a+b+n)/(2(a+1+n)), which moves monotonically from 5/(2q+6) < 5/7
    towards 1/2, so the terms after any one sum to at most 5/2 of it; the
    sum stops once that bound is below 1e-17 of the total.
    """
    c, d = 5.0 / q, 2.0 + 6.0 / q
    total = term = 1.0
    n = 0.0
    while term > 4e-18 * total:
        term *= (c + n) / (d + n + n)
        total += term
        n += 1.0
    # (2/q)/a = 2/3 with a = 3/q
    return (2.0 / 3.0) * 0.5**c * total


@lru_cache(maxsize=None)
def _weighted_kernel(level: int):
    """(log x, kernel(x) * weight) pairs of C_-2 at one level of the rule.

    Returned as the even nodes, which are the level below at half the
    weight, and the odd ones.  The smallest terms, which sum to less than
    _DROP of the level's total, are left out.
    """
    x, one_minus_x, w, log_x = tanh_sinh_nodes(level)
    kw = [xi * (math.log1p(xi) - math.log(omx)) * wi for xi, omx, wi in zip(x, one_minus_x, w)]
    # cut is the smallest term kept: the running sum of the terms below it,
    # in increasing order, stays under _DROP of the total
    ranked, limit = sorted(kw), _DROP * sum(kw)
    cut = ranked[sum(1 for s in accumulate(ranked) if s < limit)]
    nodes = list(zip(log_x, kw))
    return tuple(n for n in nodes[::2] if n[1] >= cut), tuple(n for n in nodes[1::2] if n[1] >= cut)


def _kernel_sum(nodes, q: float, c: float) -> float:
    """Sum of kw * (1 + x**q)**c over the (log x, kw) pairs."""
    # a plain loop: faster here than sum() over a generator
    exp = math.exp
    total = 0.0
    for log_x, kw in nodes:
        total += kw * (1.0 + exp(q * log_x)) ** c
    return total


@lru_cache(maxsize=8192)
def _pair_moment(p: int, q: float) -> float:
    """C_-1 in closed form, or C_-2 certified: levels go up until two agree to _RTOL."""
    a = 6.0 + p
    g = math.gamma(3.0 / q)
    scale = q * math.gamma(a / q) / (g * g)
    # each factor grows like q, so this overflows for q above about 4e154
    # although the integral stays finite there
    if not math.isfinite(scale):
        raise OverflowError(f"C_{p} prefactor q Gamma({a:g}/q)/Gamma(3/q)**2 is {scale} at q = {q}")
    if p == -1:
        return scale * _inverse_moment_integral(q)
    c = -a / q
    for level in range(_MIN_LEVEL, _MAX_LEVEL + 1):
        even, odd = _weighted_kernel(level)
        half = _kernel_sum(even, q, c)
        cur = scale * (half + _kernel_sum(odd, q, c))
        prev = 2.0 * scale * half
        if abs(cur - prev) <= _RTOL * abs(cur):
            return cur
    raise QuadratureError(f"C_{p} did not converge for q = {q}", (prev, cur))


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
        C_2(q) = 2 Gamma(5/q)/Gamma(3/q), or
        C_-1(q) = (q Gamma(5/q)/Gamma(3/q)**2) (2/q) B(1/2; 3/q, 2/q), the
        incomplete beta function summed to within 1e-17 relative.  For q
        above about 4e154 the Gamma prefactor of C_-1 overflows and
        ``OverflowError`` is raised.
    """
    _require_q(q)
    if p == 2:
        return _second_moment(q)
    if p == -1:
        return _pair_moment(-1, q)
    if p == -2:
        raise ValueError("p = -2 has a logarithmic kernel; use inverse_square_coeff")
    raise ValueError(f"moment_coeff supports p = 2 and p = -1, got p = {p}")


def inverse_square_coeff(q: float) -> float:
    """Soft-core coefficient C_-2(q) with <r**-2> = C_-2(q) / b**2.

    One integral on (0, 1) with a logarithmic endpoint singularity, by the
    tanh-sinh rule: one pass over 90 of level 4's 113 nodes gives both the
    level-4 and the level-3 estimate (the other 23 carry less than 1e-18 of
    the sum); level 5 runs only where levels 3 and 4 disagree beyond 1e-10
    relative, and ``QuadratureError`` is raised if 4 and 5 do too.  For q
    above about 4e154 the Gamma prefactor overflows and ``OverflowError``
    is raised, as it is for C_-1.
    """
    _require_q(q)
    return _pair_moment(-2, q)


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

    Returns (b_opt, energy); raises ``OverflowError`` unless both are finite
    and the energy is nonzero (zero means total underflow).
    """
    _require_d3(prob)
    _require_q(q)
    pot, v = prob.potential, prob.v
    a = kinetic_coeff(q)
    if pot.mu > 0.0:
        a += v * pot.mu * _pair_moment(-2, q)
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        c = v * pot.lam * _second_moment(q)
        b_opt, energy = (a / c) ** 0.25, 2.0 * math.sqrt(a * c)
    else:
        c = v * pot.lam * _pair_moment(-1, q)
        b_opt, energy = 2.0 * a / c, -c * c / (4.0 * a)
    if not (math.isfinite(energy) and math.isfinite(b_opt)) or energy == 0.0:
        raise OverflowError(f"collective-field bound at q = {q} is zero or not finite: energy {energy}, b {b_opt}")
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
    any energy or width it computes is not finite, or an energy is 0.
    """
    _require_d3(prob)
    g = prob.v * prob.potential.mu
    if not math.isfinite(g):
        raise OverflowError(f"soft-core coupling g = v*mu is not finite, got {g}")
    unit = Problem(Potential(prob.potential.kind, 1.0, g), 3, 1.0)
    res = minimize_1d(lambda q: minimize_scale(unit, q)[1], _Q_LO, _Q_HI, _Q_TOL)
    # Brent stops once both ends of its bracket lie within 2*tol*max(1, q)
    # of q, and an end it never moved is a bracket edge
    if min(res.x_min - _Q_LO, _Q_HI - res.x_min) <= 2.0 * _Q_TOL * max(1.0, res.x_min):
        logger.warning(
            "energy over q is lowest at the bracket edge q = %g; result is one-sided",
            res.x_min,
        )
    b_opt, energy = minimize_scale(prob, res.x_min)
    return PhiResult(energy=energy, q_opt=res.x_min, b_opt=b_opt, converged=res.converged)


# ---------------------------------------------------------------------------
# 1-D delta-interaction calibration model
# ---------------------------------------------------------------------------

# The delta model's energy is -v**2 2**(1 - 2/q)/(4 Gamma(1/q) Gamma(2 - 1/q)),
# and d ln|E|/dq = 0 reduces, by the digamma reflection and recurrence, to
# pi cot(pi/q) + q/(q - 1) = 2 ln 2: this is its root, correctly rounded.
_DELTA_Q_OPT = 1.612069348339162


def delta_1d_phi(v: float, q: Optional[float] = None) -> PhiResult:
    """Collective-field bound for the 1-D attractive delta model.

    On the family phi(x) ~ exp(-(|x|/b)**q) the kinetic term
    (1/8) Int (phi')**2/phi is T1(q)/b**2 with
    T1(q) = q**2 Gamma(2 - 1/q) / (8 Gamma(1/q)), and the delta cross term
    v * Int phi**2 is v * U1(q)/b with U1(q) = q * 2**(-1 - 1/q) / Gamma(1/q);
    q > 1/2 keeps T1 finite.  The minimum over b, at b = 2*T1/(v*U1), is

        b = q Gamma(2 - 1/q) 2**(1/q) / (2 v)
        energy = -v**2 2**(1 - 2/q) / (4 Gamma(1/q) Gamma(2 - 1/q))

    exactly -v**2/(2*pi) at q = 2.  Without ``q`` the power is the constant
    ``_DELTA_Q_OPT``, since the energy is v**2 times a function of q alone.
    Raises ``OverflowError`` when the energy or the width is not finite, or
    the energy underflows to 0.
    """
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"v must be positive and finite, got {v}")
    q = _DELTA_Q_OPT if q is None else q
    _require_q(q)
    gamma2 = math.gamma(2.0 - 1.0 / q)
    b_opt = q * gamma2 * 2.0 ** (1.0 / q) / (2.0 * v)
    energy = -v * v * 2.0 ** (1.0 - 2.0 / q) / (4.0 * math.gamma(1.0 / q) * gamma2)
    if not (math.isfinite(energy) and math.isfinite(b_opt)) or energy == 0.0:
        raise OverflowError(f"delta-model bound at v = {v} is zero or not finite: energy {energy}, b {b_opt}")
    return PhiResult(energy=energy, q_opt=q, b_opt=b_opt, converged=True)
