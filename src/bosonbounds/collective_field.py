"""Variational collective-field upper bound over the density family
phi(r) = exp(-(r/b)**q).

For large N the energy parameter is bounded above by the functional

    F_phi = (1/8) * Int (grad phi)**2 / phi  +  v * Int Int phi f(|r - r'|) phi'

over normalized inter-particle trial densities phi.  On the one-parameter
shape family above (d = 3), the kinetic term and every pair moment reduce
to dimensionless coefficients times powers of the scale b:

    <KE> = T(q)/b**2,   <r**p> = C_p(q) * b**p

so minimization over b is analytic and only the power q is optimized
numerically.  T(q), C_2(q) and C_-1(q) have closed forms (Gamma ratios and
a regularized incomplete beta function).  The soft-core moment C_-2(q) has
a logarithmic kernel, integrable but singular on the diagonal s = t, and is
the one double radial integral left; it is evaluated with the
double-exponential rule from ``numerics``, refined level by level until two
levels agree.

The 1-D delta-interaction model used for calibration lives here too: its
functional on the same family is fully closed-form.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .model import PotentialKind, Problem
from .numerics import QuadratureError, de_nodes, minimize_1d

__all__ = [
    "TrialDensity",
    "PhiResult",
    "kinetic_coeff",
    "moment_coeff",
    "inverse_square_coeff",
    "energy_at",
    "minimize_scale",
    "optimize",
    "delta_1d_phi",
]

logger = logging.getLogger(__name__)

# q search bracket: reported optima live in roughly [2, 5]; the wide
# bracket guards against edge optima while respecting q > 1/2.
_Q_LO, _Q_HI = 0.62, 12.0

# C_-2 is accepted once two successive quadrature levels agree to _RTOL
_RTOL = 1e-10
_MAX_LEVEL = 6


@dataclass(frozen=True)
class TrialDensity:
    """One member of the trial family: scale b, power q.

    q > 1/2 is required uniformly (the 1-D kinetic integral needs it; the
    3-D integrals would allow any q > 0).
    """

    b: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b > 0.0):
            raise ValueError(f"b must be positive and finite, got {self.b}")
        _require_q(self.q)


@dataclass(frozen=True)
class PhiResult:
    energy: float
    q_opt: float
    b_opt: float
    converged: bool


def _require_q(q: float):
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
# * C_2 = <|r - r'|**2> = 2 <r**2>, a Gamma ratio.
# * C_-1: by the shell theorem the angular average of 1/|r - r'| is
#   1/max(s, t); with s**q, t**q Gamma(3/q) variables, E[1/max] reduces to
#   a regularized incomplete beta function at 1/2 (DLMF 8.17).
# * C_-2 = (1/I**2) Int_0^inf dt w(t) t Int_t^inf ds w(s) s ln((s+t)/(s-t))
#   has no such reduction.  The inner integral runs in u = s - t, putting
#   the log singularity at the endpoint u = 0 where the double-exponential
#   transform damps it, and log1p(2t/u) takes u exactly as the rule
#   produced it, avoiding the cancellation of recomputing s - t.
# ---------------------------------------------------------------------------


def _second_moment(q: float) -> float:
    return 2.0 * math.gamma(5.0 / q) / math.gamma(3.0 / q)


def _inverse_moment(q: float) -> float:
    # imported here: scipy.special costs tens of ms at package import
    from scipy.special import betainc

    ratio = 2.0 * math.gamma(2.0 / q) / math.gamma(3.0 / q)
    return ratio * float(betainc(3.0 / q, 2.0 / q, 0.5))


_ATTRACTION = {
    PotentialKind.SOFT_CORE_OSCILLATOR: _second_moment,
    PotentialKind.KRATZER: _inverse_moment,
}

_MAX_CACHED_LEVEL = 4


def _pair_kernel(t, u):
    """q-independent log S and S*log1p(2T/U) on rows t, columns u, S = T + U."""
    T = t[:, None]
    S = T + u
    return np.log(S), S * np.log1p(2.0 * T / u)


@lru_cache(maxsize=None)
def _pair_grid(level: int):
    s, _, _ = de_nodes(level)
    return _pair_kernel(s, s)


@lru_cache(maxsize=4096)
def _inverse_square_at_level(q: float, level: int) -> float:
    s, w, log_s = de_nodes(level)
    # nodes with s**q > 750 have exp(-s**q) == 0.0 exactly, so as rows and as
    # columns (S > u) they add nothing; dropping them is most of the grid at large q
    k = int(np.searchsorted(log_s, math.log(750.0) / q))
    s, w, log_s = s[:k], w[:k], log_s[:k]
    w_outer = np.exp(-np.exp(q * log_s)) * s * w
    if level <= _MAX_CACHED_LEVEL:
        log_grid, kernel = _pair_grid(level)
        blocks = [(slice(None), log_grid[:k, :k], kernel[:k, :k])]
    else:
        # finer levels are rare; evaluate in row blocks to bound memory
        blocks = (
            (slice(i, i + 256), *_pair_kernel(s[i : i + 256], s)) for i in range(0, k, 256)
        )
    total = sum(
        float(w_outer[rows] @ ((np.exp(-np.exp(q * log_grid)) * kernel) @ w))
        for rows, log_grid, kernel in blocks
    )
    return total * (q / math.gamma(3.0 / q)) ** 2


@lru_cache(maxsize=4096)
def _inverse_square(q: float) -> float:
    prev = cur = None
    for level in range(2, _MAX_LEVEL + 1):
        prev, cur = cur, _inverse_square_at_level(q, level)
        if prev is not None and abs(cur - prev) <= _RTOL * abs(cur):
            return cur
    raise QuadratureError(f"C_-2 did not converge for q = {q}", (prev, cur))


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
        C_-1(q) = 2 Gamma(2/q)/Gamma(3/q) * I_{1/2}(3/q, 2/q).
    """
    _require_q(q)
    if p == 2:
        return _second_moment(q)
    if p == -1:
        return _inverse_moment(q)
    if p == -2:
        raise ValueError("p = -2 has a logarithmic kernel; use inverse_square_coeff")
    raise ValueError(f"moment_coeff supports p = 2 and p = -1, got p = {p}")


def inverse_square_coeff(q: float) -> float:
    """Soft-core coefficient C_-2(q) with <r**-2> = C_-2(q) / b**2.

    Certified quadrature: levels are doubled until two agree to 1e-10
    relative, and ``QuadratureError`` is raised if six levels do not.
    """
    _require_q(q)
    return _inverse_square(q)


# ---------------------------------------------------------------------------
# Energy assembly and optimization
# ---------------------------------------------------------------------------


def _reduced_coeffs(prob: Problem, q: float, soft_core) -> tuple:
    """(A, C) = (T + v*mu*C_-2, v*lam*C_attract); ``soft_core(q)`` gives C_-2."""
    pot, v = prob.potential, prob.v
    a = kinetic_coeff(q)
    if pot.mu > 0.0:
        a += v * pot.mu * soft_core(q)
    return a, v * pot.lam * _ATTRACTION[pot.kind](q)


def _scale_min(prob: Problem, q: float, soft_core) -> tuple:
    a, c = _reduced_coeffs(prob, q, soft_core)
    if prob.potential.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return (a / c) ** 0.25, 2.0 * math.sqrt(a * c)
    return 2.0 * a / c, -c * c / (4.0 * a)


def energy_at(prob: Problem, density: TrialDensity) -> float:
    """Collective-field energy of one trial density (d = 3).

    Oscillator: T/b**2 + v*(lam*C2*b**2 + mu*Cm2/b**2)
    Kratzer:    T/b**2 + v*(-lam*Cm1/b + mu*Cm2/b**2)
    """
    _require_d3(prob)
    b = density.b
    a, c = _reduced_coeffs(prob, density.q, _inverse_square)
    if prob.potential.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return a / (b * b) + c * b * b
    return a / (b * b) - c / b


def minimize_scale(prob: Problem, q: float) -> tuple[float, float]:
    """Analytic minimization over the scale b at fixed power q (d = 3).

    With A = T(q) + v*mu*C_-2(q):

    * oscillator, B = v*lam*C2(q):  b_opt = (A/B)**(1/4), energy = 2*sqrt(A*B)
    * Kratzer,    C = v*lam*C_-1(q): b_opt = 2*A/C,        energy = -C**2/(4*A)

    Returns (b_opt, energy).
    """
    _require_d3(prob)
    _require_q(q)
    return _scale_min(prob, q, _inverse_square)


# one coarse scan grid shared by every optimize call; the moments along it
# do not depend on v, so the scan is nearly free after the first row of a
# sweep (per-q results are cached)
_SCAN_Q = tuple(float(q) for q in np.linspace(_Q_LO, _Q_HI, 32))


def optimize(prob: Problem) -> PhiResult:
    """Minimize the scale-reduced energy over the power q (d = 3).

    A 32-point scan over the bracket [0.62, 12] locates the valley and flags
    multiple local minima (logged as a warning; the energy curves seen in
    practice are unimodal in q), then golden-section/parabolic refinement
    polishes the minimizer.
    """
    _require_d3(prob)
    # single fixed level: the scan only locates the valley and flags shape
    scan = [
        _scale_min(prob, q, lambda qq: _inverse_square_at_level(qq, 2))[1]
        for q in _SCAN_Q
    ]
    interior_minima = sum(
        1
        for i in range(1, len(scan) - 1)
        if scan[i] < scan[i - 1] and scan[i] < scan[i + 1]
    )
    if interior_minima > 1:
        logger.warning(
            "energy scan over q found %d local minima; result may be local",
            interior_minima,
        )
    i0 = int(np.argmin(scan))
    lo = _SCAN_Q[max(i0 - 1, 0)]
    hi = _SCAN_Q[min(i0 + 1, len(_SCAN_Q) - 1)]
    res = minimize_1d(lambda q: minimize_scale(prob, q)[1], lo, hi, 1e-8)
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
    energy scales exactly as v**2.
    """
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"v must be positive and finite, got {v}")

    def scale_min(qq: float) -> tuple:
        t1, u1 = _delta_coeffs(qq)
        return 2.0 * t1 / (v * u1), -v * v * u1 * u1 / (4.0 * t1)

    if q is not None:
        b_opt, energy = scale_min(q)
        return PhiResult(energy=energy, q_opt=q, b_opt=b_opt, converged=True)
    res = minimize_1d(lambda qq: scale_min(qq)[1], _Q_LO, _Q_HI, 1e-10)
    b_opt, energy = scale_min(res.x_min)
    return PhiResult(energy=energy, q_opt=res.x_min, b_opt=b_opt, converged=res.converged)
