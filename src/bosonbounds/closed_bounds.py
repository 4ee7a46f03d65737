"""Closed-form energy bounds for the two soft-core shapes.

Both reduced two-body problems are exactly soluble, which yields a lower
bound on the N-boson energy parameter in closed form; a translation
invariant Gaussian trial state gives a matching closed-form upper bound.
All expressions below are per unit (N-1), in units hbar = m = 1, and are
valid for integer dimension d >= 3.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import collective_field
from .model import Potential, PotentialKind, Problem

__all__ = [
    "BoundReport",
    "lower_bound",
    "gaussian_upper",
    "gamma_d",
    "sigma2_gaussian",
    "asymptotic_bounds",
    "m_constant",
    "bound_report",
]


def lower_bound(prob: Problem) -> float:
    """Lower bound F2(v) on the energy parameter.

    The lowest eigenvalue of the reduced Hamiltonian -Laplacian + v*f(r):

    * oscillator: 2*sqrt(v*lam) * (1 + sqrt(mu*v + (d/2 - 1)**2))
    * Kratzer:    -(v*lam)**2 / (1 + sqrt((d - 2)**2 + 4*v*mu))**2
    """
    pot, d, v = prob.potential, prob.d, prob.v
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return 2.0 * math.sqrt(v * pot.lam) * (
            1.0 + math.sqrt(pot.mu * v + (0.5 * d - 1.0) ** 2)
        )
    vl = v * pot.lam
    return -(vl * vl) / (1.0 + math.sqrt((d - 2.0) ** 2 + 4.0 * v * pot.mu)) ** 2


def gaussian_upper(prob: Problem) -> float:
    """Upper bound F_G(v) from a Gaussian trial state.

    * oscillator: sqrt(d*v*lam) * sqrt(d + 4*v*mu/(d - 2))
    * Kratzer:    -(v*lam*gamma_d)**2 / (2*d + 8*v*mu/(d - 2))
    """
    pot, d, v = prob.potential, prob.d, prob.v
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        # one sqrt of the product keeps the mu = 0 collapse onto d*sqrt(v*lam) exact
        return math.sqrt(d * v * pot.lam * (d + 4.0 * v * pot.mu / (d - 2.0)))
    vlg = v * pot.lam * gamma_d(d)
    return -(vlg * vlg) / (2.0 * d + 8.0 * v * pot.mu / (d - 2.0))


def gamma_d(d: int) -> float:
    """Dimension constant Gamma((d-1)/2) / Gamma(d/2); gamma_3 = 2/sqrt(pi)."""
    if not isinstance(d, int) or d < 3:
        raise ValueError(f"d must be an integer >= 3, got {d!r}")
    return math.gamma((d - 1) / 2.0) / math.gamma(d / 2.0)


def sigma2_gaussian(prob: Problem) -> float:
    """Mean-squared pair separation of the optimal Gaussian trial state.

    * oscillator: d/(2*sqrt(v*lam)) * sqrt(1 + 4*v*mu/(d*(d - 2)))
    * Kratzer:    d**3/(2*(v*lam*gamma_d)**2) * (1 + 4*v*mu/(d*(d - 2)))**2
    """
    pot, d, v = prob.potential, prob.d, prob.v
    core = 1.0 + 4.0 * v * pot.mu / (d * (d - 2.0))
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return d / (2.0 * math.sqrt(v * pot.lam)) * math.sqrt(core)
    vlg = v * pot.lam * gamma_d(d)
    denom = 2.0 * vlg * vlg
    if denom == 0.0:
        raise OverflowError(f"sigma2 overflows: (v*lam*gamma_d)**2 underflows to 0 at v={v!r}")
    return d**3 / denom * core * core


def m_constant(d: int) -> float:
    """M(d) = gamma_d**2 * (d - 2) / 2.

    Ratio of the Kratzer upper to lower asymptotic coefficients; M(3) = 2/pi,
    monotone increasing in d with limit 1.
    """
    g = gamma_d(d)
    return 0.5 * g * g * (d - 2.0)


def asymptotic_bounds(prob: Problem) -> tuple[float, float]:
    """Large-v leading coefficients per unit v for (lower, upper).

    For strong coupling both bounds grow linearly in v and pinch the
    classical pairwise minimum:

    * oscillator: lower -> 2*sqrt(lam*mu)*v, upper -> 2*sqrt(lam*mu)*sqrt(d/(d-2))*v
    * Kratzer:    lower -> -lam**2/(4*mu)*v,  upper -> -lam**2*M(d)/(4*mu)*v

    Requires mu > 0; without the soft core the oscillator bound grows like
    sqrt(v) and the Kratzer one like v**2, so no linear coefficient exists.
    """
    pot, d = prob.potential, prob.d
    if pot.mu == 0.0:
        raise ValueError("asymptote undefined without soft core (mu = 0)")
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        lo = 2.0 * math.sqrt(pot.lam * pot.mu)
        return lo, lo * math.sqrt(d / (d - 2.0))
    lo = -pot.lam * pot.lam / (4.0 * pot.mu)
    return lo, lo * m_constant(d)


BoundReport = namedtuple(
    "BoundReport",
    "lower upper_gaussian sigma2 asymptote_lower asymptote_upper upper_phi q_opt b_opt",
    defaults=(None, None, None),
)
BoundReport.__doc__ = """All bounds for one problem instance.

``upper_phi``, ``q_opt`` and ``b_opt`` are filled only when the
collective-field bound was requested (d = 3 only); the asymptote
coefficients are None when mu = 0, where no linear large-v regime
exists, and with sigma2 when only the energy window was requested.
"""


def bound_report(prob: Problem, include_phi: bool = False, window_only: bool = False) -> BoundReport:
    """Aggregate every bound for one problem and check the bound chain.

    With ``include_phi`` the variational collective-field upper bound is
    computed as well (numerical optimization over the trial density family;
    d = 3 only, errors propagate from that module).  With ``window_only``
    sigma2 and the asymptotes are left None, unchecked, for callers that
    print only the energy window (sigma2 overflows at tiny Kratzer v).

    Raises ``RuntimeError`` unless every reported number is finite, no
    energy underflows to 0, and F2 <= FG, and F2 <= Fphi <= FG with
    ``include_phi``, each within a cushion of 1e-9 * max(1, |FG|).
    """
    sigma2 = asym_lo = asym_up = None
    if not window_only:
        sigma2 = sigma2_gaussian(prob)
        if prob.potential.mu > 0.0:
            asym_lo, asym_up = asymptotic_bounds(prob)
    phi = q_opt = b_opt = None
    if include_phi:
        res = collective_field.optimize(prob)
        phi, q_opt, b_opt = res.energy, res.q_opt, res.b_opt
    report = BoundReport(
        lower=lower_bound(prob),
        upper_gaussian=gaussian_upper(prob),
        sigma2=sigma2,
        asymptote_lower=asym_lo,
        asymptote_upper=asym_up,
        upper_phi=phi,
        q_opt=q_opt,
        b_opt=b_opt,
    )
    if not all(math.isfinite(x) for x in report if x is not None):
        raise RuntimeError(f"non-finite bound at v={prob.v!r}: {report!r}")
    if 0.0 in (report.lower, report.upper_gaussian, phi):
        raise RuntimeError(f"bound underflows to 0 at v={prob.v!r}: {report!r}")
    lo, hi = report.lower, report.upper_gaussian
    cushion = 1e-9 * max(1.0, abs(hi))
    if not (lo <= hi + cushion and (phi is None or lo - cushion <= phi <= hi + cushion)):
        raise RuntimeError(f"bound ordering violated at v={prob.v!r}: {report!r}")
    return report
