"""Property tests over the whole input domain.

Each property draws the potential kind, the dimension and log-uniform
couplings; the collective-field properties hold d = 3, the one dimension
that bound covers.  The draws are derandomized, so every run checks the same
examples and the suite stays deterministic.

The unit-scaling properties carry every layer's result from the unit problem
lam = v = 1, mu = g = v*mu to the problem (lam, mu, v).  Put r = s*rho with
s = (v*lam)**(-1/4) (oscillator) or s = 1/(v*lam) (Kratzer): the operator
-Laplacian + v*f(r) becomes E times -Laplacian + f_1(rho), with the energy
unit E = sqrt(v*lam) or (v*lam)**2 and f_1 = rho**2 + g/rho**2 or
-1/rho + g/rho**2.  A lam or v misplaced in any layer breaks them.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbounds import (
    Potential,
    PotentialKind,
    Problem,
    gaussian_upper,
    ground_energy,
    inverse_square_coeff,
    lower_bound,
    minimize_scale,
    moment_coeff,
    optimize,
    sigma2_gaussian,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50)


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


KINDS = st.sampled_from(list(PotentialKind))
DIMENSIONS = st.integers(3, 8)
LAMS = log_uniform(-1.0, 1.0)
VS = log_uniform(-2.0, 3.0)
# mu = 0 is the core-free case, a separate branch in every layer
MUS = st.one_of(st.just(0.0), log_uniform(-7.0, 1.0))


def problem(kind, lam, mu, d, v):
    return Problem(Potential(kind, lam, mu), d, v)


def unit_problem(kind, lam, mu, d, v):
    """The unit problem of (lam, mu, v), its energy unit and its length unit."""
    unit = problem(kind, 1.0, v * mu, d, 1.0)
    vl = v * lam
    if kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return unit, math.sqrt(vl), vl**-0.25
    return unit, vl * vl, 1.0 / vl


# a call costs about 1.5 ms, so the eigensolver affords a wider search
@settings(PROPERTY, max_examples=200)
@given(KINDS, LAMS, MUS, DIMENSIONS, VS)
def test_eigensolver_matches_the_lower_bound(kind, lam, mu, d, v):
    prob = problem(kind, lam, mu, d, v)
    assert ground_energy(prob) == pytest.approx(lower_bound(prob), rel=1e-5)


@PROPERTY
@given(KINDS, LAMS, MUS, DIMENSIONS, VS)
def test_lower_bound_never_exceeds_the_gaussian_bound(kind, lam, mu, d, v):
    prob = problem(kind, lam, mu, d, v)
    assert lower_bound(prob) <= gaussian_upper(prob)


@PROPERTY
@given(KINDS, LAMS, MUS, DIMENSIONS, VS)
def test_coupling_scales_into_the_potential(kind, lam, mu, d, v):
    # v multiplies the whole pair potential, so F(v; lam, mu) = F(1; v*lam, v*mu),
    # and the units carry the unit problem's bounds and width to (lam, mu, v)
    scaled = problem(kind, v * lam, v * mu, d, 1.0)
    prob = problem(kind, lam, mu, d, v)
    unit, energy, length = unit_problem(kind, lam, mu, d, v)
    for bound in (lower_bound, gaussian_upper):
        assert bound(prob) == pytest.approx(bound(scaled), rel=1e-12)
        assert bound(prob) == pytest.approx(energy * bound(unit), rel=1e-12)
    assert sigma2_gaussian(prob) == pytest.approx(length**2 * sigma2_gaussian(unit), rel=1e-12)


@PROPERTY
@given(KINDS, LAMS, MUS, VS, st.floats(0.62, 12.0))
def test_scale_minimum_scales_onto_the_unit_problem(kind, lam, mu, v, q):
    unit, energy, length = unit_problem(kind, lam, mu, 3, v)
    b_opt, e_min = minimize_scale(problem(kind, lam, mu, 3, v), q)
    b_unit, e_unit = minimize_scale(unit, q)
    assert e_min == pytest.approx(energy * e_unit, rel=1e-12)
    assert b_opt == pytest.approx(length * b_unit, rel=1e-12)


@PROPERTY
@given(KINDS, LAMS, MUS, VS)
def test_optimum_power_depends_only_on_the_kind_and_g(kind, lam, mu, v):
    unit, energy, length = unit_problem(kind, lam, mu, 3, v)
    res, ref = optimize(problem(kind, lam, mu, 3, v)), optimize(unit)
    assert res.q_opt == ref.q_opt
    assert res.energy == pytest.approx(energy * ref.energy, rel=1e-12)
    assert res.b_opt == pytest.approx(length * ref.b_opt, rel=1e-12)


@settings(PROPERTY, max_examples=100)
@given(KINDS, LAMS, MUS, DIMENSIONS, VS)
def test_eigensolver_scales_onto_the_unit_problem(kind, lam, mu, d, v):
    # the grid and the Richardson chain are laid out in units of the Gaussian
    # width, so both solves run the same steps up to rounding
    unit, energy, _ = unit_problem(kind, lam, mu, d, v)
    assert ground_energy(problem(kind, lam, mu, d, v)) == pytest.approx(
        energy * ground_energy(unit), rel=1e-9
    )


@settings(PROPERTY, max_examples=400)
@given(st.one_of(log_uniform(math.log10(0.51), 4.0), log_uniform(4.0, 150.0)))
def test_inverse_moment_is_certified_over_the_whole_q_range(q):
    # C_-1 = E[1/max(s, t)] is a regularized incomplete beta function at 1/2
    # (DLMF 8.17); about half the draws fall below 1e4, a range that spans
    # both quadrature levels the rule reaches, and the rest reach q = 1e150.
    # C_-2 has no such closed form, but it must certify too, and for a large q
    # (a near-uniform ball) it approaches its ball limit 9/4 from within 2/q
    from scipy.special import betainc

    expect = 2.0 * math.gamma(2.0 / q) / math.gamma(3.0 / q) * float(betainc(3.0 / q, 2.0 / q, 0.5))
    assert moment_coeff(q, -1) == pytest.approx(expect, rel=1e-13)
    cm2 = inverse_square_coeff(q)
    assert 0.0 < cm2 < math.inf
    if q >= 1e4:
        assert cm2 == pytest.approx(2.25, rel=2.0 / q)


@PROPERTY
@given(KINDS, st.one_of(st.just(0.0), log_uniform(-8.0, 15.0)))
def test_q_search_agrees_with_a_bounded_search(kind, g):
    # optimize's Brent runs at a loose tolerance; a bounded search at a far
    # tighter one must find the same power and no lower energy
    from scipy.optimize import minimize_scalar

    unit = problem(kind, 1.0, g, 3, 1.0)
    res = optimize(unit)
    ref = minimize_scalar(
        lambda q: minimize_scale(unit, q)[1], bounds=(0.62, 12.0), method="bounded", options={"xatol": 1e-10}
    )
    assert abs(res.q_opt - ref.x) <= 1e-5
    assert res.energy - ref.fun <= 1e-12 * abs(ref.fun)


@PROPERTY
@given(KINDS, LAMS, MUS, VS)
def test_collective_field_bound_lies_in_the_window(kind, lam, mu, v):
    # the cushion of bound_report: at mu = 0 on the oscillator F2 = FG
    # exactly, and the optimized Fphi may land an ulp either side
    prob = problem(kind, lam, mu, 3, v)
    lower, upper = lower_bound(prob), gaussian_upper(prob)
    cushion = 1e-9 * max(1.0, abs(upper))
    assert lower - cushion <= optimize(prob).energy <= upper + cushion


@PROPERTY
@given(KINDS, LAMS, MUS, VS)
def test_gaussian_power_reproduces_the_gaussian_bound(kind, lam, mu, v):
    prob = problem(kind, lam, mu, 3, v)
    assert minimize_scale(prob, 2.0)[1] == pytest.approx(gaussian_upper(prob), rel=1e-12)
