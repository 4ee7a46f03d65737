"""Property tests over the whole input domain.

Each property draws the potential kind, the dimension and log-uniform
couplings; the collective-field properties hold d = 3, the one dimension
that bound covers.  The draws are derandomized, so every run checks the same
examples and the suite stays deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonbounds import (
    Potential,
    PotentialKind,
    Problem,
    gaussian_upper,
    ground_energy,
    lower_bound,
    minimize_scale,
    optimize,
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
    # v multiplies the whole pair potential, so F(v; lam, mu) = F(1; v*lam, v*mu)
    scaled = problem(kind, v * lam, v * mu, d, 1.0)
    prob = problem(kind, lam, mu, d, v)
    for bound in (lower_bound, gaussian_upper):
        assert bound(prob) == pytest.approx(bound(scaled), rel=1e-12)


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
