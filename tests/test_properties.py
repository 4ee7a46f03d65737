"""Property tests over the whole input domain.

Each property draws the potential kind, the dimension and log-uniform
couplings.  The draws are derandomized, so every run checks the same
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


@PROPERTY
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
