"""Tests for the shared numerical kernels.

Every quadrature assertion here is against a Gamma-function or special
function identity evaluated through the standard library or scipy.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from bosonbounds.numerics import (
    MinimizeResult,
    MinimizeSpec,
    de_nodes,
    minimize_1d,
)


def de_rule(f, shift=0.0, level=3):
    """One level of the double-exponential rule on (shift, inf).

    The integrand receives (s, u) with s = shift + u, the shifted form the
    soft-core pair moment uses for its inner integral.
    """
    u, w, _ = de_nodes(level)
    return float(np.dot(f(shift + u, u), w))


class TestDeNodes:
    def test_nodes_cover_half_line_monotonically(self):
        s, w, log_s = de_nodes(2)
        assert np.all(np.diff(s) > 0)
        assert np.all(w > 0)
        assert s[0] < 1e-100 and s[-1] > 1e3
        assert np.allclose(log_s, np.log(s), rtol=0, atol=1e-12)

    def test_levels_halve_the_spacing(self):
        s1, _, _ = de_nodes(1)
        s2, _, _ = de_nodes(2)
        assert len(s2) == 2 * len(s1) - 1
        assert s2[::2] == pytest.approx(s1)

    def test_arrays_are_cached_and_frozen(self):
        a = de_nodes(3)
        b = de_nodes(3)
        assert a[0] is b[0]
        with pytest.raises(ValueError):
            a[0][0] = 1.0


class TestSemiInfinite:
    """A single level of ``de_nodes`` on smooth half-line integrands."""

    def test_unit_exponential(self):
        assert de_rule(lambda s, u: np.exp(-s)) == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_second_moment(self):
        val = de_rule(lambda s, u: s * s * np.exp(-s * s))
        assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)

    def test_cubic_exponential(self):
        val = de_rule(lambda s, u: np.exp(-(s**3)))
        assert val == pytest.approx(math.gamma(4.0 / 3.0), rel=1e-10)

    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_power_weighted_moments(self, k, q):
        # s^k exp(-s^q) integrates to Gamma((k+1)/q)/q
        val = de_rule(lambda s, u: s**k * np.exp(-(s**q)))
        assert val == pytest.approx(math.gamma((k + 1) / q) / q, rel=1e-9)


class TestSingularInner:
    """The shifted rule s = t + u on (t, inf), singular at the endpoint."""

    def test_plain_exponential_tail(self):
        assert de_rule(lambda s, u: np.exp(-s), 0.7) == pytest.approx(
            math.exp(-0.7), rel=1e-10
        )

    def test_log_endpoint_singularity(self):
        # shift u = s - 1 turns this into the classic integral of ln(u) e^(-u),
        # which equals -euler_gamma
        val = de_rule(lambda s, u: np.log(u) * np.exp(-s), 1.0)
        assert val == pytest.approx(-np.euler_gamma / math.e, rel=1e-10)

    def test_log_ratio_kernel_against_exponential_integral(self):
        # integral over (t, inf) of ln((s+t)/(s-t)) e^(-s) ds
        #   = e^t (e^(-2t) ln(2t) + E1(2t)) + euler_gamma e^(-t)
        t = 0.6
        val = de_rule(lambda s, u: np.log1p(2.0 * t / u) * np.exp(-s), t)
        expect = (
            math.exp(t) * (math.exp(-2 * t) * math.log(2 * t) + exp1(2 * t))
            + np.euler_gamma * math.exp(-t)
        )
        assert val == pytest.approx(expect, rel=1e-9)


class TestMinimize1d:
    def test_quadratic(self):
        res = minimize_1d(lambda x: (x - 2.0) ** 2, MinimizeSpec(0.0, 5.0))
        assert res.converged
        assert res.x_min == pytest.approx(2.0, abs=1e-6)
        assert res.f_min == pytest.approx(0.0, abs=1e-12)

    def test_am_gm_minimum(self):
        x_min, f_min = minimize_1d(lambda x: x + 1.0 / x, MinimizeSpec(0.1, 10.0))
        assert x_min == pytest.approx(1.0, abs=1e-6)
        assert f_min == pytest.approx(2.0, abs=1e-10)

    def test_result_unpacks_as_pair(self):
        res = minimize_1d(lambda x: x * x, MinimizeSpec(-1.0, 2.0))
        assert isinstance(res, MinimizeResult)
        x, f = res
        assert x == res.x_min and f == res.f_min

    def test_reparameterization_invariance(self):
        f = lambda x: (x - 3.0) ** 2 + 0.5 * x
        direct = minimize_1d(f, MinimizeSpec(0.5, 8.0, tolerance=1e-10))
        logged = minimize_1d(
            lambda y: f(math.exp(y)),
            MinimizeSpec(math.log(0.5), math.log(8.0), tolerance=1e-10),
        )
        assert math.exp(logged.x_min) == pytest.approx(direct.x_min, abs=1e-6)
        assert logged.f_min == pytest.approx(direct.f_min, rel=1e-12)

    def test_budget_exhaustion_returns_best_so_far(self):
        res = minimize_1d(
            lambda x: (x - 2.0) ** 2,
            MinimizeSpec(0.0, 5.0, tolerance=1e-12, max_iterations=3),
        )
        assert not res.converged
        assert res.iterations == 3
        # still a sensible point inside the bracket
        assert 0.0 <= res.x_min <= 5.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MinimizeSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            MinimizeSpec(0.0, 1.0, tolerance=0.0)
        with pytest.raises(ValueError):
            MinimizeSpec(0.0, 1.0, max_iterations=0)
