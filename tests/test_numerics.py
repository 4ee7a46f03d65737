"""Tests for the shared numerical kernels.

Every quadrature assertion here is against a Gamma-function or special
function identity evaluated through the standard library or scipy.
"""

import math

import numpy as np
import pytest
from scipy.special import exp1

from bosonbounds import numerics
from bosonbounds.numerics import minimize_1d, tanh_sinh_nodes


def unit_rule(f, level=3):
    """One level of the tanh-sinh rule on (0, 1); f receives (x, 1 - x)."""
    x, one_minus_x, w, _ = tanh_sinh_nodes(level)
    return float(np.dot(f(x, one_minus_x), w))


def half_line_rule(f, shift=0.0, level=5):
    """The (0, 1) rule on (shift, inf) through s = shift + u, u = -ln(1 - x).

    The integrand receives (s, u) and is divided by 1 - x, the Jacobian.
    Near x = 1 the node rounds to 1.0, so u comes from the rule's own 1 - x:
    u = log1p(x/(1 - x)), accurate at both ends.
    """

    def mapped(x, one_minus_x):
        u = np.log1p(x / one_minus_x)
        return f(shift + u, u) / one_minus_x

    return unit_rule(mapped, level)


class TestDeNodes:
    """The tanh-sinh rule, the double-exponential rule on (0, 1)."""

    def test_nodes_cover_the_unit_interval_monotonically(self):
        x, one_minus_x, w, log_x = tanh_sinh_nodes(3)
        # x rounds to 1.0 at the last few nodes and 1 - x to 1.0 at the
        # first few; the smaller of the two is strictly monotone
        left = x < 0.5
        assert np.all(np.diff(x[left]) > 0) and np.all(np.diff(one_minus_x[~left]) < 0)
        assert np.all(np.diff(x) >= 0)
        assert np.all(w > 0)
        assert 0.0 < x[0] < 1e-20 and 0.0 < one_minus_x[-1] < 1e-20
        assert np.allclose(log_x, np.log(x), rtol=0, atol=1e-12)
        # near x = 1, log x keeps the digits that x itself rounded away
        assert np.allclose(log_x[~left], np.log1p(-one_minus_x[~left]), rtol=1e-14, atol=0)

    def test_one_minus_x_is_exact_where_x_rounds_to_one(self):
        x, one_minus_x, _, _ = tanh_sinh_nodes(4)
        assert np.all(one_minus_x > 0)
        assert np.any(x == 1.0)
        # wherever x is not rounded away, 1 - x agrees with the subtraction
        mid = one_minus_x > 1e-3
        assert np.allclose(one_minus_x[mid], 1.0 - x[mid], rtol=1e-12, atol=0)
        assert np.allclose(one_minus_x + x, 1.0, rtol=0, atol=2.3e-16)

    @pytest.mark.parametrize("level", [1, 3])
    def test_levels_halve_the_spacing(self, level):
        # the pair moments read the coarser level off the finer one's even
        # nodes, so the nesting must hold bit for bit
        x1, one_minus_x1, w1, log_x1 = tanh_sinh_nodes(level)
        x2, one_minus_x2, w2, log_x2 = tanh_sinh_nodes(level + 1)
        assert len(x2) == 2 * len(x1) - 1
        for fine, coarse in ((x2, x1), (one_minus_x2, one_minus_x1), (log_x2, log_x1)):
            assert np.array_equal(fine[::2], coarse)
        assert np.array_equal(2.0 * w2[::2], w1)

    @pytest.mark.parametrize("k", range(8))
    def test_polynomial_moments_are_exact(self, k):
        assert unit_rule(lambda x, _: x**k) == pytest.approx(1.0 / (k + 1), rel=1e-14)


class TestSemiInfinite:
    """Smooth half-line integrands, carried onto (0, 1) by u = -ln(1 - x)."""

    def test_unit_exponential(self):
        assert half_line_rule(lambda s, u: np.exp(-s)) == pytest.approx(1.0, rel=1e-10)

    def test_gaussian_second_moment(self):
        val = half_line_rule(lambda s, u: s * s * np.exp(-s * s))
        assert val == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)

    def test_cubic_exponential(self):
        val = half_line_rule(lambda s, u: np.exp(-(s**3)))
        assert val == pytest.approx(math.gamma(4.0 / 3.0), rel=1e-10)

    @pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_power_weighted_moments(self, k, q):
        # s^k exp(-s^q) integrates to Gamma((k+1)/q)/q
        val = half_line_rule(lambda s, u: s**k * np.exp(-(s**q)))
        assert val == pytest.approx(math.gamma((k + 1) / q) / q, rel=1e-9)


class TestSingularInner:
    """Logarithmic endpoint singularities, the case the pair moments need."""

    def test_plain_exponential_tail(self):
        assert half_line_rule(lambda s, u: np.exp(-s), 0.7) == pytest.approx(
            math.exp(-0.7), rel=1e-10
        )

    def test_log_endpoint_singularity(self):
        # ln(1/(1-x)) on (0, 1), singular at x = 1, integrates to 1
        assert unit_rule(lambda x, omx: -np.log(omx)) == pytest.approx(1.0, rel=1e-10)
        # the same singularity at u = 0 on the half line: ln(u) e^(-u)
        # integrates to -euler_gamma
        val = half_line_rule(lambda s, u: np.log(u) * np.exp(-s), 1.0)
        assert val == pytest.approx(-np.euler_gamma / math.e, rel=1e-10)

    def test_pair_log_kernel_integrates_to_one(self):
        # x ln((1+x)/(1-x)), the C_-2 kernel without its q-dependent factor
        val = unit_rule(lambda x, omx: x * (np.log1p(x) - np.log(omx)))
        assert val == pytest.approx(1.0, rel=1e-9)

    def test_log_ratio_kernel_against_exponential_integral(self):
        # integral over (t, inf) of ln((s+t)/(s-t)) e^(-s) ds
        #   = e^t (e^(-2t) ln(2t) + E1(2t)) + euler_gamma e^(-t)
        t = 0.6
        val = half_line_rule(lambda s, u: np.log1p(2.0 * t / u) * np.exp(-s), t)
        expect = (
            math.exp(t) * (math.exp(-2 * t) * math.log(2 * t) + exp1(2 * t))
            + np.euler_gamma * math.exp(-t)
        )
        assert val == pytest.approx(expect, rel=1e-9)


class TestMinimize1d:
    def test_quadratic(self):
        res = minimize_1d(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-8)
        assert res.converged
        assert res.x_min == pytest.approx(2.0, abs=1e-6)
        assert res.f_min == pytest.approx(0.0, abs=1e-12)

    def test_am_gm_minimum(self):
        res = minimize_1d(lambda x: x + 1.0 / x, 0.1, 10.0, 1e-8)
        assert res.x_min == pytest.approx(1.0, abs=1e-6)
        assert res.f_min == pytest.approx(2.0, abs=1e-10)

    def test_reparameterization_invariance(self):
        f = lambda x: (x - 3.0) ** 2 + 0.5 * x
        direct = minimize_1d(f, 0.5, 8.0, 1e-10)
        logged = minimize_1d(lambda y: f(math.exp(y)), math.log(0.5), math.log(8.0), 1e-10)
        assert math.exp(logged.x_min) == pytest.approx(direct.x_min, abs=1e-6)
        assert logged.f_min == pytest.approx(direct.f_min, rel=1e-12)

    def test_budget_exhaustion_returns_best_so_far(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITERATIONS", 3)
        res = minimize_1d(lambda x: (x - 2.0) ** 2, 0.0, 5.0, 1e-12)
        assert not res.converged
        assert res.iterations == 3
        # still a sensible point inside the bracket
        assert 0.0 <= res.x_min <= 5.0

    def test_bracket_and_tolerance_validation(self):
        f = lambda x: x * x
        for lo, hi in ((2.0, 1.0), (1.0, 1.0), (math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match="bracket"):
                minimize_1d(f, lo, hi, 1e-8)
        for tol in (0.0, -1e-8, math.nan):
            with pytest.raises(ValueError, match="tol"):
                minimize_1d(f, 0.0, 1.0, tol)
