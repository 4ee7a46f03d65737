"""Tests for the closed-form bounds and dimension constants."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from bosonbounds import (
    Potential,
    Problem,
    asymptotic_bounds,
    bound_report,
    gamma_d,
    gaussian_upper,
    lower_bound,
    m_constant,
    sigma2_gaussian,
)


def osc(lam=1.0, mu=1.0, d=3, v=1.0):
    return Problem(Potential.oscillator(lam, mu), d, v)


def kra(lam=1.0, mu=1.0, d=3, v=1.0):
    return Problem(Potential.kratzer(lam, mu), d, v)


class TestLowerBound:
    def test_oscillator_reference_point(self):
        # sqrt(mu*v + (d/2-1)^2) = sqrt(9/4) is exact, so the value is 5*sqrt(2)
        assert lower_bound(osc(v=2.0)) == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-15)

    def test_kratzer_reference_point(self):
        assert lower_bound(kra(v=2.0)) == pytest.approx(-0.25, rel=1e-15)

    def test_collapses_without_core(self):
        assert lower_bound(osc(mu=0.0, v=4.0)) == pytest.approx(6.0, rel=1e-15)


class TestGaussianUpper:
    def test_oscillator_reference_point(self):
        assert gaussian_upper(osc(v=2.0)) == pytest.approx(math.sqrt(66.0), rel=1e-15)

    def test_kratzer_reference_point(self):
        assert gaussian_upper(kra(v=2.0)) == pytest.approx(-4.0 / (5.5 * math.pi), rel=1e-13)

    def test_collapses_without_core(self):
        assert gaussian_upper(osc(mu=0.0, v=4.0)) == pytest.approx(6.0, rel=1e-15)


class TestGammaD:
    def test_low_dimensions(self):
        assert gamma_d(3) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
        assert gamma_d(4) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
        assert gamma_d(5) == pytest.approx(4.0 / (3.0 * math.sqrt(math.pi)), rel=1e-13)

    def test_rejects_bad_dimension(self):
        for bad in (2, 3.0, -1):
            with pytest.raises(ValueError):
                gamma_d(bad)


class TestSigma2:
    def test_reference_points(self):
        assert sigma2_gaussian(osc(mu=0.0)) == pytest.approx(1.5, rel=1e-15)
        expect = 3.0 / (2.0 * math.sqrt(2.0)) * math.sqrt(11.0 / 3.0)
        assert sigma2_gaussian(osc(v=2.0)) == pytest.approx(expect, rel=1e-14)
        assert sigma2_gaussian(kra(mu=0.0)) == pytest.approx(27.0 * math.pi / 8.0, rel=1e-13)

    def test_positive_across_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            prob = Problem(
                Potential.kratzer(rng.uniform(0.1, 10.0), rng.uniform(0.0, 10.0)),
                int(rng.integers(3, 11)),
                rng.uniform(0.1, 50.0),
            )
            assert sigma2_gaussian(prob) > 0.0


class TestAsymptotes:
    def test_oscillator_coefficients(self):
        lo, hi = asymptotic_bounds(osc())
        assert lo == pytest.approx(2.0, rel=1e-15)
        assert hi == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-15)

    def test_kratzer_coefficients(self):
        lo, hi = asymptotic_bounds(kra())
        assert lo == pytest.approx(-0.25, rel=1e-15)
        assert hi == pytest.approx(-0.25 * (2.0 / math.pi), rel=1e-13)

    def test_requires_soft_core(self):
        with pytest.raises(ValueError, match="asymptote undefined"):
            asymptotic_bounds(osc(mu=0.0))

    @pytest.mark.parametrize("make", [osc, kra])
    @pytest.mark.parametrize("lam, mu", [(1.0, 1.0), (4.0, 1.0), (1.7, 0.9), (0.3, 2.5)])
    def test_lower_coefficient_is_the_classical_pair_minimum(self, make, lam, mu):
        # min over r > 0 of f(r), found numerically in y = ln r
        prob = make(lam=lam, mu=mu)
        if make is osc:
            f = lambda r: lam * r * r + mu / (r * r)
        else:
            f = lambda r: -lam / r + mu / (r * r)
        res = minimize_scalar(
            lambda y: f(math.exp(y)), bounds=(-10.0, 10.0), method="bounded",
            options={"xatol": 1e-10},
        )
        assert res.success
        assert asymptotic_bounds(prob)[0] == pytest.approx(res.fun, rel=1e-8)

    def test_bounds_approach_asymptotes_at_strong_coupling(self):
        v = 1e6
        for prob in (osc(lam=0.7, mu=2.0, v=v), kra(lam=0.7, mu=2.0, v=v)):
            asym_lo, asym_hi = asymptotic_bounds(prob)
            assert lower_bound(prob) / (asym_lo * v) == pytest.approx(1.0, abs=2e-3)
            assert gaussian_upper(prob) / (asym_hi * v) == pytest.approx(1.0, abs=2e-3)


class TestMConstant:
    def test_three_dimensions(self):
        assert m_constant(3) == pytest.approx(2.0 / math.pi, rel=1e-13)

    def test_eight_dimensions_exceeds_point_nine(self):
        assert m_constant(8) > 0.9

    def test_monotone_increasing_toward_one(self):
        values = [m_constant(d) for d in range(3, 51)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)
        assert values[-1] > 0.98


class TestOrderingAndScaling:
    def test_lower_never_exceeds_upper_randomized(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            lam = float(rng.uniform(0.1, 10.0))
            mu = float(rng.uniform(0.1, 10.0))
            v = float(rng.uniform(0.1, 50.0))
            d = int(rng.integers(3, 11))
            maker = Potential.oscillator if rng.random() < 0.5 else Potential.kratzer
            prob = Problem(maker(lam, mu), d, v)
            assert lower_bound(prob) < gaussian_upper(prob)

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("v", [1.0, 4.0, 9.0])
    def test_core_free_oscillator_collapse_is_exact(self, d, v):
        lam = 1.3
        prob = osc(lam=lam, mu=0.0, d=d, v=v)
        exact = d * math.sqrt(v * lam)
        assert lower_bound(prob) == pytest.approx(exact, rel=1e-14)
        assert gaussian_upper(prob) == pytest.approx(exact, rel=1e-14)
        # the two routes agree bit-for-bit or to the last ulp
        assert abs(lower_bound(prob) - gaussian_upper(prob)) <= 1e-14 * exact

    def test_oscillator_scales_as_sqrt_lam(self):
        base, scaled = osc(lam=1.0, v=3.0), osc(lam=4.2, v=3.0)
        assert lower_bound(scaled) == pytest.approx(
            math.sqrt(4.2) * lower_bound(base), rel=1e-14
        )
        assert gaussian_upper(scaled) == pytest.approx(
            math.sqrt(4.2) * gaussian_upper(base), rel=1e-14
        )

    def test_kratzer_scales_as_lam_squared(self):
        base, scaled = kra(lam=1.0, v=3.0), kra(lam=4.2, v=3.0)
        assert lower_bound(scaled) == pytest.approx(4.2**2 * lower_bound(base), rel=1e-14)
        assert gaussian_upper(scaled) == pytest.approx(
            4.2**2 * gaussian_upper(base), rel=1e-14
        )

    def test_stronger_core_raises_both_bounds(self):
        for make in (osc, kra):
            for lo_mu, hi_mu in ((0.5, 1.0), (1.0, 3.0)):
                assert lower_bound(make(mu=hi_mu, v=2.0)) > lower_bound(make(mu=lo_mu, v=2.0))
                assert gaussian_upper(make(mu=hi_mu, v=2.0)) > gaussian_upper(
                    make(mu=lo_mu, v=2.0)
                )


class TestBoundReport:
    def test_closed_form_fields(self):
        rep = bound_report(osc(v=2.0))
        assert rep.lower == pytest.approx(5.0 * math.sqrt(2.0))
        assert rep.upper_gaussian == pytest.approx(math.sqrt(66.0))
        assert rep.sigma2 == pytest.approx(sigma2_gaussian(osc(v=2.0)))
        assert rep.asymptote_lower == pytest.approx(2.0)
        assert rep.asymptote_upper == pytest.approx(2.0 * math.sqrt(3.0))
        assert rep.upper_phi is None and rep.q_opt is None and rep.b_opt is None

    def test_core_free_report_has_no_asymptotes(self):
        rep = bound_report(osc(mu=0.0, v=4.0))
        assert rep.asymptote_lower is None and rep.asymptote_upper is None
        assert rep.lower == pytest.approx(rep.upper_gaussian, rel=1e-14)

    def test_window_only_skips_what_it_does_not_report(self):
        # sigma2 = d**3/(2 (v lam gamma_d)**2) overflows at this coupling
        tiny = kra(v=1e-160)
        with pytest.raises(RuntimeError, match="non-finite"):
            bound_report(tiny)
        rep = bound_report(tiny, window_only=True)
        assert rep.sigma2 is None and rep.asymptote_lower is None and rep.asymptote_upper is None
        assert rep.lower == lower_bound(tiny) and rep.upper_gaussian == gaussian_upper(tiny)

    def test_with_variational_upper(self):
        rep = bound_report(kra(v=2.0), include_phi=True)
        assert rep.upper_phi is not None
        assert rep.lower <= rep.upper_phi <= rep.upper_gaussian + 1e-9
        assert rep.q_opt == pytest.approx(2.0, abs=0.05)
        assert rep.b_opt > 0.0

    def test_variational_upper_needs_d3(self):
        with pytest.raises(ValueError, match="d = 3"):
            bound_report(kra(d=5, v=2.0), include_phi=True)
