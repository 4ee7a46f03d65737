"""Tests for the variational collective-field bound.

C2 is a closed form, C_-1 a closed form summed as a series and C_-2 a
one-dimensional tanh-sinh quadrature; all three are checked independently: against adaptive
quadrature (``scipy.integrate.quad``) of their radial integrals, the
incomplete beta closed form of C_-1, chi-square moments at q = 2, a Monte
Carlo evaluation with the angular average done exactly, and frozen
high-precision values pinned by those cross-checks.
"""

import logging
import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import betainc, gammaincc

from bosonbounds import (
    Potential,
    PotentialKind,
    Problem,
    delta_1d_phi,
    delta_exact_energy,
    gaussian_upper,
    inverse_square_coeff,
    kinetic_coeff,
    lower_bound,
    minimize_scale,
    moment_coeff,
    optimize,
)
from bosonbounds import collective_field
from bosonbounds.numerics import QuadratureError, minimize_1d


def osc(lam=1.0, mu=1.0, v=1.0, d=3):
    return Problem(Potential.oscillator(lam, mu), d, v)


def kra(lam=1.0, mu=1.0, v=1.0, d=3):
    return Problem(Potential.kratzer(lam, mu), d, v)


def half_line(f):
    """Adaptive quadrature of a scalar integrand over (0, inf)."""
    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    return quad(f, 0.0, 1.0, **opts)[0] + quad(f, 1.0, math.inf, **opts)[0]


# Radial references for the unit-scale density s**2 exp(-s**q) / I(q).
# Two independent radii s, t; the angular averages of |r - r'|**p are
# s**2 + t**2 (p = 2), 1/max(s, t) (p = -1) and ln((s+t)/|s-t|)/(2st)
# (p = -2), each integrated here with no code shared with the package.


def ref_norm(q):
    return half_line(lambda s: s * s * math.exp(-(s**q)))


def ref_c2(q):
    return 2.0 * half_line(lambda s: s**4 * math.exp(-(s**q))) / ref_norm(q)


def ref_cm1(q):
    # inner Int_t^inf s exp(-s**q) ds = Gamma(2/q) Q(2/q, t**q) / q
    g = math.gamma(2.0 / q) / q
    outer = half_line(lambda t: t * t * math.exp(-(t**q)) * g * gammaincc(2.0 / q, t**q))
    return 2.0 * outer / ref_norm(q) ** 2


@lru_cache(maxsize=None)
def ref_cm2(q):
    # inner integral in u = s - t, the log singularity at the endpoint u = 0
    def inner(t):
        return half_line(
            lambda u: (t + u) * math.exp(-((t + u) ** q)) * math.log1p(2.0 * t / u)
        )

    return half_line(lambda t: t * math.exp(-(t**q)) * inner(t)) / ref_norm(q) ** 2


def ref_kinetic(q):
    return q * q * half_line(lambda s: s ** (2.0 * q) * math.exp(-(s**q))) / (8.0 * ref_norm(q))


class TestKineticCoeff:
    def test_exact_gamma_points(self):
        assert kinetic_coeff(2.0) == pytest.approx(0.75, rel=1e-14)
        assert kinetic_coeff(1.0) == pytest.approx(0.125, rel=1e-14)
        assert kinetic_coeff(3.0) == pytest.approx(9.0 * math.gamma(7.0 / 3.0) / 8.0, rel=1e-13)

    @pytest.mark.parametrize("q", [1.1, 2.0, 3.7])
    def test_quadrature_route_agrees(self, q):
        # (w')^2/w = q^2 s^(2q-2) w integrated against s^2 ds, over 8 I
        assert kinetic_coeff(q) == pytest.approx(ref_kinetic(q), rel=1e-9)

    def test_rejects_small_q(self):
        for q in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                kinetic_coeff(q)


class TestMomentCoeffs:
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    def test_second_moment_identity(self, q):
        # for independent zero-mean points <|x-y|^2> = 2<x^2>
        expect = 2.0 * math.gamma(5.0 / q) / math.gamma(3.0 / q)
        assert moment_coeff(q, 2) == pytest.approx(expect, rel=1e-8)

    @pytest.mark.parametrize(
        "coeff",
        [
            kinetic_coeff,
            lambda q: moment_coeff(q, 2),
            lambda q: moment_coeff(q, -1),
            inverse_square_coeff,
        ],
        ids=["T", "C2", "Cm1", "Cm2"],
    )
    @pytest.mark.parametrize("q", [0.55, 1.0, 6.0, 12.0])
    def test_positive_and_finite_across_the_bracket(self, q, coeff):
        val = coeff(q)
        assert math.isfinite(val) and val > 0.0

    def test_gaussian_point_chi_family(self):
        # q = 2 makes the difference vector Gaussian, so every coefficient
        # is a chi/chi-square moment with unit-b per-component variance
        assert inverse_square_coeff(2.0) == pytest.approx(1.0, rel=1e-7)
        assert moment_coeff(2.0, -1) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-7)
        assert moment_coeff(2.0, 2) == pytest.approx(3.0, rel=1e-9)

    def test_frozen_high_precision_values(self):
        # pinned by the Monte Carlo cross-check below run at 10^7 samples,
        # then sharpened to full precision with deeper quadrature levels
        assert inverse_square_coeff(3.0) == pytest.approx(1.54978742924075, rel=1e-12)
        assert moment_coeff(3.0, -1) == pytest.approx(1.00215418292921, rel=1e-12)
        assert moment_coeff(5.0, 2) == pytest.approx(1.34300994488415, rel=1e-12)
        assert inverse_square_coeff(5.0) == pytest.approx(2.00881694020752, rel=1e-12)
        assert moment_coeff(5.0, -1) == pytest.approx(1.14421384, rel=1e-8)
        assert moment_coeff(4.5, 2) == pytest.approx(1.39864530, rel=1e-8)
        assert moment_coeff(4.5, -1) == pytest.approx(1.12362142, rel=1e-8)
        assert inverse_square_coeff(4.5) == pytest.approx(1.93751184, rel=1e-8)

    @pytest.mark.parametrize("q", [3.0, 4.5])
    def test_monte_carlo_oracle(self, q):
        """Two independent draws from the trial density, angles averaged exactly.

        The radial law s^2 exp(-s^q) ds becomes a Gamma(3/q) draw under
        x = s^q.  Conditional on radii (s, t) of two isotropic points the
        angular averages are elementary:

            <|x-y|^2>   = s^2 + t^2
            <1/|x-y|>   = 1/max(s, t)            (shell potential)
            <1/|x-y|^2> = ln((s+t)/|s-t|)/(2st)

        which leaves a plain sample mean over radii, sharing no code with
        the closed forms or the tanh-sinh integrator under test.
        """
        rng = np.random.default_rng(2026)
        n = 250_000
        s = rng.gamma(3.0 / q, 1.0, size=n) ** (1.0 / q)
        t = rng.gamma(3.0 / q, 1.0, size=n) ** (1.0 / q)
        checks = (
            (s * s + t * t, moment_coeff(q, 2)),
            (1.0 / np.maximum(s, t), moment_coeff(q, -1)),
            (np.log((s + t) / np.abs(s - t)) / (2.0 * s * t), inverse_square_coeff(q)),
        )
        for sample, coeff in checks:
            mean = float(sample.mean())
            stderr = float(sample.std(ddof=1)) / math.sqrt(n)
            assert stderr < 0.01 * abs(coeff)
            assert abs(mean - coeff) <= 4.0 * stderr

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="inverse_square_coeff"):
            moment_coeff(2.0, -2)
        for p in (-3.0, 0, 1, 1.5):
            with pytest.raises(ValueError, match="p = 2 and p = -1"):
                moment_coeff(2.0, p)
        with pytest.raises(ValueError):
            moment_coeff(0.5, 2)
        with pytest.raises(ValueError):
            inverse_square_coeff(0.4)

    def test_unconverged_rule_raises_with_both_estimates(self, monkeypatch):
        # levels 3 and 4 of C_-2, both read in one pass over level 4, cannot
        # agree to 1e-16, so the certified moment must raise rather than
        # return (called past its per-q cache)
        q = 5.2468
        monkeypatch.setattr(collective_field, "_MAX_LEVEL", collective_field._MIN_LEVEL)
        monkeypatch.setattr(collective_field, "_RTOL", 1e-16)
        with pytest.raises(QuadratureError, match="C_-2 did not converge") as excinfo:
            collective_field._pair_moment.__wrapped__(-2, q)
        monkeypatch.undo()
        lo, hi = excinfo.value.estimates
        assert lo != hi
        for est in (lo, hi):
            assert est == pytest.approx(inverse_square_coeff(q), rel=1e-6)

    @pytest.mark.parametrize("q", [4e154, 1e155])
    @pytest.mark.parametrize("coeff", [lambda q: moment_coeff(q, -1), inverse_square_coeff], ids=["Cm1", "Cm2"])
    def test_overflowing_prefactor_is_named(self, coeff, q):
        # q Gamma(a/q) overflows to inf at 4e154 and Gamma(3/q)**2 too at
        # 1e155 (inf/inf = nan); the (0, 1) integral itself is still finite
        with pytest.raises(OverflowError, match=r"prefactor q Gamma\(\d/q\)/Gamma\(3/q\)\*\*2 is (inf|nan)"):
            coeff(q)

    def test_each_visited_level_is_evaluated_once(self, monkeypatch):
        # one pass over level 4 certifies C_-2 against level 3 on its even
        # nodes, across the q bracket; at q = 1000 the rule must go on to 5.
        # C_-1 is a closed form and reads no level
        weighted_kernel = collective_field._weighted_kernel
        seen = []

        def spy(level):
            seen.append(level)
            return weighted_kernel(level)

        monkeypatch.setattr(collective_field, "_weighted_kernel", spy)
        grid = np.linspace(0.62, 12.0, 32)
        for q in grid:
            collective_field._pair_moment.__wrapped__(-1, float(q))
        assert seen == []
        for q in grid:
            collective_field._pair_moment.__wrapped__(-2, float(q))
        assert seen == [4] * len(grid)
        seen.clear()
        collective_field._pair_moment.__wrapped__(-2, 1000.0)
        assert seen == [4, 5]


class TestIndependentReference:
    """The closed forms and the C_-2 rule against adaptive quadrature."""

    @pytest.mark.parametrize("q", [0.62, 1.0, 2.0, 3.3, 5.0305, 12.0])
    def test_closed_forms_match_radial_quadrature(self, q):
        assert moment_coeff(q, 2) == pytest.approx(ref_c2(q), rel=1e-10)
        assert moment_coeff(q, -1) == pytest.approx(ref_cm1(q), rel=1e-10)

    @pytest.mark.parametrize(
        "q",
        [0.51, 0.62, 1.0, 2.0, 3.3, 5.0305, 8.0, 12.0, 45.0, 1e3, 1e6]
        + [float(q) for q in 10.0 ** np.random.default_rng(2026).uniform(np.log10(0.51), 6.0, 16)],
    )
    def test_inverse_moment_matches_incomplete_beta(self, q):
        # by the shell theorem C_-1 = E[1/max(s, t)]; with s**q and t**q
        # Gamma(3/q) variables that is a regularized incomplete beta
        # function at 1/2 (DLMF 8.17)
        ratio = 2.0 * math.gamma(2.0 / q) / math.gamma(3.0 / q)
        expect = ratio * float(betainc(3.0 / q, 2.0 / q, 0.5))
        assert moment_coeff(q, -1) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("q", [3.0, 4.46, 5.0305])
    def test_inverse_square_matches_nested_quadrature(self, q):
        assert inverse_square_coeff(q) == pytest.approx(ref_cm2(q), rel=1e-10)

    @pytest.mark.parametrize("q", [0.51, 2.0, 45.0, 46.0, 1e3, 1e4])
    def test_inverse_square_matches_split_quadrature(self, q):
        # the (0, 1) integral of C_-2 by adaptive quadrature, split at
        # 1 - 1/q where (1 + x**q)**(-4/q) steps down at large q; 45 and 46
        # lie on either side of the rule's switch from level 4 to level 5
        def integrand(x):
            return x * (math.log1p(x) - math.log1p(-x)) * (1.0 + x**q) ** (-4.0 / q)

        split = max(0.5, 1.0 - 1.0 / q)
        opts = dict(epsabs=1e-15, epsrel=1e-13, limit=200)
        integral = quad(integrand, 0.0, split, **opts)[0] + quad(integrand, split, 1.0, **opts)[0]
        expect = q * math.gamma(4.0 / q) / math.gamma(3.0 / q) ** 2 * integral
        assert inverse_square_coeff(q) == pytest.approx(expect, rel=1e-13)

    def test_ball_limits(self):
        # as q grows the density tends to the uniform unit ball, whose pair
        # moments are <1/|r - r'|> = 6/5 and <1/|r - r'|**2> = 9/4
        assert moment_coeff(1e6, -1) == pytest.approx(1.2, rel=1e-5)
        assert inverse_square_coeff(1e6) == pytest.approx(2.25, rel=1e-5)

    def test_strong_coupling_optimum_beats_the_reference_power(self):
        # oscillator, lam = mu = 1, v = 20: E(q) = 2 sqrt((T + v Cm2) v C2)
        # from the reference moments alone; the reference power 4.460 gives
        # 67.6005, and the optimize result 5.0305 lies lower
        v = 20.0

        def energy(q):
            return 2.0 * math.sqrt((ref_kinetic(q) + v * ref_cm2(q)) * v * ref_c2(q))

        assert energy(4.46) == pytest.approx(67.6005, abs=5e-5)
        assert energy(5.0305) < energy(4.46)
        assert energy(5.0305) == pytest.approx(67.5646, abs=5e-5)


def trial_energy(prob, b, q):
    """E(b) at power q, assembled from the public coefficients alone.

    oscillator: (T + v mu C-2)/b**2 + v lam C2 b**2
    Kratzer:    (T + v mu C-2)/b**2 - v lam C-1/b
    """
    pot, v = prob.potential, prob.v
    a = kinetic_coeff(q) + v * pot.mu * inverse_square_coeff(q)
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return a / (b * b) + v * pot.lam * moment_coeff(q, 2) * b * b
    return a / (b * b) - v * pot.lam * moment_coeff(q, -1) / b


class TestEnergyAssembly:
    def test_core_free_oscillator_recovers_the_exact_value(self):
        prob = osc(mu=0.0)
        b_opt, _ = minimize_scale(prob, 2.0)
        assert trial_energy(prob, b_opt, 2.0) == pytest.approx(3.0, rel=1e-9)

    def test_gaussian_point_reproduces_the_closed_upper_bound(self):
        prob = osc(v=2.0)
        b_opt, energy = minimize_scale(prob, 2.0)
        assert energy == pytest.approx(math.sqrt(66.0), rel=1e-9)
        assert trial_energy(prob, b_opt, 2.0) == pytest.approx(energy, rel=1e-12)

        prob = kra(v=2.0)
        b_opt, energy = minimize_scale(prob, 2.0)
        assert energy == pytest.approx(-4.0 / (5.5 * math.pi), rel=1e-9)
        assert trial_energy(prob, b_opt, 2.0) == pytest.approx(energy, rel=1e-12)

    def test_core_free_kratzer_gaussian_point(self):
        _, energy = minimize_scale(kra(mu=0.0), 2.0)
        assert energy == pytest.approx(-(2.0 / math.pi) / 3.0, rel=1e-9)

    def test_scale_minimum_agrees_with_numerical_search(self):
        for prob, q in ((osc(v=2.0), 2.8), (kra(lam=1.3, mu=0.6, v=5.0), 2.2)):
            b_opt, energy = minimize_scale(prob, q)
            res = minimize_1d(
                lambda y: trial_energy(prob, math.exp(y), q),
                math.log(b_opt) - 1.0,
                math.log(b_opt) + 1.0,
                1e-10,
            )
            assert res.f_min == pytest.approx(energy, rel=1e-8)
            assert math.exp(res.x_min) == pytest.approx(b_opt, rel=1e-5)

    def test_gaussian_equivalence_randomized(self):
        rng = np.random.default_rng(5)
        for make in (osc, kra):
            for _ in range(5):
                prob = make(
                    lam=float(rng.uniform(0.2, 5.0)),
                    mu=float(rng.uniform(0.2, 5.0)),
                    v=float(rng.uniform(0.5, 20.0)),
                )
                _, energy = minimize_scale(prob, 2.0)
                assert energy == pytest.approx(gaussian_upper(prob), rel=1e-7)

    def test_three_dimensions_only(self):
        with pytest.raises(ValueError, match="d = 3"):
            minimize_scale(kra(d=5), 2.0)
        with pytest.raises(ValueError, match="d = 3"):
            optimize(osc(d=4))


class TestOptimize:
    def test_oscillator_weak_coupling_optimum(self):
        res = optimize(osc(v=2.0))
        assert res.converged
        assert res.q_opt == pytest.approx(2.8587254282025905, abs=2e-5)
        assert res.energy == pytest.approx(8.00537659614516, rel=1e-8)

    def test_oscillator_strong_coupling_optimum(self):
        # the optimum power at v = 20, confirmed by an independent adaptive
        # quadrature of the raw energy functional and by Monte Carlo
        # evaluation; the energy at this power is strictly below the value
        # at any other power tried, 4.46 included (see next test)
        res = optimize(osc(v=20.0))
        assert res.converged
        assert res.q_opt == pytest.approx(5.030464951272659, abs=2e-5)
        assert res.energy == pytest.approx(67.56461914415176, rel=1e-8)

    def test_strong_coupling_valley_is_where_optimize_says(self):
        prob = osc(v=20.0)
        res = optimize(prob)
        for q_other in (4.0, 4.46, 4.8, 5.5, 6.0):
            _, energy = minimize_scale(prob, q_other)
            assert res.energy < energy

    def test_kratzer_optima(self):
        res2 = optimize(kra(v=2.0))
        assert res2.q_opt == pytest.approx(2.0011207448818675, abs=2e-5)
        assert res2.energy == pytest.approx(-0.23149810979051907, rel=1e-8)
        res20 = optimize(kra(v=20.0))
        assert res20.q_opt == pytest.approx(3.2278395823269146, abs=2e-5)
        assert res20.energy == pytest.approx(-3.1067490453766076, rel=1e-8)

    def test_intermediate_couplings_pin_the_optimum_curve(self):
        # frozen from the same independently cross-checked optimizer runs
        expectations = {
            (osc, 5.0): 3.5460,
            (osc, 10.0): 4.2305,
            (osc, 15.0): 4.6869,
            (kra, 5.0): 2.3795,
            (kra, 10.0): 2.7733,
            (kra, 15.0): 3.0347,
        }
        for (make, v), q_expected in expectations.items():
            assert optimize(make(v=v)).q_opt == pytest.approx(q_expected, abs=3e-3)

    def test_result_is_self_consistent(self):
        res = optimize(kra(v=7.0))
        b_again, e_again = minimize_scale(kra(v=7.0), res.q_opt)
        assert b_again == pytest.approx(res.b_opt, rel=1e-12)
        assert e_again == pytest.approx(res.energy, rel=1e-12)

    def test_minimum_on_the_bracket_edge_is_logged(self, monkeypatch, caplog):
        logger = "bosonbounds.collective_field"
        with caplog.at_level(logging.WARNING, logger=logger):
            optimize(osc(v=2.0))
        assert caplog.records == []
        # a bracket lying wholly above the optimum (q = 2.8587) is lowest at
        # its lower end, and one wholly below it at its upper end; the
        # search ends within 2*_Q_TOL*q of that edge
        for name, edge in (("_Q_LO", 4.0), ("_Q_HI", 2.0)):
            caplog.clear()
            with monkeypatch.context() as patch:
                patch.setattr(collective_field, name, edge)
                with caplog.at_level(logging.WARNING, logger=logger):
                    res = optimize(osc(v=2.0))
            assert [r.levelno for r in caplog.records] == [logging.WARNING]
            assert f"bracket edge q = {edge:g}" in caplog.text
            assert res.q_opt == pytest.approx(edge, abs=2.0 * collective_field._Q_TOL * edge)

    @pytest.mark.parametrize("kind", list(PotentialKind))
    def test_unit_energy_has_one_interior_minimum(self, kind, caplog):
        # the evidence for a single Brent search over the whole bracket: on
        # the unit problem lam = v = 1, mu = g, built here from the public
        # coefficients, E(q) falls to one interior valley and rises again
        oscillator = kind is PotentialKind.SOFT_CORE_OSCILLATOR
        q = np.linspace(0.62, 12.0, 400)
        t = np.array([kinetic_coeff(x) for x in q])
        cm2 = np.array([inverse_square_coeff(x) for x in q])
        pair = np.array([moment_coeff(x, 2 if oscillator else -1) for x in q])
        for g in [0.0, *np.logspace(-10.0, 15.0, 26)]:
            a = t + g * cm2
            e = 2.0 * np.sqrt(a * pair) if oscillator else -pair**2 / (4.0 * a)
            interior = np.flatnonzero((e[1:-1] < e[:-2]) & (e[1:-1] < e[2:])) + 1
            assert len(interior) == 1, (g, q[interior])
            assert interior[0] == np.argmin(e)
            with caplog.at_level(logging.WARNING, logger="bosonbounds.collective_field"):
                res = optimize(Problem(Potential(kind, 1.0, float(g)), 3, 1.0))
            assert abs(res.q_opt - q[interior[0]]) <= q[1] - q[0], g
        assert caplog.records == []

    @pytest.mark.parametrize("make, q_ends", [(osc, (2.0, 9.425073)), (kra, (1.601319, 4.987986))])
    def test_optimum_rises_with_g_inside_the_bracket(self, make, q_ends, caplog):
        # lam = v = 1, so mu is the soft-core coupling g itself
        with caplog.at_level(logging.WARNING, logger="bosonbounds.collective_field"):
            q = [optimize(make(mu=g)).q_opt for g in (0.0, 1e-3, 1.0, 1e3, 1e8, 1e15)]
        assert caplog.records == []
        assert q == sorted(q)
        assert (q[0], q[-1]) == pytest.approx(q_ends, abs=2e-5)

    @pytest.mark.parametrize("make, mu, v", [(kra, 0.0, 1e-160)])
    def test_extreme_couplings_find_the_unit_optimum(self, make, mu, v, caplog):
        # the energies of this problem are subnormal at every q, while those
        # of the unit problem lam = v = 1, mu = v*mu are not
        with caplog.at_level(logging.WARNING, logger="bosonbounds.collective_field"):
            res = optimize(make(mu=mu, v=v))
        assert caplog.records == []
        assert res.q_opt == optimize(make(mu=v * mu)).q_opt

    def test_overflowing_soft_core_coupling_raises(self):
        with pytest.raises(OverflowError, match=r"g = v\*mu"):
            optimize(osc(mu=1e10, v=1e300))

    def test_overflowing_energy_raises(self, caplog):
        # g = 1e300 is finite and the unit search succeeds (q_opt 9.4251),
        # but the problem's own energy overflows at every q
        with pytest.raises(OverflowError, match="energy inf"):
            minimize_scale(osc(v=1e300), 2.0)
        with caplog.at_level(logging.WARNING, logger="bosonbounds.collective_field"):
            with pytest.raises(OverflowError, match="q = 9.425"):
                optimize(osc(v=1e300))
        assert caplog.records == []

    def test_underflowing_energy_raises(self, caplog):
        # the unit search succeeds (q_opt 1.6013), but the problem's own
        # energy -C**2/(4*A) underflows to -0.0 at every q
        with pytest.raises(OverflowError, match="energy -0.0"):
            minimize_scale(kra(mu=0.0, v=1e-300), 2.0)
        with caplog.at_level(logging.WARNING, logger="bosonbounds.collective_field"):
            with pytest.raises(OverflowError, match="q = 1.601"):
                optimize(kra(mu=0.0, v=1e-300))
        assert caplog.records == []

    @pytest.mark.parametrize("v", [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0])
    @pytest.mark.parametrize("make", [osc, kra])
    def test_upper_bound_chain(self, make, v):
        prob = make(v=v)
        res = optimize(prob)
        assert lower_bound(prob) <= res.energy <= gaussian_upper(prob) + 1e-9


class TestDelta1d:
    def test_constrained_gaussian_point_is_exact(self):
        res = delta_1d_phi(1.0, q=2.0)
        assert res.energy == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-12)
        assert res.q_opt == 2.0
        assert res.converged

    def test_full_optimum(self):
        res = delta_1d_phi(1.0)
        assert res.converged
        assert res.energy == pytest.approx(-0.164868, abs=1e-4)
        assert res.energy == pytest.approx(-0.16486861869027464, rel=1e-10)
        assert res.q_opt == pytest.approx(1.6120693564010917, abs=1e-6)
        assert res.b_opt > 0.0

    @staticmethod
    def stationarity(q):
        # d ln|E|/dq = 0 for E(q) = -2**(1 - 2/q)/(4 Gamma(1/q) Gamma(2 - 1/q))
        return math.pi / math.tan(math.pi / q) + q / (q - 1.0) - 2.0 * math.log(2.0)

    def test_optimum_power_is_the_stationary_root(self):
        q_opt = collective_field._DELTA_Q_OPT
        assert brentq(self.stationarity, 1.5, 1.7) == pytest.approx(q_opt, abs=1e-14)
        assert self.stationarity(q_opt * (1.0 - 1e-9)) < 0.0 < self.stationarity(q_opt * (1.0 + 1e-9))
        assert delta_1d_phi(1.0).q_opt == q_opt
        energy = delta_1d_phi(1.0).energy
        assert energy < delta_1d_phi(1.0, q=q_opt * (1.0 - 1e-3)).energy
        assert energy < delta_1d_phi(1.0, q=q_opt * (1.0 + 1e-3)).energy

    def test_makes_no_search(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("minimize_1d called")

        monkeypatch.setattr(collective_field, "minimize_1d", no_search)
        for v in (0.5, 7.3):
            assert delta_1d_phi(v).q_opt == collective_field._DELTA_Q_OPT
        with pytest.raises(AssertionError, match="minimize_1d called"):
            optimize(osc())

        def names(code):
            yield from code.co_names
            for const in code.co_consts:
                if hasattr(const, "co_names"):
                    yield from names(const)

        callers = [
            name
            for name, f in vars(collective_field).items()
            if hasattr(f, "__code__") and "minimize_1d" in names(f.__code__)
        ]
        assert callers == ["optimize"]

    @pytest.mark.parametrize("v", [0.5, 1.0, 3.0])
    def test_sech_squared_attains_the_exact_large_n_energy(self, v):
        # phi = (v/2) sech(v x)**2 is normalized, and its kinetic and pair
        # terms are v**2/6 and v**2/3, so the functional reaches
        # -v**2/6 = delta_exact_energy(inf, v); cosh overflows on the whole
        # line, and the tails past |x| = 60/v are below exp(-120)
        def phi(x):
            return 0.5 * v / math.cosh(v * x) ** 2

        def dphi(x):
            return -v * v * math.tanh(v * x) / math.cosh(v * x) ** 2

        def line(f):
            return 2.0 * quad(f, 0.0, 60.0 / v, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        kinetic = line(lambda x: dphi(x) ** 2 / phi(x)) / 8.0
        pair = v * line(lambda x: phi(x) ** 2)
        assert line(phi) == pytest.approx(1.0, rel=1e-10)
        assert kinetic == pytest.approx(v * v / 6.0, rel=1e-10)
        assert pair == pytest.approx(v * v / 3.0, rel=1e-10)
        exact = delta_exact_energy(math.inf, v)
        assert kinetic - pair == pytest.approx(exact, rel=1e-10)
        # the q-family's optimum lies 1.08 % above it: sech**2 is not in the family
        gap = (delta_1d_phi(v).energy - exact) / abs(exact)
        assert gap == pytest.approx(0.0107883, abs=1e-6)

    def test_optimum_beats_the_gaussian_point(self):
        assert delta_1d_phi(1.0).energy < delta_1d_phi(1.0, q=2.0).energy

    @pytest.mark.parametrize("v", [0.5, 3.7, 12.0])
    def test_energy_scales_as_v_squared(self, v):
        base = delta_1d_phi(1.0).energy
        assert delta_1d_phi(v).energy == pytest.approx(v * v * base, rel=1e-8)

    def test_optimum_power_does_not_depend_on_v(self):
        # E scales as v**2, so q_opt is one constant for every v
        assert {delta_1d_phi(v).q_opt for v in (1e-150, 1.0, 7.3, 1e100)} == {delta_1d_phi(1.0).q_opt}

    @pytest.mark.parametrize("v, q", [(1e200, None), (1e200, 2.0), (1e-310, None), (1e-200, None), (1e-200, 2.0)])
    def test_overflowing_result_raises(self, v, q):
        # the energy -v**2 U1**2/(4 T1) overflows to -inf at v = 1e200 and
        # underflows to -0.0 at v = 1e-200, and the width 2 T1/(v U1)
        # overflows to inf at v = 1e-310
        with pytest.raises(OverflowError, match="not finite"):
            delta_1d_phi(v, q=q)

    @pytest.mark.parametrize("q", [1.0, 1.2, 2.0, 3.5])
    def test_coefficients_agree_with_direct_quadrature(self, q):
        """Recover T1 and U1 from the public result and re-derive them.

        From b = 2 T1/(v U1) and E = -T1/b**2 the two coefficients are
        T1 = -E b**2 and U1 = 2 T1/(v b).  The quadrature route evaluates
        the defining integrals of the one-dimensional functional directly:
        kinetic (1/8) Int (w')^2/w dx over Int w dx, and Int w^2 over
        (Int w)^2, both on the half line by symmetry.
        """
        v = 1.0
        res = delta_1d_phi(v, q=q)
        t1 = -res.energy * res.b_opt**2
        u1 = 2.0 * t1 / (v * res.b_opt)

        norm = half_line(lambda s: math.exp(-(s**q)))
        kin = half_line(lambda s: q * q * s ** (2.0 * q - 2.0) * math.exp(-(s**q)))
        sq = half_line(lambda s: math.exp(-2.0 * (s**q)))
        assert t1 == pytest.approx(kin / (8.0 * norm), rel=1e-9)
        assert u1 == pytest.approx(sq / (2.0 * norm * norm), rel=1e-9)

    def test_rejects_nonpositive_coupling(self):
        for v in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                delta_1d_phi(v)
