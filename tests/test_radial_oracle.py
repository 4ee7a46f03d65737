"""Tests for the finite-difference radial eigensolver.

The solver exists to check the closed-form bounds by an independent
route, so most of what matters here is the agreement grid and the
convergence-order evidence that the extrapolation is doing what it
claims.
"""

import itertools
import math

import pytest
import scipy.linalg

from bosonbounds import Potential, PotentialKind, Problem, gaussian_upper, lower_bound, radial_oracle
from bosonbounds.cli import _UNIT_G
from bosonbounds.closed_bounds import sigma2_gaussian
from bosonbounds.radial_oracle import _lowest_eigenvalue, ground_energy


@pytest.fixture
def solves(monkeypatch):
    """The select argument and result size of every eigensolver call."""
    calls = []
    eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

    def spy(*args, **kwargs):
        val = eigh_tridiagonal(*args, **kwargs)
        calls.append((kwargs["select"], val.size))
        return val

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    return calls


def _r_max(prob):
    return radial_oracle._R_MAX_SIZES * math.sqrt(sigma2_gaussian(prob))


class TestReferenceEnergies:
    def test_pure_oscillator_ground_state(self):
        prob = Problem(Potential.oscillator(1.0, 0.0), 3, 1.0)
        assert ground_energy(prob) == pytest.approx(3.0, abs=1e-6)

    def test_soft_core_oscillator_reference_point(self):
        prob = Problem(Potential.oscillator(1.0, 1.0), 3, 2.0)
        assert ground_energy(prob) == pytest.approx(7.07107, abs=1e-5)

    def test_kratzer_reference_point(self):
        prob = Problem(Potential.kratzer(1.0, 1.0), 3, 2.0)
        assert ground_energy(prob) == pytest.approx(-0.25, abs=1e-5)


class TestConvergence:
    def test_second_order_error_decay(self):
        # raw solves (no extrapolation) on the smooth mu = 0 problem must
        # lose error by a factor of four per spacing halving
        prob = Problem(Potential.oscillator(1.0, 0.0), 3, 1.0)
        errors = []
        n = 400
        for _ in range(3):
            e = _lowest_eigenvalue(prob, 12.0, n)
            errors.append(abs(e - 3.0))
            n = 2 * n + 1
        assert 3.5 < errors[0] / errors[1] < 4.5
        assert 3.5 < errors[1] / errors[2] < 4.5

    def test_outer_wall_is_far_enough(self, monkeypatch):
        prob = Problem(Potential.kratzer(1.0, 1.0), 3, 2.0)
        e1 = ground_energy(prob)
        monkeypatch.setattr(radial_oracle, "_R_MAX_SIZES", 2.0 * radial_oracle._R_MAX_SIZES)
        monkeypatch.setattr(radial_oracle, "_N_INTERIOR", 2 * radial_oracle._N_INTERIOR)
        e2 = ground_energy(prob)
        assert abs(e1 - e2) < 1e-8

    def test_refuses_a_mesh_it_cannot_converge_on(self, monkeypatch):
        # an agreement no finite mesh reaches: the refinement budget runs
        # out and the solver raises rather than return the last estimate,
        # naming the orders it removed and the two estimates that disagree
        monkeypatch.setattr(radial_oracle, "_REFINE_RTOL", 1e-16)
        prob = Problem(Potential.oscillator(1.0, 0.05), 3, 1.0)
        with pytest.raises(RuntimeError, match="mesh too coarse") as info:
            ground_energy(prob)
        message = str(info.value)
        assert "at 16063 interior nodes" in message
        assert "orders h**1.095 and h**2 removed" in message
        estimates = message.rpartition("last two estimates ")[2].rstrip(")").split(" and ")
        assert [float(e) for e in estimates] == pytest.approx([lower_bound(prob)] * 2, rel=1e-6)

    @pytest.mark.parametrize("v", [1e-155, 1e-160])
    def test_infinite_outer_wall_is_refused(self, v):
        # sigma2 overflows to inf at these Kratzer couplings; a mesh out to
        # an infinite wall would return 0.0, 100 % off F2
        prob = Problem(Potential.kratzer(1.0, 0.0), 3, v)
        with pytest.raises(RuntimeError, match="sigma2 = inf"):
            ground_energy(prob)

    def test_vanishing_sigma2_denominator_is_named(self):
        prob = Problem(Potential.kratzer(1.0, 0.0), 3, 1e-170)
        with pytest.raises(OverflowError, match="sigma2 overflows"):
            ground_energy(prob)


class TestRichardsonTable:
    @pytest.mark.parametrize(
        "d, mu, orders",
        [
            (3, 0.0, (2.0, 4.0)),
            (4, 0.0, (2.0, 2.0)),
            (3, 1e-4, (1.0002, 2.0)),
            (3, 0.8, (2.0, 2.0494)),
            (3, 50.0, (2.0, 4.0)),
            (5, 0.0, (2.0, 3.0)),
        ],
    )
    def test_orders_removed_per_class(self, d, mu, orders):
        # g = v*mu at v = 1: 2*kappa = sqrt((d-2)**2 + 4g), except d = 3 without
        # a core, whose error series has no singular term
        prob = Problem(Potential.kratzer(1.0, mu), d, 1.0)
        assert radial_oracle._error_orders(prob) == pytest.approx(orders, abs=1e-4)

    @pytest.mark.parametrize(
        "prob",
        [
            Problem(Potential.kratzer(1.0, 0.0), 4, 2.0),
            Problem(Potential.kratzer(1.0, 0.4), 3, 2.0),
            Problem(Potential.kratzer(1.0, 5e-5), 3, 2.0),
        ],
    )
    def test_two_orders_converge_within_four_solves(self, prob, monkeypatch):
        # the degenerate h**2 ln h class (d = 4, mu = 0), the near-degenerate
        # 2*kappa ~ 2.05 and the weak core 2*kappa ~ 1: removing one order
        # alone spends all seven solves on each of them
        solves = []

        def counted(prob, r_max, n, guess):
            solves.append(n)
            return _lowest_eigenvalue(prob, r_max, n, guess)

        monkeypatch.setattr(radial_oracle, "_lowest_eigenvalue", counted)
        assert ground_energy(prob) == pytest.approx(lower_bound(prob), rel=1e-6)
        assert solves[0] == radial_oracle._N_INTERIOR
        assert len(solves) <= 4


class TestWarmStart:
    @pytest.mark.parametrize("n", [501, 1003])
    @pytest.mark.parametrize("kind", list(PotentialKind))
    def test_window_agrees_with_the_full_solve(self, kind, n, solves):
        # the guess is the coarser grid's eigenvalue, as in ground_energy
        for d, g in itertools.product((3, 4, 5, 7), (0.0, 1e-4, 0.8, 50.0)):
            prob = Problem(Potential(kind, 1.0, g), d, 1.0)
            r_max = _r_max(prob)
            full = _lowest_eigenvalue(prob, r_max, n)
            guess = _lowest_eigenvalue(prob, r_max, (n + 1) // 2 - 1)
            solves.clear()
            assert _lowest_eigenvalue(prob, r_max, n, guess) == pytest.approx(full, rel=1e-10, abs=0.0)
            assert solves == [("v", 1)], (d, g)

    def test_uncertified_window_falls_back(self, solves):
        # the window around the second level 7 holds an eigenvalue, but T - lo*I
        # is not positive definite: the ground level 3 lies below it
        prob = Problem(Potential.oscillator(1.0, 0.0), 3, 1.0)
        full = _lowest_eigenvalue(prob, 12.0, 501)
        solves.clear()
        assert _lowest_eigenvalue(prob, 12.0, 501, 7.0) == full
        assert solves == [("v", 1), ("i", 1)]

    @pytest.mark.parametrize("kind", list(PotentialKind))
    def test_empty_window_falls_back(self, kind, solves):
        # a guess 5 % below the ground level (in either sign): nothing in the window
        prob = Problem(Potential(kind, 1.0, 0.0), 3, 1.0)
        r_max = _r_max(prob)
        full = _lowest_eigenvalue(prob, r_max, 501)
        solves.clear()
        assert _lowest_eigenvalue(prob, r_max, 501, full - 0.05 * abs(full)) == full
        assert solves == [("v", 0), ("i", 1)]

    def test_one_full_solve_per_ground_energy(self, solves):
        # verify's oracle grid: every solve after the first is a certified window
        for kind, d, g in itertools.product(PotentialKind, (3, 4, 5), _UNIT_G):
            solves.clear()
            ground_energy(Problem(Potential(kind, 1.0, g), d, 1.0))
            assert [select for select, _ in solves] == ["i"] + ["v"] * (len(solves) - 1), (kind, d, g)


class TestAgreementWithClosedForms:
    @pytest.mark.parametrize("kind", ["oscillator", "kratzer"])
    def test_full_parameter_grid(self, kind):
        make = getattr(Potential, kind)
        worst = 0.0
        for lam, mu, v, d in itertools.product(
            (0.5, 1.0, 2.0), (0.0, 0.05, 0.5, 1.0, 2.0), (1.0, 2.0, 10.0), (3, 5)
        ):
            prob = Problem(make(lam, mu), d, v)
            exact = lower_bound(prob)
            rel = abs(ground_energy(prob) - exact) / abs(exact)
            worst = max(worst, rel)
        assert worst < 1e-5

    @pytest.mark.parametrize(
        "prob",
        [
            Problem(Potential.oscillator(1.0, 1.0), 3, 2.0),
            Problem(Potential.oscillator(0.5, 2.0), 5, 10.0),
            Problem(Potential.kratzer(1.0, 1.0), 3, 2.0),
            Problem(Potential.kratzer(2.0, 0.5), 5, 1.0),
        ],
    )
    def test_eigenvalue_respects_the_variational_bound(self, prob):
        assert ground_energy(prob) <= gaussian_upper(prob) + 1e-5
