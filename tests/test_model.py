"""Tests for potential shapes, problem plumbing, and exact model results."""

import math

import numpy as np
import pytest

from bosonbounds import (
    PhysicalSystem,
    Potential,
    PotentialKind,
    Problem,
    classical_floor,
    delta_exact_energy,
    dimensionless_coupling,
    minimum_point,
    potential_value,
    recover_energy,
)


class TestPotential:
    def test_constructors_pick_kinds(self):
        assert Potential.oscillator().kind is PotentialKind.SOFT_CORE_OSCILLATOR
        assert Potential.kratzer().kind is PotentialKind.KRATZER
        assert Potential.oscillator(2.0, 0.5) == Potential(
            PotentialKind.SOFT_CORE_OSCILLATOR, 2.0, 0.5
        )

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
    def test_lam_must_be_positive(self, lam):
        with pytest.raises(ValueError, match="lam"):
            Potential.oscillator(lam, 1.0)

    def test_mu_must_be_nonnegative(self):
        for mu in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="mu"):
                Potential.kratzer(1.0, mu)
        Potential.kratzer(1.0, 0.0)  # boundary allowed

    def test_kind_must_be_enum(self):
        with pytest.raises(ValueError):
            Potential("oscillator", 1.0, 1.0)


class TestProblemAndSystem:
    def test_d_is_integer_at_least_three(self):
        pot = Potential.oscillator()
        for bad in (2, 0, -3, 3.0, "3"):
            with pytest.raises(ValueError):
                Problem(pot, bad, 1.0)
        Problem(pot, 3, 1.0)

    @pytest.mark.parametrize("v", [0.0, -2.0, math.inf, math.nan])
    def test_v_must_be_positive(self, v):
        with pytest.raises(ValueError, match="v must be"):
            Problem(Potential.kratzer(), 3, v)

    def test_physical_system_validation(self):
        with pytest.raises(ValueError):
            PhysicalSystem(N=1, V0=1.0)
        with pytest.raises(ValueError):
            PhysicalSystem(N=2, V0=0.0)
        with pytest.raises(ValueError):
            PhysicalSystem(N=2, V0=1.0, m=-1.0)
        for name in ("V0", "m", "a", "hbar"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                    PhysicalSystem(N=2, **{"V0": 1.0, name: bad})
        phys = PhysicalSystem(N=2, V0=1.0)
        assert (phys.m, phys.a, phys.hbar) == (1.0, 1.0, 1.0)


class TestPotentialValue:
    def test_pointwise_values(self):
        assert potential_value(Potential.oscillator(), 1.0) == pytest.approx(2.0)
        assert potential_value(Potential.kratzer(), 1.0) == pytest.approx(0.0, abs=1e-15)
        assert potential_value(Potential.kratzer(), 2.0) == pytest.approx(-0.25)

    @pytest.mark.parametrize("r", [0.0, -1.0])
    def test_rejects_nonpositive_radius(self, r):
        with pytest.raises(ValueError):
            potential_value(Potential.oscillator(), r)

    def test_oscillator_is_convex(self):
        pot = Potential.oscillator(1.3, 0.7)
        r = np.linspace(0.2, 4.0, 200)
        f = np.array([potential_value(pot, float(x)) for x in r])
        assert np.all(np.diff(f, 2) > 0.0)

    def test_kratzer_changes_sign_once_at_mu_over_lam(self):
        pot = Potential.kratzer(2.0, 0.5)
        crossing = pot.mu / pot.lam
        assert potential_value(pot, crossing) == pytest.approx(0.0, abs=1e-14)
        r = np.linspace(0.01, 10.0, 500)
        signs = np.sign([potential_value(pot, float(x)) for x in r])
        flips = np.count_nonzero(np.diff(signs[signs != 0]))
        assert flips == 1
        assert potential_value(pot, 0.5 * crossing) > 0.0
        assert potential_value(pot, 2.0 * crossing) < 0.0

    def test_small_r_divergence_and_tails(self):
        for pot in (Potential.oscillator(1.0, 0.5), Potential.kratzer(1.0, 0.5)):
            assert potential_value(pot, 1e-8) > 1e12
        # oscillator blows up at infinity, Kratzer approaches 0 from below
        assert potential_value(Potential.oscillator(), 1e4) > 1e7
        far = potential_value(Potential.kratzer(), 1e4)
        assert -1e-3 < far < 0.0


class TestMinimumPoint:
    def test_symmetric_oscillator(self):
        assert minimum_point(Potential.oscillator()) == pytest.approx((1.0, 2.0))

    def test_kratzer(self):
        assert minimum_point(Potential.kratzer()) == pytest.approx((2.0, -0.25))

    def test_stiff_oscillator(self):
        r_hat, f_hat = minimum_point(Potential.oscillator(4.0, 1.0))
        assert r_hat == pytest.approx(0.25**0.25)
        assert r_hat == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert f_hat == pytest.approx(4.0)

    def test_minimum_is_a_minimum(self):
        pot = Potential.kratzer(1.7, 0.9)
        r_hat, f_hat = minimum_point(pot)
        for shift in (0.9, 1.1):
            assert potential_value(pot, r_hat * shift) > f_hat
        assert potential_value(pot, r_hat) == pytest.approx(f_hat, rel=1e-14)

    def test_degenerate_oscillator_core(self):
        assert minimum_point(Potential.oscillator(3.0, 0.0)) == (0.0, 0.0)

    def test_kratzer_without_core_has_no_minimum(self):
        with pytest.raises(ValueError, match="no interior minimum"):
            minimum_point(Potential.kratzer(1.0, 0.0))


class TestCouplingAndRecovery:
    def test_coupling_values(self):
        assert dimensionless_coupling(PhysicalSystem(N=2, V0=1.0)) == pytest.approx(1.0)
        assert dimensionless_coupling(PhysicalSystem(N=100, V0=0.04)) == pytest.approx(2.0)
        assert dimensionless_coupling(PhysicalSystem(N=2, V0=1.0, a=2.0)) == pytest.approx(4.0)

    def test_recovery_values(self):
        assert recover_energy(PhysicalSystem(N=2, V0=1.0), 3.0) == pytest.approx(3.0)
        assert recover_energy(PhysicalSystem(N=11, V0=1.0), -0.25) == pytest.approx(-2.5)
        assert recover_energy(PhysicalSystem(N=2, V0=1.0, a=2.0), 4.0) == pytest.approx(1.0)

    def test_roundtrip_is_identity(self):
        phys = PhysicalSystem(N=7, V0=0.3, m=2.0, a=1.5, hbar=0.7)
        for physical in (-3.2, 0.9, 41.0):
            dimensionless = physical * phys.m * phys.a**2 / ((phys.N - 1) * phys.hbar**2)
            assert recover_energy(phys, dimensionless) == pytest.approx(physical, rel=1e-15)


class TestDeltaExactEnergy:
    def test_reference_points(self):
        assert delta_exact_energy(2, 1.0) == pytest.approx(-0.25)
        assert delta_exact_energy(math.inf, 1.0) == pytest.approx(-1.0 / 6.0)
        assert delta_exact_energy(3, 2.0) == pytest.approx(-8.0 / 9.0)

    def test_increases_with_n_toward_the_large_n_floor(self):
        v = 1.7
        values = [delta_exact_energy(n, v) for n in (2, 3, 5, 10, 100)]
        assert values == sorted(values)
        assert values[-1] < delta_exact_energy(math.inf, v)
        assert values[0] == min(values)

    def test_quadratic_in_v(self):
        assert delta_exact_energy(4, 3.0) == pytest.approx(9.0 * delta_exact_energy(4, 1.0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            delta_exact_energy(1, 1.0)
        with pytest.raises(ValueError):
            delta_exact_energy(2.5, 1.0)
        with pytest.raises(ValueError):
            delta_exact_energy(2, 0.0)
        with pytest.raises(ValueError):
            delta_exact_energy(math.inf, -1.0)


class TestClassicalFloor:
    def test_reference_points(self):
        assert classical_floor(Potential.kratzer(), 2, 1.0) == pytest.approx(-0.25)
        assert classical_floor(Potential.oscillator(), 3, 1.0) == pytest.approx(6.0)
        assert classical_floor(Potential.kratzer(), 2, 0.0) == 0.0

    def test_pair_count_scaling(self):
        pot = Potential.oscillator(2.0, 3.0)
        one_pair = classical_floor(pot, 2, 0.5)
        assert classical_floor(pot, 5, 0.5) == pytest.approx(10.0 * one_pair)

    def test_error_propagation_and_validation(self):
        with pytest.raises(ValueError, match="no interior minimum"):
            classical_floor(Potential.kratzer(1.0, 0.0), 2, 1.0)
        with pytest.raises(ValueError):
            classical_floor(Potential.oscillator(), 1, 1.0)
        with pytest.raises(ValueError):
            classical_floor(Potential.oscillator(), 2, -1.0)
