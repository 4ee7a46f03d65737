"""Tests for potential shapes, problem plumbing, and exact model results."""

import math

import numpy as np
import pytest
from scipy import linalg

from bosonbounds import (
    PhysicalSystem,
    Potential,
    PotentialKind,
    Problem,
    asymptotic_bounds,
    delta_exact_energy,
    dimensionless_coupling,
    lower_bound,
    recover_energy,
)
from bosonbounds.radial_oracle import _lowest_eigenvalue


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


def eigensolver_shape(monkeypatch, pot, h, n):
    """The shape f at r = h, 2h, ..., n*h as the radial eigensolver builds it.

    At d = 3 and v = 1 the diagonal the eigensolver hands to
    eigh_tridiagonal is 2/h**2 + f(r), with no centrifugal term.
    """
    real = linalg.eigh_tridiagonal
    seen = []

    def spy(diag, off, **kwargs):
        seen.append(diag)
        return real(diag, off, **kwargs)

    monkeypatch.setattr(linalg, "eigh_tridiagonal", spy)
    _lowest_eigenvalue(Problem(pot, 3, 1.0), h * (n + 1), n)
    (diag,) = seen
    return h * np.arange(1, n + 1), diag - 2.0 / (h * h)


class TestPotentialValue:
    def test_pointwise_values(self, monkeypatch):
        _, f = eigensolver_shape(monkeypatch, Potential.oscillator(), 1.0, 2)
        assert f[0] == pytest.approx(2.0)
        _, f = eigensolver_shape(monkeypatch, Potential.kratzer(), 1.0, 2)
        assert f[0] == pytest.approx(0.0, abs=1e-15)
        assert f[1] == pytest.approx(-0.25)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_radius(self, r):
        # the one length a caller supplies is the range a, the unit of r in
        # V0*f(r/a); the dimensionless f is only evaluated on the
        # eigensolver's grid of positive radii
        with pytest.raises(ValueError, match="a must be positive and finite"):
            PhysicalSystem(N=2, V0=1.0, a=r)

    def test_oscillator_is_convex(self, monkeypatch):
        _, f = eigensolver_shape(monkeypatch, Potential.oscillator(1.3, 0.7), 0.02, 200)
        assert np.all(np.diff(f, 2) > 0.0)

    def test_kratzer_changes_sign_once_at_mu_over_lam(self, monkeypatch):
        pot = Potential.kratzer(2.0, 0.5)
        crossing = pot.mu / pot.lam
        r, f = eigensolver_shape(monkeypatch, pot, crossing / 2.0, 79)
        assert r[1] == crossing
        assert f[1] == pytest.approx(0.0, abs=1e-14)
        signs = np.sign(f)
        flips = np.count_nonzero(np.diff(signs[signs != 0]))
        assert flips == 1
        assert f[0] > 0.0
        assert f[3] < 0.0

    def test_small_r_divergence_and_tails(self, monkeypatch):
        for pot in (Potential.oscillator(1.0, 0.5), Potential.kratzer(1.0, 0.5)):
            assert eigensolver_shape(monkeypatch, pot, 1e-8, 2)[1][0] > 1e12
        # oscillator blows up at infinity, Kratzer approaches 0 from below
        assert eigensolver_shape(monkeypatch, Potential.oscillator(), 1e4, 2)[1][0] > 1e7
        far = eigensolver_shape(monkeypatch, Potential.kratzer(), 1e4, 2)[1][0]
        assert -1e-3 < far < 0.0


class TestMinimumPoint:
    """The eigensolver's f is least at r_hat, where it equals the lower asymptote.

    Oscillator: r_hat = (mu/lam)**(1/4), f(r_hat) = 2*sqrt(lam*mu).
    Kratzer: r_hat = 2*mu/lam, f(r_hat) = -lam**2/(4*mu).
    """

    @staticmethod
    def least(monkeypatch, pot, r_hat, steps):
        # a grid with r_hat at node `steps`, running out to 3*r_hat
        r, f = eigensolver_shape(monkeypatch, pot, r_hat / steps, 3 * steps - 1)
        i = int(np.argmin(f))
        assert i == steps - 1
        assert f[i] == pytest.approx(asymptotic_bounds(Problem(pot, 3, 1.0))[0], rel=1e-12)
        return r[i], f[i]

    def test_symmetric_oscillator(self, monkeypatch):
        assert self.least(monkeypatch, Potential.oscillator(), 1.0, 2) == pytest.approx((1.0, 2.0))

    def test_kratzer(self, monkeypatch):
        assert self.least(monkeypatch, Potential.kratzer(), 2.0, 4) == pytest.approx((2.0, -0.25))

    def test_stiff_oscillator(self, monkeypatch):
        r_hat, f_hat = self.least(monkeypatch, Potential.oscillator(4.0, 1.0), 0.25**0.25, 4)
        assert r_hat == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)
        assert f_hat == pytest.approx(4.0)

    def test_minimum_is_a_minimum(self, monkeypatch):
        pot = Potential.kratzer(1.7, 0.9)
        r_hat = 2.0 * pot.mu / pot.lam
        _, f_hat = self.least(monkeypatch, pot, r_hat, 10)
        _, f = eigensolver_shape(monkeypatch, pot, r_hat / 10, 29)
        # r_hat * 0.9 and r_hat * 1.1 are the nodes either side of r_hat
        assert f[8] > f_hat and f[10] > f_hat
        assert f_hat == pytest.approx(-pot.lam * pot.lam / (4.0 * pot.mu), rel=1e-12)

    def test_degenerate_oscillator_core(self, monkeypatch):
        # without a core f = lam*r**2 falls to 0 at the origin: no interior
        # minimum, and F2/v goes to that floor of 0 instead of a linear term
        pot = Potential.oscillator(3.0, 0.0)
        _, f = eigensolver_shape(monkeypatch, pot, 0.1, 29)
        assert np.all(np.diff(f) > 0.0)
        assert f[0] == pytest.approx(0.03, rel=1e-9)
        with pytest.raises(ValueError, match="asymptote undefined"):
            asymptotic_bounds(Problem(pot, 3, 1.0))
        slopes = [lower_bound(Problem(pot, 3, v)) / v for v in (1e2, 1e4, 1e8)]
        assert slopes == sorted(slopes, reverse=True)
        assert 0.0 < slopes[-1] < 1e-3

    def test_kratzer_without_core_has_no_minimum(self, monkeypatch):
        # f = -lam/r is unbounded below at the origin, and so is F2/v
        pot = Potential.kratzer(1.0, 0.0)
        _, f = eigensolver_shape(monkeypatch, pot, 1e-6, 99)
        assert np.all(np.diff(f) > 0.0)
        assert f[0] == pytest.approx(-1e6)
        with pytest.raises(ValueError, match="asymptote undefined"):
            asymptotic_bounds(Problem(pot, 3, 1.0))
        for v in (1e2, 1e4, 1e8):
            assert lower_bound(Problem(pot, 3, v)) / v == pytest.approx(-v / 4.0)


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
        for v in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                delta_exact_energy(5, v)


def static_floor(pot, phys):
    """N*(N-1)/2 * V0 * min f, every pair sitting at the minimum of f.

    It is the lower asymptote, coefficient * v, in physical units:
    (N-1)*hbar**2/(m*a**2) * coefficient * N*m*V0*a**2/(2*hbar**2).
    """
    prob = Problem(pot, 3, dimensionless_coupling(phys))
    return recover_energy(phys, asymptotic_bounds(prob)[0] * prob.v)


class TestClassicalFloor:
    def test_reference_points(self):
        assert static_floor(Potential.kratzer(), PhysicalSystem(N=2, V0=1.0)) == pytest.approx(-0.25)
        assert static_floor(Potential.oscillator(), PhysicalSystem(N=3, V0=1.0)) == pytest.approx(6.0)
        # m, a and hbar cancel
        phys = PhysicalSystem(N=3, V0=1.0, m=2.0, a=0.5, hbar=3.0)
        assert static_floor(Potential.oscillator(), phys) == pytest.approx(6.0, rel=1e-14)
        tiny = static_floor(Potential.kratzer(), PhysicalSystem(N=2, V0=1e-12))
        assert tiny == pytest.approx(-0.25e-12)

    def test_pair_count_scaling(self):
        pot = Potential.oscillator(2.0, 3.0)
        one_pair = static_floor(pot, PhysicalSystem(N=2, V0=0.5))
        assert static_floor(pot, PhysicalSystem(N=5, V0=0.5)) == pytest.approx(10.0 * one_pair)

    def test_error_propagation_and_validation(self):
        with pytest.raises(ValueError, match="asymptote undefined"):
            static_floor(Potential.kratzer(1.0, 0.0), PhysicalSystem(N=2, V0=1.0))
        with pytest.raises(ValueError):
            PhysicalSystem(N=1, V0=1.0)
        for V0 in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                PhysicalSystem(N=2, V0=V0)
