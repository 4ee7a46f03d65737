"""Potential shapes, problem instances, and exact model-level results.

The N-boson problem with a pair potential V0*f(|ri - rj|) reduces to a
one-body Hamiltonian H = -Laplacian + v*f(r) with the dimensionless
coupling v = N*m*V0*a^2/(2*hbar^2); the physical ground-state energy is
recovered as (N-1)*hbar^2/(m*a^2) times the dimensionless one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "PotentialKind",
    "Potential",
    "Problem",
    "PhysicalSystem",
    "potential_value",
    "minimum_point",
    "dimensionless_coupling",
    "recover_energy",
    "delta_exact_energy",
    "classical_floor",
]


class PotentialKind(Enum):
    SOFT_CORE_OSCILLATOR = "oscillator"
    KRATZER = "kratzer"


@dataclass(frozen=True)
class Potential:
    """Pair-potential shape f(r).

    SOFT_CORE_OSCILLATOR: f(r) = lam*r**2 + mu/r**2
    KRATZER:              f(r) = -lam/r + mu/r**2
    """

    kind: PotentialKind
    lam: float
    mu: float

    def __post_init__(self):
        if not isinstance(self.kind, PotentialKind):
            raise ValueError(f"kind must be a PotentialKind, got {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu >= 0.0):
            raise ValueError(f"mu must be non-negative and finite, got {self.mu}")

    @classmethod
    def oscillator(cls, lam: float = 1.0, mu: float = 1.0) -> "Potential":
        return cls(PotentialKind.SOFT_CORE_OSCILLATOR, lam, mu)

    @classmethod
    def kratzer(cls, lam: float = 1.0, mu: float = 1.0) -> "Potential":
        return cls(PotentialKind.KRATZER, lam, mu)


@dataclass(frozen=True)
class Problem:
    """A dimensionless bound-state instance: shape, dimension d, coupling v."""

    potential: Potential
    d: int
    v: float

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 3:
            # d - 2 appears in denominators of every closed form
            raise ValueError(f"d must be an integer >= 3, got {self.d!r}")
        if not (math.isfinite(self.v) and self.v > 0.0):
            raise ValueError(f"v must be positive and finite, got {self.v}")


@dataclass(frozen=True)
class PhysicalSystem:
    """Physical N-boson parameters; bridges to the dimensionless problem."""

    N: int
    V0: float
    m: float = 1.0
    a: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")
        for name in ("V0", "m", "a", "hbar"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")


def potential_value(pot: Potential, r: float) -> float:
    """Evaluate the shape f at radius r > 0."""
    if not (math.isfinite(r) and r > 0.0):
        raise ValueError(f"potential_value requires finite r > 0, got {r}")
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        return pot.lam * r * r + pot.mu / (r * r)
    return -pot.lam / r + pot.mu / (r * r)


def minimum_point(pot: Potential) -> tuple[float, float]:
    """Stationary point r_hat of f on (0, inf) and the value f(r_hat).

    Oscillator: r_hat = (mu/lam)**(1/4), f(r_hat) = 2*sqrt(lam*mu); with
    mu = 0 the minimum degenerates to (0, 0).  Kratzer: r_hat = 2*mu/lam,
    f(r_hat) = -lam**2/(4*mu); mu = 0 leaves no interior minimum.
    """
    if pot.kind is PotentialKind.SOFT_CORE_OSCILLATOR:
        if pot.mu == 0.0:
            return 0.0, 0.0
        r_hat = (pot.mu / pot.lam) ** 0.25
        return r_hat, 2.0 * math.sqrt(pot.lam * pot.mu)
    if pot.mu == 0.0:
        raise ValueError("Kratzer with mu = 0 has no interior minimum")
    r_hat = 2.0 * pot.mu / pot.lam
    return r_hat, -pot.lam * pot.lam / (4.0 * pot.mu)


def dimensionless_coupling(phys: PhysicalSystem) -> float:
    """v = N*m*V0*a^2 / (2*hbar^2); raises ValueError if it overflows."""
    v = phys.N * phys.m * phys.V0 * phys.a * phys.a / (2.0 * phys.hbar * phys.hbar)
    if not math.isfinite(v):
        raise ValueError(f"coupling v = N*m*V0*a^2/(2*hbar^2) is not finite, got {v}")
    return v


def recover_energy(phys: PhysicalSystem, E: float) -> float:
    """Physical energy from the dimensionless one: (N-1)*hbar^2/(m*a^2) * E."""
    return (phys.N - 1) * phys.hbar * phys.hbar / (phys.m * phys.a * phys.a) * E


def delta_exact_energy(N, v: float) -> float:
    """Exact ground-state energy parameter of the 1-D attractive delta model.

    F_N(v) = -(1/6)*(1 + 1/N)*v**2 for integer N >= 2; N = math.inf gives
    the large-N limit -v**2/6.
    """
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"v must be positive and finite, got {v}")
    if N == math.inf:
        return -v * v / 6.0
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"N must be an integer >= 2 or math.inf, got {N!r}")
    return -(1.0 / 6.0) * (1.0 + 1.0 / N) * v * v


def classical_floor(pot: Potential, N: int, V0: float) -> float:
    """Static minimum-energy configuration: N*(N-1)/2 * V0 * f(r_hat).

    The value every pair would contribute if all particles sat at the
    pairwise minimum; V0 = 0 is allowed and gives 0.
    """
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"N must be an integer >= 2, got {N!r}")
    if not (math.isfinite(V0) and V0 >= 0.0):
        raise ValueError(f"V0 must be non-negative and finite, got {V0}")
    _, f_hat = minimum_point(pot)
    return 0.5 * N * (N - 1) * V0 * f_hat
