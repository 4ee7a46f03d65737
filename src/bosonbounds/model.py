"""Potential shapes, problem instances, and exact model-level results.

The N-boson problem with a pair potential V0*f(|ri - rj|) reduces to a
one-body Hamiltonian H = -Laplacian + v*f(r) with the dimensionless
coupling v = N*m*V0*a^2/(2*hbar^2); the physical ground-state energy is
recovered as (N-1)*hbar^2/(m*a^2) times the dimensionless one.

``Potential``, ``Problem`` and ``PhysicalSystem`` are immutable named
tuples that check their fields however they are built: by call, ``_make``,
``_replace``, ``copy`` or unpickling.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

__all__ = [
    "PotentialKind",
    "Potential",
    "Problem",
    "PhysicalSystem",
    "dimensionless_coupling",
    "recover_energy",
    "delta_exact_energy",
]


class PotentialKind(Enum):
    SOFT_CORE_OSCILLATOR = "oscillator"
    KRATZER = "kratzer"


class Potential(namedtuple("Potential", "kind lam mu")):
    """Pair-potential shape f(r).

    SOFT_CORE_OSCILLATOR: f(r) = lam*r**2 + mu/r**2
    KRATZER:              f(r) = -lam/r + mu/r**2
    """

    __slots__ = ()

    def __new__(cls, kind: PotentialKind, lam: float, mu: float):
        if not isinstance(kind, PotentialKind):
            raise ValueError(f"kind must be a PotentialKind, got {kind!r}")
        if not (math.isfinite(lam) and lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {lam}")
        if not (math.isfinite(mu) and mu >= 0.0):
            raise ValueError(f"mu must be non-negative and finite, got {mu}")
        return tuple.__new__(cls, (kind, lam, mu))

    # namedtuple's _make, which _replace calls, skips __new__ and its checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @classmethod
    def oscillator(cls, lam: float = 1.0, mu: float = 1.0) -> "Potential":
        return cls(PotentialKind.SOFT_CORE_OSCILLATOR, lam, mu)

    @classmethod
    def kratzer(cls, lam: float = 1.0, mu: float = 1.0) -> "Potential":
        return cls(PotentialKind.KRATZER, lam, mu)


class Problem(namedtuple("Problem", "potential d v")):
    """A dimensionless bound-state instance: shape, dimension d, coupling v."""

    __slots__ = ()

    def __new__(cls, potential: Potential, d: int, v: float):
        if not isinstance(d, int) or d < 3:
            # d - 2 appears in denominators of every closed form
            raise ValueError(f"d must be an integer >= 3, got {d!r}")
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"v must be positive and finite, got {v}")
        return tuple.__new__(cls, (potential, d, v))

    # namedtuple's _make, which _replace calls, skips __new__ and its checks
    _make = classmethod(lambda cls, fields: cls(*fields))


class PhysicalSystem(namedtuple("PhysicalSystem", "N V0 m a hbar")):
    """Physical N-boson parameters; bridges to the dimensionless problem."""

    __slots__ = ()

    def __new__(cls, N: int, V0: float, m: float = 1.0, a: float = 1.0, hbar: float = 1.0):
        if not isinstance(N, int) or N < 2:
            raise ValueError(f"N must be an integer >= 2, got {N!r}")
        for name, val in (("V0", V0), ("m", m), ("a", a), ("hbar", hbar)):
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        return tuple.__new__(cls, (N, V0, m, a, hbar))

    # namedtuple's _make, which _replace calls, skips __new__ and its checks
    _make = classmethod(lambda cls, fields: cls(*fields))


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
