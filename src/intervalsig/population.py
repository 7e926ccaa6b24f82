"""Risk types, population profiles, and i.i.d. population renewal.

Each period the population is redrawn: either every type's share is
jittered uniformly around 1/K (with the last type absorbing the
remainder), or a profile is drawn from a finite set of atoms.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .network import ValidationError


@dataclass(frozen=True)
class TypeSet:
    """Ordered risk weights in [0, 1]; higher means more optimistic."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omegas",
                           tuple(float(w) for w in self.omegas))
        if not self.omegas:
            raise ValidationError("type set cannot be empty")
        if any(not 0.0 <= w <= 1.0 for w in self.omegas):
            raise ValidationError("risk weights must lie in [0, 1]")
        if any(a >= b for a, b in zip(self.omegas, self.omegas[1:])):
            raise ValidationError("risk weights must be strictly increasing")

    def __len__(self):
        return len(self.omegas)


def uniform_type_set(count: int) -> TypeSet:
    """Evenly spaced risk weights including both endpoints."""
    if count < 2:
        raise ValidationError("uniform type set needs at least 2 types")
    return TypeSet(tuple(k / (count - 1) for k in range(count)))


@dataclass(frozen=True)
class PopulationProfile:
    """Share of agents per risk type; a probability vector."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           tuple(float(w) for w in self.weights))
        if any(w < 0 for w in self.weights):
            raise ValidationError("profile weights must be >= 0")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValidationError(
                f"profile weights sum to {sum(self.weights)}, expected 1")


@dataclass(frozen=True)
class RenewalProcess:
    kind: str  # "uniform_perturbation" | "finite_support"
    type_count: int | None = None
    epsilon: float | None = None
    atoms: tuple[tuple[PopulationProfile, float], ...] | None = None


def uniform_perturbation(type_count: int, epsilon: float) -> RenewalProcess:
    if type_count < 1:
        raise ValidationError("need at least one type")
    if not 0.0 <= epsilon < 1.0 / type_count:
        raise ValidationError(
            f"epsilon must lie in [0, 1/{type_count}), got {epsilon}")
    return RenewalProcess("uniform_perturbation", type_count=type_count,
                          epsilon=float(epsilon))


def finite_support(atoms) -> RenewalProcess:
    atoms = tuple((profile, float(d)) for profile, d in atoms)
    if not atoms:
        raise ValidationError("finite support needs at least one atom")
    if any(not 0.0 < d <= 1.0 for _, d in atoms):
        raise ValidationError("atom probabilities must lie in (0, 1]")
    if abs(sum(d for _, d in atoms) - 1.0) > 1e-12:
        raise ValidationError("atom probabilities must sum to 1")
    return RenewalProcess("finite_support", atoms=atoms)


def sample_profile(process: RenewalProcess,
                   rng: np.random.Generator) -> PopulationProfile:
    """One i.i.d. draw of the population profile.

    Under uniform perturbation the first K-1 shares are U(1/K-eps,
    1/K+eps) and the last takes the remainder; vectors with a negative
    remainder are rejected and redrawn whole.
    """
    if process.kind == "finite_support":
        u = rng.random()
        acc = 0.0
        for profile, d in process.atoms:
            acc += d
            if u < acc:
                return profile
        return process.atoms[-1][0]
    k = process.type_count
    nominal = 1.0 / k
    while True:
        head = rng.uniform(nominal - process.epsilon,
                           nominal + process.epsilon, size=k - 1)
        rest = 1.0 - head.sum()
        if rest >= 0.0 and np.all(head >= 0.0):
            return PopulationProfile(tuple(head) + (rest,))


def derived_rng(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Named substream of the master seed; stable across runs and
    platforms (the label enters the seed sequence as its CRC-32).  A
    negative seed is a ``ValidationError``."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    tag = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), tag, *indices]))
