"""Risk types, population profiles, and i.i.d. population renewal.

Each period the population is redrawn under one of two renewal laws,
each its own type: ``UniformPerturbation`` jitters every type's share
uniformly around 1/K (with the last type absorbing the remainder), and
``FiniteSupport`` draws a profile from a finite set of atoms, whose
weight matrix and running probabilities it derives once.  The draws
never depend on the signal, so ``sample_profile``, the one draw entry
point for both laws, draws a whole run's shares in one block.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from .network import ValidationError, read_only, require_int, require_real


@dataclass(frozen=True)
class TypeSet:
    """Ordered risk weights in [0, 1]; higher means more optimistic."""

    omegas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "omegas", tuple(
            require_real(w, "risk weight") for w in self.omegas))
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
    count = require_int(count, "type count", 2)
    return TypeSet(tuple(k / (count - 1) for k in range(count)))


@dataclass(frozen=True)
class PopulationProfile:
    """Share of agents per risk type; a probability vector."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(
            require_real(w, "profile weight") for w in self.weights))
        # NaN fails the comparison
        if not all(w >= 0 for w in self.weights):
            raise ValidationError(
                f"profile weights must be >= 0, got {self.weights}")
        if abs(sum(self.weights) - 1.0) > 1e-12:
            raise ValidationError(
                f"profile weights sum to {sum(self.weights)}, expected 1")


class RenewalProcess:
    """How the population profile is redrawn each period: a
    ``UniformPerturbation`` or a ``FiniteSupport``.  Both are frozen and
    checked at construction, and both expose ``type_count``; the bare
    base is no law, and building it is a ``ValidationError``."""

    def __new__(cls, *args, **kwargs):
        if cls is RenewalProcess:
            raise ValidationError("a renewal process is a "
                                  "UniformPerturbation or a FiniteSupport")
        return super().__new__(cls)


@dataclass(frozen=True)
class UniformPerturbation(RenewalProcess):
    """Each of the first K-1 shares jittered within ``epsilon`` of 1/K,
    the last taking the remainder.  A type count that is not an integer
    of at least 1, or an epsilon that is not a real number in [0, 1/K),
    is a ``ValidationError``."""

    type_count: int
    epsilon: float

    def __post_init__(self):
        object.__setattr__(self, "type_count", require_int(
            self.type_count, "type count", 1))
        epsilon = require_real(self.epsilon, "epsilon")
        if not 0.0 <= epsilon < 1.0 / self.type_count:
            raise ValidationError(
                f"epsilon must lie in [0, 1/{self.type_count}), "
                f"got {epsilon}")
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True)
class FiniteSupport(RenewalProcess):
    """A profile drawn from ``atoms``, (profile, probability) pairs whose
    profiles are ``PopulationProfile``s of one width.  No atoms, an atom
    that is no such pair, atoms of two widths, or probabilities outside
    (0, 1] or not summing to 1 are a ``ValidationError``.  ``weights``
    (the ``(atoms, K)`` profile matrix) and ``cumulative`` (the running
    probabilities) are derived once, read-only and outside equality and
    ``repr``."""

    atoms: tuple[tuple[PopulationProfile, float], ...]
    weights: np.ndarray = field(init=False, repr=False, compare=False)
    cumulative: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        atoms = tuple(map(_checked_atom, self.atoms))
        if not atoms:
            raise ValidationError("finite support needs at least one atom")
        if len({len(profile.weights) for profile, _ in atoms}) > 1:
            raise ValidationError(
                "finite support atoms must all have the same width")
        if any(not 0.0 < d <= 1.0 for _, d in atoms):
            raise ValidationError("atom probabilities must lie in (0, 1]")
        if abs(sum(d for _, d in atoms) - 1.0) > 1e-12:
            raise ValidationError("atom probabilities must sum to 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", read_only(np.array(
            [profile.weights for profile, _ in atoms])))
        object.__setattr__(self, "cumulative", read_only(np.cumsum(
            [d for _, d in atoms])))

    @property
    def type_count(self) -> int:
        return self.weights.shape[1]


def _checked_atom(atom) -> tuple[PopulationProfile, float]:
    """A finite-support atom as a (profile, probability) pair, once it is
    checked to be a ``PopulationProfile`` and a real number."""
    try:
        profile, probability = atom
    except (TypeError, ValueError):
        profile = probability = None
    if not isinstance(profile, PopulationProfile):
        raise ValidationError(
            "finite support atoms must pair a PopulationProfile "
            f"with a probability, got {atom!r}")
    return profile, require_real(probability, "atom probability")


# the factory names, which the engine, scripts and benchmark call
uniform_perturbation, finite_support = UniformPerturbation, FiniteSupport


def sample_profile(process: RenewalProcess, rng: np.random.Generator,
                   count: int) -> np.ndarray:
    """``count`` i.i.d. draws of the population profile, as a ``(count,
    K)`` array of shares, one row per period.

    The population is renewed independently of the signal, so a run's
    whole horizon can be drawn before its first period, in one block.
    Under uniform perturbation the first K-1 shares are U(1/K-eps,
    1/K+eps) and the last takes the remainder; vectors with a negative
    remainder are rejected and redrawn whole.  The block consumes the
    stream attempt by attempt, as one draw per period would: it draws
    as many attempts as rows are still missing, keeps the accepted ones
    in order and tops up the shortfall, so row ``i`` holds the bits of
    the ``i``-th one-at-a-time draw.  Under finite support one uniform
    per row picks the first atom whose running probability exceeds it,
    or the last atom when rounding leaves the total below the uniform.
    """
    count = require_int(count, "profile count", 0)
    if isinstance(process, FiniteSupport):
        u = rng.random(count)
        # a row's pick counts the running probabilities at or below its
        # uniform, one pass per atom but the last (the integers of
        # ``searchsorted`` with ``side="right"``, in half the time); the
        # last atom takes every uniform past the one before it, which
        # is the clamp
        picks = np.zeros(count, dtype=np.intp)
        for c in process.cumulative[:-1]:
            picks += u >= c
        # ``take`` gathers whole rows many times faster than indexing
        return np.take(process.weights, picks, axis=0)
    k = process.type_count
    nominal = 1.0 / k
    shares = np.empty((count, k))
    filled = 0
    while filled < count:
        head = rng.uniform(nominal - process.epsilon,
                           nominal + process.epsilon,
                           size=(count - filled, k - 1))
        rest = 1.0 - head.sum(axis=1)
        kept = (rest >= 0.0) & np.all(head >= 0.0, axis=1)
        accepted = int(kept.sum())
        shares[filled:filled + accepted, :-1] = head[kept]
        shares[filled:filled + accepted, -1] = rest[kept]
        filled += accepted
    return shares


def derived_rng(seed: int, label: str) -> np.random.Generator:
    """Named substream of the master seed; stable across runs and
    platforms (the label enters the seed sequence as its CRC-32).  The
    seed must be a non-negative integer (a numpy integer will do); a
    float, even a whole one, or a negative seed is a
    ``ValidationError``, never truncated."""
    seed = require_int(seed, "seed", 0)
    tag = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([seed, tag]))
