"""Congestion dynamics over abstract actions.

Agents of each risk type read the published per-action interval through
their endpoint weight, pile their whole mass onto a minimizing action
(uniformly among ties), and realized costs feed the next signal. A run's
only state is its ``CostHistory``, and ``run_abstract`` writes each
period straight into its result's columns: the signal ``emit_signal``
gives, the counts and costs of ``_play`` (one tie-pick over all types'
weights, then the config's cost table, built once from its cost
functions, prices every action's count), their social cost; then the
costs are recorded.  Includes the coupled-trajectory convergence check
(two runs driven by identical draws from different initial signals) and
the two-arm flapping construction whose scalar arm oscillates while its
interval arm holds a near-even split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import (
    AbstractCostFn,
    CostTable,
    ValidationError,
    flapping_cost_fn,
    linear_cost_fn,
    social_cost_abstract,
)
from .engine import Columns, signal_columns, table_csv
from .network import read_only, require_instance, require_int, require_real
from .population import (
    FiniteSupport,
    PopulationProfile,
    RenewalProcess,
    TypeSet,
    derived_rng,
    sample_profile,
)
from .signaling import (
    CostHistory,
    Scheme,
    checked_initial_signal,
    edge_weight,
    emit_signal,
    extreme_scheme,
    full_extreme_scheme,
)

__all__ = [
    "AbstractConfig",
    "AbstractResult",
    "ConvergenceReport",
    "FlappingReport",
    "FlappingSpec",
    "ValidationError",
    "convergence_check",
    "convergence_demo_config",
    "flapping_demo",
    "records_to_abstract_csv",
    "run_abstract",
]


@dataclass(frozen=True, eq=False)
class AbstractConfig:
    """One abstract-model scenario: population, actions, costs, scheme.

    ``cost_table`` and ``omegas`` are derived at construction, since
    every period of the model reads them: the table prices all actions'
    counts in one pass, and ``omegas`` holds ``types.omegas`` as an
    array.  A config cannot change once built: ``costs`` is a tuple, and
    ``initial_signal`` and ``omegas`` are read-only arrays of its own.
    """

    agent_count: int
    action_count: int
    costs: tuple[AbstractCostFn, ...]
    scheme: Scheme
    renewal: RenewalProcess
    initial_signal: np.ndarray
    seed: int
    types: TypeSet = TypeSet((0.5,))
    cost_table: CostTable = field(init=False, repr=False)
    omegas: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        require_instance(self.scheme, Scheme, "scheme")
        require_instance(self.renewal, RenewalProcess, "renewal")
        require_instance(self.types, TypeSet, "types")
        # NaN fails the comparison, so only finite counts of at least 1
        # pass; fractional ones stay allowed
        if not 1 <= require_real(self.agent_count, "agent count") < math.inf:
            raise ValidationError(
                f"agent count must be a finite number >= 1, got "
                f"{self.agent_count!r}")
        object.__setattr__(self, "seed", require_int(self.seed, "seed", 0))
        object.__setattr__(self, "action_count", require_int(
            self.action_count, "action count", 1))
        object.__setattr__(self, "costs", tuple(self.costs))
        if len(self.costs) != self.action_count:
            raise ValidationError(
                f"{len(self.costs)} cost functions for "
                f"{self.action_count} actions")
        for fn in self.costs:
            if not isinstance(fn, AbstractCostFn):
                raise ValidationError(
                    f"cost functions must be AbstractCostFn, got {fn!r}")
        object.__setattr__(self, "initial_signal", read_only(
            checked_initial_signal(self.initial_signal, self.action_count)))
        if self.renewal.type_count != len(self.types):
            raise ValidationError("renewal type count != type set size")
        object.__setattr__(self, "cost_table", CostTable(self.costs))
        object.__setattr__(self, "omegas",
                           read_only(np.array(self.types.omegas)))


@dataclass(frozen=True, eq=False)
class AbstractResult(Columns):
    """An abstract-model run, one row per period: ``t`` ``(T,)``, counts
    and costs ``(T, M)``, social cost ``(T,)`` and the signal ``(T, M,
    2)``."""

    t: np.ndarray
    counts: np.ndarray
    costs: np.ndarray
    social_cost: np.ndarray
    signal: np.ndarray = field(repr=False)

    @classmethod
    def empty(cls, horizon: int, action_count: int) -> AbstractResult:
        """Periods ``1..horizon``, every other column to be written."""
        return cls(np.arange(1, horizon + 1),
                   np.empty((horizon, action_count)),
                   np.empty((horizon, action_count)), np.empty(horizon),
                   np.empty((horizon, action_count, 2)))


def pick_among_ties(weights: np.ndarray, u) -> np.ndarray:
    """Index of a minimal entry along the last axis, per row.

    Among a row's ``n_ties`` minimal entries the ``int(u * n_ties)``-th
    is returned (clamped to the last), so a uniform ``u`` picks a tie
    uniformly and a unique minimizer is returned whatever ``u`` is.
    ``u`` must broadcast to the rows' shape, ``weights.shape[:-1]``.  A
    NaN weight, or rows without entries, are a ``ValidationError``.

    Rows seldom tie, so the pick finds each row's minimum first and
    counts the entries equal to it.  Every row has at least one, so the
    rows are tie-free exactly when the count equals the number of rows.
    A NaN row has none and could make up for a tied row elsewhere, so a
    NaN minimum is refused first (``min`` and the gather at ``argmin``
    both carry a row's NaN to its minimum).  Tie-free rows return their
    minimizers and read no ``u``; otherwise a running tie count picks in
    every row.

    The reductions run along the first axis of a contiguous ``(n, ...)``
    copy, many times faster on many short rows than along the last axis.
    ``_play`` passes a ``(types, ..., M)`` view of action-major ``(M,
    types, ...)`` weights, batch axes innermost, so no copy is made.
    The layout, entries against rows, picks one of two paths.  With at
    least as many entries as rows (``run_abstract``'s), ``argmin`` finds
    the minimizers, several times faster than ``min`` there, the minima
    are gathered at them, and the running tie count is one ``cumsum``
    along the entry axis.  With fewer (``convergence_check``'s), ``min``
    finds the minima, a tie-free row's minimizer is its tie flags'
    index-weighted sum, and the running tie count takes one whole-array
    step per entry but the last; both counts give the same integers.
    With fewer than 128 entries the tie counts are kept in single bytes,
    which makes the count and the steps several times cheaper than in
    64-bit integers.
    """
    weights = np.asarray(weights)
    if weights.ndim == 0 or weights.shape[-1] == 0:
        raise ValidationError(
            f"weights of shape {weights.shape} have no entries to pick")
    by_entry = np.ascontiguousarray(
        weights.transpose(-1, *range(weights.ndim - 1)))
    shape = by_entry.shape[1:]
    rows = by_entry[0].size
    wide = len(by_entry) >= rows
    if wide:
        flat = by_entry.reshape(len(by_entry), rows)
        choice = flat.argmin(axis=0)
        low = flat[choice, np.arange(rows)].reshape(shape)
    else:
        low = by_entry.min(axis=0)
    if np.isnan(low).any():
        raise ValidationError("weights hold a NaN")
    ties = by_entry == low
    if np.count_nonzero(ties) == rows:
        # a scalar for a single row, as the counting pick returns
        return (choice if wide else _lone_tie(ties)).reshape(shape)[()]
    n_ties = ties.sum(axis=0,
                      dtype=np.int8 if len(by_entry) < 128 else np.intp)
    pick = np.minimum((np.asarray(u) * n_ties).astype(int), n_ties - 1)
    if wide:
        return (np.cumsum(ties, axis=0) > pick).argmax(axis=0)
    # The pick is the number of entries whose running count is still at
    # most ``pick``: the count never falls and ends at n_ties > pick, so
    # the last entry never counts and its plane is skipped.
    running = np.zeros(n_ties.shape, dtype=n_ties.dtype)
    choice = np.zeros(pick.shape, dtype=np.intp)
    for plane in ties[:-1]:
        running += plane
        choice += running <= pick
    return choice


def _lone_tie(ties: np.ndarray) -> np.ndarray:
    """Per row of a tie-free ``(n, ...)`` mask, the index of its one
    ``True``: the sum of each plane's index times its flags, one
    whole-array step per entry but the first, in the narrowest unsigned
    type that holds ``n - 1``."""
    kind = np.min_scalar_type(len(ties) - 1)
    choice = np.zeros(ties.shape[1:], dtype=kind)
    for k, plane in enumerate(ties.view(np.uint8)[1:], 1):
        choice += plane * kind.type(k)
    return choice.astype(np.intp)


def _play(config: AbstractConfig, signal: np.ndarray, shares: np.ndarray,
          tie_uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One period's counts and realized costs, each ``(M, ...)``.

    Every type piles its share of the agents onto the weight-minimal
    action that its uniform picks among ties.  The axes between the
    action axis of ``signal`` ``(M, ..., 2)`` and its endpoint axis, and
    the trailing axes of ``shares`` and ``tie_uniforms`` (both
    ``(types, ...)``, which must broadcast to ``(types,)`` and the batch
    axes of ``signal``), are batch axes: ``run_abstract`` passes none,
    ``convergence_check`` an arm axis of length 2, then 1 once its arms
    coalesce, and a trajectory axis, with draws of length one on the arm
    axis, since both arms share them.  All types' weights are tie-picked in one
    ``pick_among_ties`` call, which says how they are laid out; the
    types' loads are then added in type order, so each count is the
    same sum as type-by-type loading, and the cost table prices all
    actions.
    """
    batch = signal.shape[1:-1]
    b = len(batch)
    omegas = config.omegas.reshape((-1,) + (1,) * b)
    weights = edge_weight(signal[:, None], omegas)     # (M, types, ...)
    # ``transpose`` moves the action axis last (and below, back first)
    # as a view; ``np.moveaxis`` costs several times more per call,
    # which shows on ``run_abstract``'s short periods
    choice = pick_among_ties(weights.transpose(*range(1, b + 2), 0),
                             tie_uniforms)             # (types, ...)
    # each type's load goes to bin (action, column); ``bincount`` adds a
    # bin's loads in type order to a running sum from 0.0
    columns = math.prod(batch)
    bins = choice * columns + np.arange(columns).reshape(batch)
    # the draws' loads, repeated over any axis they broadcast along
    loads = np.multiply(shares, config.agent_count,
                        out=np.empty(choice.shape))
    counts = np.bincount(
        bins.ravel(), weights=loads.ravel(),
        minlength=config.action_count * columns).reshape(
            (config.action_count,) + batch)
    costs = config.cost_table(counts.transpose(*range(1, b + 1), 0))
    return counts, costs.transpose(b, *range(b))


def run_abstract(config: AbstractConfig, horizon: int) -> AbstractResult:
    """Simulate ``horizon`` periods; deterministic given ``config.seed``.

    The whole run's shares and tie uniforms are drawn before period 1,
    each in one block, with the values one draw per period would give.
    Each period is written straight into the result's columns.
    """
    horizon = require_int(horizon, "horizon", 1)
    history = CostHistory(config.action_count, config.scheme,
                          config.initial_signal)
    shares = sample_profile(config.renewal,
                            derived_rng(config.seed, "population"), horizon)
    ties = derived_rng(config.seed, "tie-break").random(
        (horizon, len(config.types)))
    result = AbstractResult.empty(horizon, config.action_count)
    for i in range(horizon):
        signal = result.signal[i] = emit_signal(history)
        counts, costs = _play(config, signal, shares[i], ties[i])
        result.counts[i], result.costs[i] = counts, costs
        result.social_cost[i] = social_cost_abstract(counts, costs,
                                                     config.agent_count)
        history.record_period(costs)
    return result.seal()


def records_to_abstract_csv(result: AbstractResult) -> str:
    """One ``table_csv`` row per period: t, then per action the counts
    and the signal's lower and upper endpoints, then the social cost."""
    require_instance(result, AbstractResult, "result")
    if not len(result):
        raise ValidationError("cannot serialize an empty run")
    m = result.counts.shape[1]
    header = (["t"]
              + [f"{block}_{i}" for block in ("n", "ulo", "uhi")
                 for i in range(1, m + 1)]
              + ["social_cost"])
    return table_csv(header, [result.t, result.counts,
                              signal_columns(result.signal),
                              result.social_cost])


# ---------------------------------------------------------------------------
# Flapping construction: scalar signaling pays a per-period premium that an
# interval scheme avoids by keeping the population split.

@dataclass(frozen=True)
class FlappingSpec:
    """Cost-shape parameters: the premium approaches ``gap_target`` as the
    (odd) agent count grows."""

    gap_target: float
    agent_count: int

    def __post_init__(self):
        if require_real(self.gap_target, "gap target") <= 0:
            raise ValidationError("gap target must be > 0")
        n = require_int(self.agent_count, "agent count", 3)
        if n % 2 == 0:
            raise ValidationError("agent count must be odd and >= 3")
        # a full action costs gap_target + 1, and ``flapping_demo`` scales
        # the per-capita costs by the agent count; a NaN target fails too
        if not math.isfinite(n * (self.gap_target + 1.0)):
            raise ValidationError(
                f"agent count * (gap target + 1) must be finite, got "
                f"agent count {n} and gap target {self.gap_target!r}")


@dataclass
class FlappingReport:
    scalar_records: AbstractResult
    interval_records: AbstractResult
    gap: float
    gap_lower_bound: float


def flapping_demo(spec: FlappingSpec, horizon: int,
                  seed: int = 0) -> FlappingReport:
    """Run the two arms of the construction side by side.

    Scalar arm: point signaling with a single deterministic type; the
    whole population chases last period's cheaper action, so congestion
    alternates all-or-nothing and every period pays the maximal cost.
    Interval arm: a two-period envelope seeded at the near-even split;
    the emitted signal ties both actions every period (asserted), and the
    counts alternate within the split orbit, paying the near-minimal
    cost. The gap between the two steady per-period costs approaches
    ``gap_target`` from below as the population grows.
    """
    horizon = require_int(horizon, "horizon", 1)
    n = spec.agent_count
    fn = flapping_cost_fn(spec.gap_target, spec.agent_count)

    scalar_config = AbstractConfig(
        agent_count=n,
        action_count=2,
        costs=[fn, fn],
        scheme=Scheme("now"),
        renewal=FiniteSupport([(PopulationProfile((1.0,)), 1.0)]),
        initial_signal=np.zeros((2, 2)),
        seed=seed,
        types=TypeSet((0.5,)),
    )
    scalar_records = run_abstract(scalar_config, horizon)

    # Interval arm: the construction premises the near-even split, which
    # a single atomic type cannot reach on its own; the counts are seeded
    # and alternated directly and priced by the scalar arm's cost table,
    # while the signal tie that sustains the orbit is asserted every
    # period.
    root = (spec.gap_target + 1.0) ** (1.0 / n)
    initial = np.array([[1.0, root], [1.0, root]])
    history = CostHistory(2, extreme_scheme(2), initial)
    interval_records = AbstractResult.empty(horizon, 2)
    split = np.array([n // 2, n - n // 2], dtype=float)
    interval_records.counts[0::2] = split
    interval_records.counts[1::2] = split[::-1]
    for i, counts in enumerate(interval_records.counts):
        signal = interval_records.signal[i] = emit_signal(history)
        if not np.allclose(signal[0], signal[1], rtol=0.0, atol=1e-12):
            raise AssertionError(
                f"interval arm lost its tie at t={i + 1}: {signal!r}")
        costs = interval_records.costs[i] = scalar_config.cost_table(counts)
        interval_records.social_cost[i] = social_cost_abstract(counts, costs,
                                                               n)
        history.record_period(costs)
    interval_records.seal()

    # Rescale by the agent count before subtracting: the per-capita costs
    # are ratios of exactly representable numerators, so the integer-scaled
    # difference avoids a rounding step and lands on the closed-form value.
    gap = float((n * scalar_records.social_cost[-1]
                 - n * interval_records.social_cost[-1]) / n)
    lower = spec.gap_target - n * (root - 1.0)
    return FlappingReport(scalar_records, interval_records, gap, lower)


# ---------------------------------------------------------------------------
# Convergence check: two lockstep arms per trajectory, identical draws,
# different initial signals; the coupled distance measures how fast the
# arms forget their start.  It collapses to 0 for two to four actions,
# but the envelope recursion can expand it: with eight actions (200
# trajectories, 200 periods) the first pair's distance falls from 2 to
# 0.2, rises to 0.3 at t = 18 and ends at 0.2.


def ks_2samp(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test for two samples of
    one size n: the statistic and its exact p-value, as floats.

    The statistic is ``h / n``, where the integer ``h`` is the largest
    gap between the samples' ``searchsorted(..., side="right")`` counts.
    The p-value is 1.0 when ``h == 0``, else Pr(D >= h/n) by the Horner
    loop of scipy 1.17's ``_compute_prob_outside_square(n, h)``, in its
    order of operations, clipped to [0, 1].  Both match
    ``scipy.stats.ks_2samp(a, b)`` bit for bit but in two places: where
    scipy's exact mode fails (its rounded p-value lands above 1, so it
    warns and falls back to the asymptotic formula, p >= 0.9999 on the
    draws tested) this returns 1.0, and above n = 10,000, where scipy's
    default is asymptotic, this stays exact (``method="exact"``'s
    value).  Unequal or empty samples are a ``ValidationError``.
    """
    a, b = np.sort(a), np.sort(b)
    n = len(a)
    if n == 0 or len(b) != n:
        raise ValidationError(
            f"ks_2samp needs two nonempty samples of one size, got "
            f"{len(a)} and {len(b)}")
    points = np.concatenate([a, b])
    h = int(np.abs(np.searchsorted(a, points, side="right")
                   - np.searchsorted(b, points, side="right")).max())
    if h == 0:
        return 0.0, 1.0
    # P = 2 A0 (1 - A1 (1 - A2 (...))), Ak = binom(2n, n - kh) / binom(2n, n)
    p = 0.0
    for k in range(n // h, -1, -1):
        term = 1.0
        for j in range(h):
            term = (n - k * h - j) * term / (n + k * h + j + 1)
        p = term * (1.0 - p)
    return h / n, min(max(2 * p, 0.0), 1.0)


@dataclass(frozen=True)
class ConvergenceReport:
    distance_series: np.ndarray
    ks_statistic: float
    ks_pvalue: float
    sample_a: np.ndarray
    sample_b: np.ndarray


def convergence_demo_config(
        agent_count: int = 20,
        action_count: int = 2) -> tuple[AbstractConfig,
                                        tuple[np.ndarray, np.ndarray]]:
    """Low-Lipschitz scenario for the convergence check.

    Per-action cost ``count/agent_count`` plus a small per-action offset;
    two deterministic-type groups (endpoint readers) under a two-atom
    renewal. The paired initial signals sit strictly inside the
    attainable cost range so realized extremes can overwrite them.
    """
    offsets = [0.05 * m for m in range(action_count)]
    costs = [linear_cost_fn(agent_count, offset=off) for off in offsets]
    renewal = FiniteSupport([
        (PopulationProfile((0.8, 0.2)), 0.5),
        (PopulationProfile((0.2, 0.8)), 0.5),
    ])
    init_a = np.array([[0.30 + off, 0.60 + off] for off in offsets])
    init_b = np.array([[0.45 + off, 0.50 + off] for off in offsets])
    config = AbstractConfig(
        agent_count=agent_count,
        action_count=action_count,
        costs=costs,
        scheme=full_extreme_scheme(),
        renewal=renewal,
        initial_signal=init_a,
        seed=0,
        types=TypeSet((0.0, 1.0)),
    )
    return config, (init_a, init_b)


def convergence_check(config: AbstractConfig, trajectories: int,
                      horizon: int,
                      initial_signals: tuple[np.ndarray, np.ndarray],
                      seed: int) -> ConvergenceReport:
    """Drive paired trajectories from two initial signals with shared
    draws and measure how fast they forget where they started.

    Returns the L1 distance series of the first pair and the two-sample
    Kolmogorov-Smirnov statistic between the end-of-horizon first-action
    shares of the two arms across all pairs, with its exact p-value from
    ``ks_2samp`` (the package's own: scipy's value but where scipy's
    exact mode fails or above 10,000 trajectories).  The p-value is no
    valid test, since the arms share every draw.  Exactly two initial
    signals are taken, each checked like ``AbstractConfig``'s.

    The arms run as one batch, one history over actions x arms x
    trajectories resources, action-major, so each period is one
    ``emit_signal`` and one ``_play``: the signal is read as ``(M, arms,
    trajectories, 2)`` and the period's draws are broadcast over the arm
    axis, since both arms share them.

    Coalescence rule: arm ``b`` leaves the batch whole at the first
    period in which every pair's two signals are equal entry for entry
    under ``==``, through one ``CostHistory.restricted`` call (none at
    the horizon, after which nothing is played); ``arms`` is 2, then 1.
    From then on arm ``b`` takes arm ``a``'s counts, so the end shares
    agree and the distance is 0.0.  Proof: under ``full_extreme`` a
    signal is the running min and max with at most a zero's sign put
    back, so equal signals mean equal histories, and the arms share
    every later draw, whatever the renewal law, so they play the same
    counts and costs to the horizon.
    """
    if config.scheme.kind != "full_extreme":
        raise ValidationError(
            "the convergence check drives the running-envelope scheme")
    k = require_int(trajectories, "trajectories", 1)
    horizon = require_int(horizon, "horizon", 1)
    if len(initial_signals) != 2:
        raise ValidationError(
            f"the convergence check needs two initial signals, got "
            f"{len(initial_signals)}")

    m = config.action_count
    inits = np.stack([checked_initial_signal(init, m)
                      for init in initial_signals], axis=1)   # (M, arms, 2)
    history = CostHistory(2 * k * m, config.scheme,
                          np.repeat(inits, k, axis=1).reshape(-1, 2))

    rng = derived_rng(seed, "convergence")
    arms = 2
    distances = []
    for t in range(horizon + 1):
        signal = emit_signal(history).reshape(m, arms, k, 2)
        # the first pair's; 0.0 once arm b has left
        gap = np.abs(signal[:, 0, 0] - signal[:, -1, 0])
        distances.append(float(gap[:, 0].sum() + gap[:, 1].sum()))
        if t == horizon:
            break
        if arms == 2 and np.array_equal(signal[:, 0], signal[:, 1]):
            arms = 1
            history = history.restricted(
                np.arange(history.m_count).reshape(m, 2, k)[:, 0].ravel())
            signal = signal[:, :1]
        shares = sample_profile(config.renewal, rng, k).T   # (types, k)
        tie_u = rng.random((k, len(config.types))).T
        counts, costs = _play(config, signal, shares[:, None],
                              tie_u[:, None])
        history.record_period(costs.ravel())

    sample_a = counts[0, 0] / config.agent_count
    sample_b = counts[0, -1] / config.agent_count
    statistic, pvalue = ks_2samp(sample_a, sample_b)
    return ConvergenceReport(np.array(distances), statistic, pvalue,
                             sample_a, sample_b)

