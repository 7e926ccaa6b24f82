"""Congestion dynamics over abstract actions.

Agents of each risk type read the published per-action interval through
their endpoint weight, pile their whole mass onto a minimizing action
(uniformly among ties), and realized costs feed the next signal. A run's
only state is its ``CostHistory``.  Everything ``_play`` reads that
depends only on the config and the batch shape (the omegas, the
tie-pick's layout, the bin offsets) is set up once per run in a
``_PlaySetup``, and ``run_abstract`` turns the whole run's shares into
loads in one multiply.  A period then writes straight into the result's
columns: the signal ``emit_signal`` gives, then the counts and costs of
``_play`` (every type's weights written into the pick's layout, one
tie-pick over all of them, the loads added up by action, then the
config's cost table, built once from its cost functions, prices every
action's count); then the costs are recorded.  After the loop one
``social_cost_abstract`` call prices every period's social cost from
the counts and costs columns.  Includes the coupled-trajectory
convergence check
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

    Entries against rows pick one of two layouts, each reduced along
    its contiguous axes.  With at least as many entries as rows
    (``run_abstract``'s), the rows stay row-major, ``(..., n)``:
    ``argmin`` along the contiguous entry axis finds the minimizers, the
    minima are gathered at them, and the running tie count is one
    ``cumsum`` along that axis.  With fewer (``convergence_check``'s),
    the pick reads an entry-major ``(n, ...)`` array, many times faster
    on many short rows than the last axis: ``min`` finds the minima, a
    tie-free row's minimizer is its tie flags' index-weighted sum, and
    the running tie count takes one whole-array step per entry but the
    last; both counts give the same integers.  With fewer than 128
    entries the tie counts are kept in single bytes, which makes the
    count and the steps several times cheaper than in 64-bit integers.
    Weights not in their layout are copied into it; ``_play`` writes
    its weights in the layout its run picks in, so it calls the layout's
    pick itself.
    """
    weights = np.asarray(weights)
    if weights.ndim == 0 or weights.shape[-1] == 0:
        raise ValidationError(
            f"weights of shape {weights.shape} have no entries to pick")
    if _is_wide(weights.shape[-1], weights.size // weights.shape[-1]):
        return _pick_by_row(np.ascontiguousarray(weights), u)
    return _pick_by_entry(np.ascontiguousarray(
        weights.transpose(-1, *range(weights.ndim - 1))), u)


def _is_wide(entries: int, rows: int) -> bool:
    """Whether the pick reads rows of this many entries row-major."""
    return entries >= rows


def _tie_count_type(entries: int) -> type:
    """The integer type the tie counts of rows this long are kept in."""
    return np.int8 if entries < 128 else np.intp


def _pick_by_row(weights: np.ndarray, u) -> np.ndarray:
    """``pick_among_ties`` on C-contiguous ``(..., n)`` weights."""
    shape, n = weights.shape[:-1], weights.shape[-1]
    flat = weights.reshape(-1, n)
    choice = flat.argmin(axis=1)
    low = flat.take(choice + np.arange(0, flat.size, n))
    if np.count_nonzero(np.isnan(low)):
        raise ValidationError("weights hold a NaN")
    ties = flat == low[:, None]
    if np.count_nonzero(ties) == len(flat):
        # a scalar for a single row, as the counting pick returns
        return choice.reshape(shape)[()]
    n_ties = ties.sum(axis=1, dtype=_tie_count_type(n)).reshape(shape)
    pick = np.minimum((np.asarray(u) * n_ties).astype(int), n_ties - 1)
    return (np.cumsum(ties, axis=1) > pick.reshape(-1, 1)).argmax(
        axis=1).reshape(shape)[()]


def _pick_by_entry(by_entry: np.ndarray, u) -> np.ndarray:
    """``pick_among_ties`` on C-contiguous entry-major ``(n, ...)``
    weights."""
    low = by_entry.min(axis=0)
    if np.count_nonzero(np.isnan(low)):
        raise ValidationError("weights hold a NaN")
    ties = by_entry == low
    if np.count_nonzero(ties) == low.size:
        return _lone_tie(ties)
    n_ties = ties.sum(axis=0, dtype=_tie_count_type(len(by_entry)))
    pick = np.minimum((np.asarray(u) * n_ties).astype(int), n_ties - 1)
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


class _PlaySetup:
    """What ``_play`` reads that depends only on the config and the
    batch shape, so that a run sets it up once: the omegas and ``1 -
    omegas`` in the weights' broadcast shape, the tie-pick's layout
    with two buffers in it for each period's weights, and the bin
    offsets of the batch's columns.

    ``batch`` holds the signal's axes between its action axis and its
    endpoint axis.  The weights are laid out ``(types, ..., M)`` when
    the actions are at least as many as the rows, types times batch
    columns, and ``(M, types, ...)`` when fewer (``pick_among_ties``
    says why).  ``ends_axes`` and ``ends_shape`` move and reshape the
    signal's axes to match, as a view: ``(..., M, 2)`` and ``(M, 1, ...,
    2)``.
    """

    def __init__(self, config: AbstractConfig, batch: tuple[int, ...]):
        m, types, b = config.action_count, len(config.types), len(batch)
        self.columns = math.prod(batch)
        if _is_wide(m, types * self.columns):
            self.ends_axes = (*range(1, b + 1), 0, b + 1)
            self.ends_shape = (*batch, m, 2)
            layout, self.pick = (types, *batch, m), _pick_by_row
            later = b + 1
        else:
            self.ends_axes = tuple(range(b + 2))
            self.ends_shape = (m, 1, *batch, 2)
            layout, self.pick = (m, types, *batch), _pick_by_entry
            later = b
        # against the layout's type axis, with the axes after it of length 1
        self.omegas = config.omegas.reshape((types,) + (1,) * later)
        self.rest = 1.0 - self.omegas
        self.weights, self.scratch = np.empty(layout), np.empty(layout)
        self.offsets = np.arange(self.columns).reshape(batch)
        self.bin_count = m * self.columns
        self.counts_shape = (m, *batch)
        # the action axis last, for the cost table, and back first
        self.to_last, self.to_first = (*range(1, b + 1), 0), (b, *range(b))
        self.cost_table = config.cost_table


def _play(setup: _PlaySetup, signal: np.ndarray, loads: np.ndarray,
          tie_uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One period's counts and realized costs, each ``(M, ...)``.

    Every type piles its load onto the weight-minimal action that its
    uniform picks among ties.  ``setup`` is the run's, for the batch
    axes of ``signal`` ``(M, ..., 2)``, those between its action axis
    and its endpoint axis: ``run_abstract`` has none,
    ``convergence_check`` an arm axis (of length 1 once arm b has left)
    and a trajectory axis.  ``loads`` holds each type's agents, ``(types,
    ...)`` with every batch axis; ``tie_uniforms`` must broadcast to
    that shape (``convergence_check``'s have length one on the arm
    axis, since both arms share them).

    Each type's weights ``omega * lo + (1 - omega) * hi``, the rule of
    ``edge_weight``, are written into the setup's buffer in the layout
    that the pick reduces over, and all types are tie-picked in one
    call.  The loads are then added in type order, so each count is the
    same sum as type-by-type loading, and the cost table prices all
    actions.
    """
    ends = signal.transpose(setup.ends_axes).reshape(setup.ends_shape)
    weights = np.multiply(setup.omegas, ends[..., 0], out=setup.weights)
    np.add(weights, np.multiply(setup.rest, ends[..., 1],
                                out=setup.scratch), out=weights)
    choice = setup.pick(weights, tie_uniforms)         # (types, ...)
    # each type's load goes to bin (action, column); ``bincount`` adds a
    # bin's loads in type order to a running sum from 0.0
    bins = choice * setup.columns + setup.offsets
    counts = np.bincount(bins.ravel(), weights=loads.ravel(),
                         minlength=setup.bin_count).reshape(
                             setup.counts_shape)
    costs = setup.cost_table(counts.transpose(setup.to_last))
    return counts, costs.transpose(setup.to_first)


def run_abstract(config: AbstractConfig, horizon: int) -> AbstractResult:
    """Simulate ``horizon`` periods; deterministic given ``config.seed``.

    The whole run's shares and tie uniforms are drawn before period 1,
    each in one block, with the values one draw per period would give,
    and the shares are turned into loads in one multiply; ``_play`` is
    set up once.  Each period writes its signal, counts and costs
    straight into the result's columns, and the social cost is priced
    after the loop, one ``social_cost_abstract`` call over the whole
    run's columns.
    """
    horizon = require_int(horizon, "horizon", 1)
    history = CostHistory(config.action_count, config.scheme,
                          config.initial_signal)
    loads = np.multiply(
        sample_profile(config.renewal,
                       derived_rng(config.seed, "population"), horizon),
        config.agent_count)
    ties = derived_rng(config.seed, "tie-break").random(
        (horizon, len(config.types)))
    setup = _PlaySetup(config, ())
    result = AbstractResult.empty(horizon, config.action_count)
    for i in range(horizon):
        signal = result.signal[i] = emit_signal(history)
        result.counts[i], result.costs[i] = _play(setup, signal, loads[i],
                                                  ties[i])
        history.record_period(result.costs[i])
    result.social_cost[:] = social_cost_abstract(
        result.counts, result.costs, config.agent_count)
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
        history.record_period(costs)
    interval_records.social_cost[:] = social_cost_abstract(
        interval_records.counts, interval_records.costs, n)
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
    ``emit_signal`` and one ``_play``, whose setup is made once per
    batch shape (twice if arm b leaves): the signal is read as ``(M,
    arms, trajectories, 2)`` and the period's draws are broadcast over
    the arm axis, since both arms share them.

    Coalescence rule: arm ``b`` leaves the batch whole (``arms`` goes
    from 2 to 1) at the first period before the horizon in which every
    pair's two signals are equal and ``CostHistory.coalesced`` finds arm
    ``b``'s columns coalesced with arm ``a``'s.  The arms share every
    later draw, so arm ``b`` would play arm ``a``'s counts to the
    horizon: the end shares agree and the distance is 0.0.
    """
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

    # each arm's columns, action-major
    arm_columns = np.arange(2 * k * m).reshape(m, 2, k).swapaxes(0, 1)
    rng = derived_rng(seed, "convergence")
    arms, types = 2, len(config.types)
    setup = _PlaySetup(config, (arms, k))
    loads = np.empty((types, arms, k))
    distances = []
    for t in range(horizon + 1):
        signal = emit_signal(history).reshape(m, arms, k, 2)
        # the first pair's; 0.0 once arm b has left
        gap = np.abs(signal[:, 0, 0] - signal[:, -1, 0])
        distances.append(float(gap[:, 0].sum() + gap[:, 1].sum()))
        if t == horizon:
            break
        if arms == 2 and np.array_equal(signal[:, 0], signal[:, 1]):
            kept = history.coalesced(*arm_columns.reshape(2, -1))
            if kept is not None:
                arms, history, signal = 1, kept, signal[:, :1]
                setup = _PlaySetup(config, (arms, k))
                loads = np.empty((types, arms, k))
        shares = sample_profile(config.renewal, rng, k).T   # (types, k)
        tie_u = rng.random((k, types)).T
        # the period's loads, repeated over the arm axis
        np.multiply(shares[:, None], config.agent_count, out=loads)
        counts, costs = _play(setup, signal, loads, tie_u[:, None])
        history.record_period(costs.ravel())

    sample_a = counts[0, 0] / config.agent_count
    sample_b = counts[0, -1] / config.agent_count
    statistic, pvalue = ks_2samp(sample_a, sample_b)
    return ConvergenceReport(np.array(distances), statistic, pvalue,
                             sample_a, sample_b)

