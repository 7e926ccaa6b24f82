"""Reference implementations that the package's fast paths are checked
against: the per-pair loader for ``assign``, the one-period draw for
``sample_profile``'s blocks, the one-column abstract stepper, the
full-batch convergence check, and the helpers only tests call: the TNTP
writers and the two-action social-cost minimizer.

Every traveller type splits each origin-destination pair's demand
equally over that pair's weight-shortest routes.  ``assign`` factorizes
this per origin in one pass over the origin's tight-edge DAG; the code
here does it the direct way, one pair at a time, by intersecting a
forward Dijkstra from the origin with a reverse Dijkstra into the
destination.

It keeps its own frozen copy of the heapq Dijkstra, with adjacency lists
built here from ``net.edges``, so that a change to ``network.dijkstra``
is never on both sides of a comparison.  From the package it takes only
the model's tie policy (``assignment.TIE_TOL`` and ``TIE_TOL_ABS``),
the type-weight rule ``signaling.edge_weight``, the input checks, its
data types and its errors.

``sample_period`` is the population draw as a run once made it, one
period at a time: one rejection loop per period under uniform
perturbation, one uniform and a running probability per period under
finite support.  ``sample_profile`` must give its rows bit for bit.

``signal_sequence`` is the signal rule of ``emit_signal`` over plain
lists, recomputed from every resource's whole cost list before each
period; ``emit_signal`` on a ``CostHistory`` must give it bit for bit,
down to the sign of a zero.

``step_column`` plays one period of the abstract model for one column,
given that period's type shares and tie uniforms: emit the signal from
the history, ``_play`` it, record the costs.  ``run_abstract`` and each
trajectory of ``convergence_check`` must give, period by period, what
it gives when fed their draws one period at a time.

``convergence_check_full_batch`` is ``convergence_check`` without its
coalescence rule: both arms of every pair are played to the horizon.
It shares the package's history, signal rule, draws and ``_play``, and
takes its KS test from ``scipy.stats``, so a comparison tests only the
dropping of arm b and the package's own ``ks_2samp``.

``network_to_tntp`` and ``demand_to_tntp`` write TNTP texts that
``parse_network`` and ``parse_trips`` must read back unchanged, and
``minimize_two_action_cost`` is the continuous two-action optimum that
the acceptance gate's minimizer clause checks.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.stats import ks_2samp

from intervalsig.abstract_model import (
    AbstractConfig,
    ConvergenceReport,
    _play,
)
from intervalsig.assignment import (
    TIE_TOL,
    TIE_TOL_ABS,
    LoadPlan,
    _checked_inputs,
)
from intervalsig.costs import AbstractCostFn, minimize_scalar_on_interval
from intervalsig.network import (
    DemandTable,
    Network,
    NoPathError,
    ValidationError,
)
from intervalsig.population import (
    FiniteSupport,
    RenewalProcess,
    TypeSet,
    derived_rng,
    sample_profile,
)
from intervalsig.signaling import (
    CostHistory,
    Scheme,
    checked_initial_signal,
    edge_weight,
    emit_signal,
)


def sample_period(process: RenewalProcess,
                  rng: np.random.Generator) -> tuple[float, ...]:
    """One period's type shares, drawn on their own."""
    if isinstance(process, FiniteSupport):
        u = rng.random()
        acc = 0.0
        for profile, d in process.atoms:
            acc += d
            if u < acc:
                return profile.weights
        return process.atoms[-1][0].weights
    k = process.type_count
    nominal = 1.0 / k
    while True:
        head = rng.uniform(nominal - process.epsilon,
                           nominal + process.epsilon, size=k - 1)
        rest = 1.0 - head.sum()
        if rest >= 0.0 and np.all(head >= 0.0):
            return tuple(head.tolist()) + (float(rest),)


def _np_min(a: float, b: float) -> float:
    """``np.minimum(a, b)`` of two numbers: ``a`` only when it is the
    smaller, so of two equal zeros, 0.0 and -0.0, the second."""
    return a if a < b else b


def _np_max(a: float, b: float) -> float:
    """``np.maximum(a, b)`` of two numbers, the second on a tie."""
    return a if a > b else b


def _resource_signal(scheme: Scheme, costs: list[float],
                     initial: tuple[float, float] | None):
    """One resource's (lo, hi) after the recorded ``costs``."""
    periods = len(costs)
    if initial is not None and periods == 0:
        return initial
    scalar = scheme.kind in ("now", "mean")
    if initial is None and periods < (1 if scalar else 2):
        return 0.0, 0.0
    if scheme.kind == "now":
        return costs[-1], costs[-1]
    if scheme.kind == "mean":
        total = 0.0
        for c in costs:
            total += c
        return total / periods, total / periods
    if scheme.kind == "full_extreme":
        rows = costs
    else:
        # the last ``window`` costs in ring order: slot ``i % window``
        # holds period ``i``, and equal zeros are told apart by slot
        ring = [0.0] * scheme.window
        for i, c in enumerate(costs):
            ring[i % scheme.window] = c
        rows = ring[:min(periods, scheme.window)]
    lo = hi = rows[0]
    for c in rows[1:]:
        lo, hi = _np_min(lo, c), _np_max(hi, c)
    if initial is not None and (scheme.kind == "full_extreme"
                                or (not scalar and periods < scheme.window)):
        lo, hi = _np_min(lo, initial[0]), _np_max(hi, initial[1])
    if scheme.kind == "subinterval" and scheme.shrink != 1.0:
        # numpy's sum starts from 0.0: two -0.0 endpoints sum to 0.0
        mid = (0.0 + lo + hi) / 2.0
        half = scheme.shrink * (hi - lo) / 2.0
        lo, hi = mid - half, mid + half
    return lo, hi


def signal_sequence(scheme: Scheme, m_count: int, periods,
                    initial=None) -> list[list[tuple[float, float]]]:
    """The signal before each of ``periods`` and after the last, as
    ``m_count`` (lo, hi) pairs each.

    ``periods`` holds each period's ``m_count`` costs and ``initial``
    is None or one (lo, hi) pair per resource.  Every signal is
    recomputed from each resource's cost list so far.
    """
    signals = []
    for p in range(len(periods) + 1):
        signals.append([
            _resource_signal(scheme, [period[r] for period in periods[:p]],
                             None if initial is None else tuple(initial[r]))
            for r in range(m_count)])
    return signals


def step_column(history: CostHistory, config: AbstractConfig, shares,
                tie_uniforms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play period ``history.periods + 1`` of one column and record its
    costs; returns the signal, the counts and the costs.

    ``history`` is the column's ``CostHistory`` under ``config.scheme``;
    ``shares`` holds each type's share of the period and
    ``tie_uniforms`` one uniform per type, which decides only if that
    type ties.
    """
    signal = emit_signal(history)
    counts, costs = _play(config, signal, np.asarray(shares, dtype=float),
                          np.asarray(tie_uniforms, dtype=float))
    history.record_period(costs)
    return signal, counts, costs


def convergence_check_full_batch(
        config: AbstractConfig, trajectories: int, horizon: int,
        initial_signals, seed: int) -> tuple[ConvergenceReport, np.ndarray]:
    """The report ``convergence_check`` must give, and per pair the first
    period whose two signals are equal entry for entry (-1 if none is).

    One history over actions x arms x trajectories resources,
    action-major; each period both arms of every pair are played, with
    the period's draws broadcast over the arm axis.
    """
    k, m = trajectories, config.action_count
    arms = np.stack([checked_initial_signal(init, m)
                     for init in initial_signals], axis=1)    # (M, arms, 2)
    history = CostHistory(2 * k * m, config.scheme,
                          np.repeat(arms, k, axis=1).reshape(-1, 2))
    rng = derived_rng(seed, "convergence")
    coalesced_at = np.full(k, -1)
    distances = []
    for t in range(horizon + 1):
        signal = emit_signal(history).reshape(m, 2, k, 2)
        same = np.all(signal[:, 0] == signal[:, 1], axis=(0, 2))
        coalesced_at[same & (coalesced_at < 0)] = t
        gap = np.abs(signal[:, 0, 0] - signal[:, 1, 0])  # the first pair
        distances.append(float(gap[:, 0].sum() + gap[:, 1].sum()))
        if t == horizon:
            break
        shares = sample_profile(config.renewal, rng, k).T   # (types, k)
        tie_u = rng.random((k, len(config.types))).T
        counts, costs = _play(config, signal, shares[:, None],
                              tie_u[:, None])
        history.record_period(costs.ravel())

    sample_a = counts[0, 0] / config.agent_count
    sample_b = counts[0, 1] / config.agent_count
    ks = ks_2samp(sample_a, sample_b)
    return (ConvergenceReport(np.array(distances), float(ks.statistic),
                              float(ks.pvalue), sample_a, sample_b),
            coalesced_at)


def dijkstra(net: Network, weights: np.ndarray, source: int,
             reverse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Single-source shortest distances over nonnegative edge weights.

    Returns (dist, finalization_order); unreached nodes keep dist=inf and
    order=-1.  With reverse=True edges are traversed backwards (distances
    TO ``source``).  The heap is keyed by (dist, node id), so the
    finalization order breaks distance plateaus by node id.
    """
    adj = [[] for _ in range(net.node_count + 1)]
    for e in net.edges:
        if reverse:
            adj[e.dst].append((e.src, e.id))
        else:
            adj[e.src].append((e.dst, e.id))
    w = np.asarray(weights, dtype=float).tolist()
    dist = [math.inf] * (net.node_count + 1)
    order = [-1] * (net.node_count + 1)
    dist[source] = 0.0
    heap = [(0.0, source)]
    counter = 0
    while heap:
        d, u = heapq.heappop(heap)
        if order[u] >= 0:
            continue
        order[u] = counter
        counter += 1
        for v, eid in adj[u]:
            nd = d + w[eid]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(dist), np.array(order, dtype=np.int64)


@dataclass
class TightDag:
    """Shortest-route bundle for one (origin, dest) pair under one weight
    vector: distances, the surviving tight edges, and path counts that
    realize an exact equal split over every counted route."""
    origin: int
    dest: int
    dist: np.ndarray
    tight_edges: list[int]
    path_count_from: np.ndarray
    path_count_to: np.ndarray
    total_paths: float
    shares: np.ndarray = field(repr=False)

    def edge_share(self, edge_id: int) -> float:
        """Fraction of the pair's demand crossing the given edge."""
        return float(self.shares[edge_id])


def tight_dag(net: Network, weights: np.ndarray,
              forward: tuple[np.ndarray, np.ndarray], dist_b: np.ndarray,
              origin: int, dest: int) -> TightDag:
    """Tight-edge selection and equal-split path counting for one pair,
    given the origin's forward Dijkstra (dist, order) and the
    destination's reverse distances.

    An edge (u,v) is tight when it lies on some minimum-weight origin->dest
    route within tolerance.  Zero-weight cycles are broken by keeping only
    edges that advance the origin's Dijkstra finalization order, which
    preserves connectivity (shortest-tree edges always advance it).
    """
    dist_f, order_f = forward
    best = dist_f[dest]
    if not np.isfinite(best):
        raise NoPathError(f"destination {dest} unreachable from {origin}")
    du = dist_f[net.srcs]
    dv = dist_f[net.dsts]
    bv = dist_b[net.dsts]
    local = du + weights <= dv * (1.0 + TIE_TOL) + TIE_TOL_ABS
    through = du + weights + bv <= best * (1.0 + TIE_TOL) + TIE_TOL_ABS
    forwardness = order_f[net.srcs] < order_f[net.dsts]
    reached = order_f[net.srcs] >= 0
    kept = np.flatnonzero(local & through & forwardness & reached)

    count_from = np.zeros(net.node_count + 1)
    count_to = np.zeros(net.node_count + 1)
    count_from[origin] = 1.0
    count_to[dest] = 1.0
    by_src_order = kept[np.argsort(order_f[net.srcs[kept]], kind="stable")]
    for eid in by_src_order:
        count_from[net.dsts[eid]] += count_from[net.srcs[eid]]
    for eid in by_src_order[::-1]:
        count_to[net.srcs[eid]] += count_to[net.dsts[eid]]
    total = count_from[dest]
    if total <= 0:
        raise NoPathError(
            f"no acyclic tight path {origin}->{dest} (internal)")

    shares = np.zeros(net.edge_count)
    shares[kept] = (count_from[net.srcs[kept]] *
                    count_to[net.dsts[kept]]) / total
    tight = [int(e) for e in kept if shares[e] > 0.0]
    return TightDag(origin, dest, dist_f, tight, count_from, count_to,
                    float(total), shares)


def shortest_path_dag(net: Network, weights: np.ndarray, origin: int,
                      dest: int) -> TightDag:
    """``tight_dag`` for one pair, running both Dijkstras itself."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (net.edge_count,):
        raise ValidationError(
            f"expected {net.edge_count} weights, got {weights.shape}")
    if np.any(weights < 0):
        raise ValidationError("edge weights must be nonnegative")
    dist_b, _ = dijkstra(net, weights, dest, reverse=True)
    return tight_dag(net, weights, dijkstra(net, weights, origin), dist_b,
                     origin, dest)


class PathLoad(NamedTuple):
    """Agents of one type on one origin-destination pair."""

    origin: int
    dest: int
    omega: float
    cost: float      # weight-shortest distance as this type perceives it
    agents: float


@dataclass
class FlowState:
    """Result of loading one period's demand pair by pair.

    ``group_shares[g]`` holds the per-edge share vector of group ``g``
    (one group per type and origin-destination pair, in ``path_loads``
    order), so ``agents @ group_shares`` reproduces ``edge_flows`` and
    ``group_shares @ realized_edge_costs`` yields each group's realized
    route cost.
    """

    edge_flows: np.ndarray
    path_loads: list[PathLoad]
    group_shares: np.ndarray


def assign_per_pair(
    net: Network,
    demand: DemandTable,
    signal: np.ndarray,
    shares,
    types: TypeSet,
) -> FlowState:
    """Split every origin-destination pair on its own, per type.

    Takes the inputs of ``LoadPlan`` and ``assign`` together and applies
    the same input checks; each pair's demand is split with ``tight_dag``, using one
    forward Dijkstra per origin and one reverse Dijkstra per destination.
    """
    signal, shares = _checked_inputs(LoadPlan(net, demand, types), signal,
                                     shares)
    pairs = sorted(demand.entries)
    origins = sorted({o for o, _ in pairs})
    dests = sorted({d for _, d in pairs})

    edge_flows = np.zeros(net.edge_count)
    path_loads: list[PathLoad] = []
    share_rows: list[np.ndarray] = []

    for omega, weight_share in zip(types.omegas, shares):
        weights = edge_weight(signal, omega)
        forward = {o: dijkstra(net, weights, o) for o in origins}
        backward = {d: dijkstra(net, weights, d, reverse=True)[0]
                    for d in dests}
        for origin, dest in pairs:
            agents = weight_share * demand.entries[(origin, dest)]
            dag = tight_dag(net, weights, forward[origin], backward[dest],
                            origin, dest)
            edge_flows += agents * dag.shares
            path_loads.append(
                PathLoad(origin, dest, omega, float(dag.dist[dest]), agents))
            share_rows.append(dag.shares)

    group_shares = (np.array(share_rows) if share_rows
                    else np.empty((0, net.edge_count)))
    return FlowState(edge_flows, path_loads, group_shares)


def network_to_tntp(net: Network) -> str:
    """``net`` as a TNTP network text, every number written by ``repr``."""
    lines = [
        f"<NUMBER OF ZONES> {net.metadata.get('NUMBER OF ZONES', net.node_count)}",
        f"<NUMBER OF NODES> {net.node_count}",
        "<FIRST THRU NODE> 1",
        f"<NUMBER OF LINKS> {len(net.edges)}",
        "<END OF METADATA>",
        "",
        "~ Init node Term node Capacity Length Free Flow Time B Power "
        "Speed limit Toll Type ;",
    ]
    for e in net.edges:
        lines.append(
            f"{e.src} {e.dst} {e.capacity!r} {e.length!r} {e.free_flow!r} "
            f"{e.b_coeff!r} {e.power!r} {e.speed!r} {e.toll!r} "
            f"{e.link_type!r} ;")
    return "\n".join(lines) + "\n"


def demand_to_tntp(table: DemandTable) -> str:
    """``table`` as a TNTP trips text, origins and destinations sorted."""
    zones = table.metadata.get(
        "NUMBER OF ZONES",
        max((max(o, d) for o, d in table.entries), default=0))
    lines = [
        f"<NUMBER OF ZONES> {zones}",
        f"<TOTAL OD FLOW> {table.total!r}",
        "<END OF METADATA>",
        "",
    ]
    by_origin: dict[int, list[tuple[int, float]]] = {}
    for (o, d), flow in table.entries.items():
        by_origin.setdefault(o, []).append((d, flow))
    for o in sorted(by_origin):
        lines.append(f"Origin {o}")
        for d, flow in sorted(by_origin[o]):
            lines.append(f"{d} : {flow!r};")
        lines.append("")
    return "\n".join(lines) + "\n"


def minimize_two_action_cost(cost_a: AbstractCostFn, cost_b: AbstractCostFn,
                             total_agents: float) -> tuple[float, float]:
    """Continuous minimizer of the two-action social cost over the split
    x in [0, N] (x agents on the first action, N-x on the second)."""
    def objective(x):
        return ((x / total_agents) * cost_a(x)
                + ((total_agents - x) / total_agents)
                * cost_b(total_agents - x))
    return minimize_scalar_on_interval(objective, 0.0, float(total_agents))
