"""Turn a published interval signal into edge flows.

Each traveller type reads the signal through a weight ``omega``: the
route weight of an edge is ``omega * lower + (1 - omega) * upper``.
Every agent of a type takes a weight-shortest route, splitting equally
across all tied routes, and the per-type loads add up to the edge flows
for the period.

A run builds one ``LoadPlan`` (the network, the demand grouped by
origin, the type set, all checked once) and calls ``assign(plan,
signal, shares)`` every period, with the period's share of each type.
The loading problem splits into *rows*, one per (type, origin).  Each
row is loaded in one pass over the origin's tight-edge DAG (Dial's
STOCH loading, Transp. Res. 5:83, 1971): equal splitting over all tight
routes factorizes per origin, so no origin-destination pair is split on
its own.  The DAG keeps an edge when it lies on a weight-shortest route
from the origin, within the tie tolerance, and leads to a node that
Dijkstra finalized later; the second condition breaks zero-weight
cycles while keeping every shortest-path tree edge.

Two loaders give the same bytes.  ``_load_origin`` is the reference: one
heapq Dijkstra and a forward pass per row build its DAG (``_row_dag``),
and a reverse pass loads it.  ``_load_batched`` loads all rows of a
period in whole-array passes and remembers the last signal's DAGs: a
signal with the same bytes reuses them, and so does one that keeps the
same edges, since the DAGs are a function of the kept edges alone.
Under r-window signals either often holds.  Its onward pass visits each
DAG level once, deepest first.  A row with a distance plateau takes its
DAG from ``_row_dag``.  A plan batches when its rows times edges reach
``BATCH_CROSSOVER``.

Each plan caches the DAGs that ``_row_dag`` builds, keyed by the row's
weight vector (its bytes) and then by origin, and drops the oldest
weight vector once it holds ``ROW_DAG_CACHE`` of them.  A DAG is a pure
function of the weights, the origin and the network, so a hit gives the
bytes a rebuild would.  Hits are common: scalar signals (``now``,
``mean``, the zero warm-up) give every type the same weights, and a
window min/max signal returns to earlier values whenever no extreme
enters or leaves the window.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .network import (
    DemandTable,
    Network,
    TIE_TOL,
    TIE_TOL_ABS,
    ValidationError,
    dijkstra,
    require_finite_nonneg,
    require_reachable,
)
from .population import TypeSet

__all__ = [
    "BATCH_CROSSOVER",
    "LoadPlan",
    "ROW_DAG_CACHE",
    "ValidationError",
    "assign",
    "edge_weight",
    "pick_among_ties",
]

# Rows x edges from which a plan loads in whole-array passes.  Below it
# the fixed cost of some hundred numpy calls per period outweighs the
# per-edge Python work they replace.  Measured per call with both
# loaders, every signal new, best of three (2-CPU Intel Xeon, Python
# 3.11, numpy 2.4.6): the diamond (5 rows x 5 edges) takes 45 us per
# row and 136 us batched; random chains with back edges and 5 types
# are about even at 300-360 (234 against 294 us, 347 against 308 us),
# and batching wins from 420 (359 against 283 us, 540 against 332 us
# at 560) and on Sioux Falls (120 rows x 76 edges: 4.1 against
# 0.94 ms).
BATCH_CROSSOVER = 400

# Weight vectors whose row DAGs a plan keeps, oldest dropped first.
ROW_DAG_CACHE = 64


def edge_weight(signal: np.ndarray, omega: float) -> np.ndarray:
    """Collapse a ``(..., n, 2)`` interval signal to ``(..., n)`` scalar
    weights.

    ``omega = 1`` trusts the lower endpoints, ``omega = 0`` the upper
    ones, and values in between interpolate linearly.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim < 2 or signal.shape[-1] != 2:
        raise ValidationError(
            f"signal must have shape (..., n, 2), got {signal.shape}")
    return omega * signal[..., 0] + (1.0 - omega) * signal[..., 1]


def pick_among_ties(weights: np.ndarray, u) -> np.ndarray:
    """Index of a minimal entry along the last axis, per row.

    Among a row's ``n_ties`` minimal entries the ``int(u * n_ties)``-th
    is returned (clamped to the last), so a uniform ``u`` picks a tie
    uniformly and a unique minimizer is returned whatever ``u`` is.
    ``u`` broadcasts against the rows, ``weights.shape[:-1]``.

    The reductions run over a contiguous ``(n, ...)`` copy along its
    first axis (no copy when ``weights`` is a view of such memory, as
    ``abstract_model._play`` passes): on many short rows that is many
    times faster than reducing along the last axis.  The running tie
    count takes one whole-array step per entry but the last when there
    are fewer entries than rows, and one ``cumsum`` along the entry
    axis otherwise; both give the same integers.  With fewer than 128
    entries the tie counts are kept in single bytes, which makes the
    count and the steps several times cheaper than in 64-bit integers.
    """
    weights = np.asarray(weights)
    by_entry = np.ascontiguousarray(
        weights.transpose(-1, *range(weights.ndim - 1)))
    ties = by_entry == by_entry.min(axis=0)
    n_ties = ties.sum(axis=0,
                      dtype=np.int8 if len(by_entry) < 128 else np.intp)
    pick = np.minimum((np.asarray(u) * n_ties).astype(int), n_ties - 1)
    if len(by_entry) >= pick.size:
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


class LoadPlan:
    """One run's loading problem: the network, the demand grouped by
    origin (origins and, per origin, destinations ascending) and the
    type set.

    Construction checks the demand once: a node outside
    ``1..node_count`` is a ``ValidationError`` and a pair that no route
    connects a ``NoPathError``.  Rows are (type, origin) pairs, type-major
    with origins ascending; a plan with at least ``BATCH_CROSSOVER`` rows
    times edges loads in whole-array passes (``batched``).
    """

    def __init__(self, net: Network, demand: DemandTable, types: TypeSet):
        for origin, dest in sorted(demand.entries):
            if not (1 <= origin <= net.node_count
                    and 1 <= dest <= net.node_count):
                raise ValidationError(
                    f"demand pair ({origin}, {dest}) has a node outside "
                    f"1..{net.node_count}")
        require_reachable(net, demand)
        self.net = net
        self.types = types
        self.omegas = np.array(types.omegas)[:, None]   # one row per type
        self.by_origin: dict[int, list[tuple[int, float]]] = {}
        for (origin, dest), flow in sorted(demand.entries.items()):
            self.by_origin.setdefault(origin, []).append((dest, flow))
        self.row_count = len(types) * len(self.by_origin)
        self.batched = self.row_count * net.edge_count >= BATCH_CROSSOVER
        self.srcs, self.dsts = net.srcs.tolist(), net.dsts.tolist()
        self._memo: _Dags | None = None
        # weight bytes -> origin -> ``_row_dag``'s (kept, count, order)
        self._row_dags: dict[bytes, dict[int, _RowDag]] = {}

    @cached_property
    def _layout(self) -> _Layout:
        return _Layout(self)


class _Layout:
    """The index arrays a batched plan gathers by, fixed per run.

    Per-node arrays are node-major, ``(node_count + 1, rows)``, so that a
    gather by node copies whole contiguous rows; flattened, node ``v`` of
    row ``r`` sits at slot ``v * rows + r``.  Edge tables hold one column
    of edge ids per node, padded with the edge count.
    """

    def __init__(self, plan: LoadPlan):
        net = plan.net
        nodes, rows = net.node_count + 1, plan.row_count
        origins = list(plan.by_origin)
        self.row_type = np.repeat(np.arange(len(plan.types)), len(origins))
        self.start = np.zeros((nodes, rows))
        self.start[np.tile(origins, len(plan.types)), np.arange(rows)] = 1.0
        # In-edges and out-edges per node, the out-edges last in file
        # order first.  The padding edge runs from node 0, never reached.
        into = [[] for _ in range(nodes)]
        for eid, head in enumerate(net.dsts.tolist()):
            into[head].append(eid)
        self.into = _edge_table(into, net.edge_count)
        self.out_of = _edge_table(
            [[eid for _, eid in reversed(edges)] for edges in net._out],
            net.edge_count)
        self.into_tails = np.append(net.srcs, 0)[self.into]
        # The same tails and the out-edges' heads as flat slots.
        self.in_tails = (self.into_tails.astype(np.int32)[:, :, None] * rows
                         + np.arange(rows, dtype=np.int32))
        self.out_heads = (
            np.append(net.dsts, 0).astype(np.int32)[self.out_of, None] * rows
            + np.arange(rows, dtype=np.int32))
        self.origin_at = np.flatnonzero(self.start)
        # One entry per (row, destination).  A pair from a node to itself
        # loads no edge: the onward pass never reads an origin's load.
        pairs = [(at, dest, flow) for at, origin in enumerate(origins)
                 for dest, flow in plan.by_origin[origin] if dest != origin]
        at = np.array([pair[0] for pair in pairs], dtype=np.intp)
        dest = np.array([pair[1] for pair in pairs], dtype=np.intp)
        flow = np.array([pair[2] for pair in pairs], dtype=float)
        kinds = len(plan.types)
        row = (np.arange(kinds)[:, None] * len(origins) + at).ravel()
        self.entry_at = np.tile(dest, kinds) * rows + row
        self.entry_type = self.row_type[row]
        self.entry_flow = np.tile(flow, kinds)


def _edge_table(lists: list[list[int]], pad: int) -> np.ndarray:
    """The lists as the columns of an array, padded with ``pad``."""
    table = np.full((max(map(len, lists)), len(lists)), pad, dtype=np.intp)
    for node, edges in enumerate(lists):
        table[:len(edges), node] = edges
    return table


_RowDag = tuple[list[int], list[float], list[int]]


@dataclass
class _Dags:
    """One set of kept edges' DAGs over all rows, as what the onward
    pass and the edge loads gather by, and the last signal that kept it.

    The onward pass reads the slots that kept edges lead to by
    *column*: one per slot, in order of the longest kept route from the
    origin, deepest first, so that each level's columns sit side by
    side.  Column 0 holds 0.0.  ``onward_from`` gives each column's
    out-heads in the order of ``_Layout.out_of``, column 0 where the
    edge is not kept.  Everything but ``key`` and ``plateau_rows`` is a
    function of ``kept_key`` and the plan's ``_Layout``.
    """

    kept_key: bytes             # the kept-edge mask's bytes
    levels: list[tuple[int, int]]   # runs of columns, deepest level first
    onward_from: np.ndarray     # (out-degree, columns) columns
    entry_at: np.ndarray        # demand entries' columns
    entry_count: np.ndarray     # path counts of the demand entries
    kept_at: np.ndarray         # kept edges, flat into (rows, edges)
    kept_head: np.ndarray       # their heads' columns
    kept_count: np.ndarray      # path counts of their tails
    key: bytes = b""            # the signal's bytes
    plateau_rows: list[int] = field(default_factory=list)  # by ``_row_dag``


def _checked_inputs(plan: LoadPlan, signal: np.ndarray,
                    shares) -> tuple[np.ndarray, np.ndarray]:
    """The signal and the type shares as float arrays, once they are
    checked against the plan's network and type set."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (plan.net.edge_count, 2):
        raise ValidationError(
            f"signal shape {signal.shape} does not match "
            f"({plan.net.edge_count}, 2)")
    require_finite_nonneg(signal, "signal endpoints")
    shares = np.asarray(shares, dtype=float)
    if shares.shape != (len(plan.types),):
        raise ValidationError(
            f"shares of shape {shares.shape} for "
            f"{len(plan.types)} types")
    return signal, shares


def assign(plan: LoadPlan, signal: np.ndarray, shares) -> np.ndarray:
    """Route every agent along its weight-shortest paths; return the
    per-edge flows.

    The signal must cover every edge (shape ``(edge_count, 2)``) with
    finite, non-negative endpoints; anything else is a
    ``ValidationError``.  Per row the loader keeps the edges
    ``(u, v)`` that are tight (``dist[u] + w <= dist[v]`` within
    ``TIE_TOL``/``TIE_TOL_ABS``) and advance the Dijkstra finalization
    order, counts the kept paths ``cf[v]`` from the origin, accumulates
    ``g[v] = share * q[o, v] / cf[v] + sum of g[w] over kept (v, w)``
    and puts ``cf[u] * g[v]`` on edge ``(u, v)``: the equal split of
    every destination's demand over its tight routes.  ``shares`` holds
    each type's share of the population, one entry per type.  Flows add
    the rows one by one, type-major with origins ascending.
    """
    signal, shares = _checked_inputs(plan, signal, shares)
    if plan.batched:
        return _load_batched(plan, signal, shares)
    return _load_per_row(plan, signal, shares)


def _load_per_row(plan: LoadPlan, signal: np.ndarray,
                  shares: np.ndarray) -> np.ndarray:
    """``assign`` by ``_load_origin`` alone, row after row."""
    flows = [0.0] * plan.net.edge_count
    weights = edge_weight(signal[None], plan.omegas)
    for row_weights, share in zip(weights, shares.tolist()):
        for origin, dests in plan.by_origin.items():
            _load_origin(plan, _row_dag(plan, row_weights, origin), dests,
                         share, flows)
    return np.array(flows)


def _row_dag(plan: LoadPlan, weights: np.ndarray, origin: int) -> _RowDag:
    """One row's tight-edge DAG by the reference rule, from the plan's
    cache when it holds these weights' DAG for ``origin``.

    One forward Dijkstra gives distances and the finalization order; a
    forward pass in that order keeps the tight edges that advance it and
    counts the kept paths from ``origin``.  Returns the kept edges (in
    finalization order of their tails, file order within a tail), the
    path counts and the finalization order (-1 where unreached).  The
    cache shares these lists: callers only read them.
    """
    key = weights.tobytes()
    cache = plan._row_dags
    by_origin = cache.get(key)
    if by_origin is None:
        if len(cache) >= ROW_DAG_CACHE:
            del cache[next(iter(cache))]
        by_origin = cache[key] = {}
    dag = by_origin.get(origin)
    if dag is not None:
        return dag

    net = plan.net
    dist_a, order_a = dijkstra(net, weights, origin)
    dist, order, w = dist_a.tolist(), order_a.tolist(), weights.tolist()
    finalized = [0] * (max(order) + 1)
    for node, rank in enumerate(order):
        if rank >= 0:
            finalized[rank] = node
    slack = 1.0 + TIE_TOL
    count = [0.0] * (net.node_count + 1)
    count[origin] = 1.0
    kept = []
    for u in finalized:
        du, rank, cu = dist[u], order[u], count[u]
        for v, eid in net._out[u]:
            if (order[v] > rank
                    and du + w[eid] <= dist[v] * slack + TIE_TOL_ABS):
                count[v] += cu
                kept.append(eid)
    dag = by_origin[origin] = (kept, count, order)
    return dag


def _load_origin(plan: LoadPlan, dag: _RowDag,
                 dests: list[tuple[int, float]], share: float,
                 flows: list[float]) -> None:
    """Add one row's edge loads to ``flows``: the exact reference.

    A reverse pass over the kept edges of the row's DAG accumulates the
    onward loads.  The plan checked every destination reachable, and
    finite weights reach whatever a route reaches.
    """
    kept, count, _ = dag
    # Reverse pass: agents bound for v or beyond, per path into v.
    srcs, dsts = plan.srcs, plan.dsts
    onward = [0.0] * (plan.net.node_count + 1)
    for dest, flow in dests:
        onward[dest] = share * flow / count[dest]
    for eid in reversed(kept):
        onward[srcs[eid]] += onward[dsts[eid]]
    for eid in kept:
        flows[eid] += count[srcs[eid]] * onward[dsts[eid]]


def _load_batched(plan: LoadPlan, signal: np.ndarray,
                  shares: np.ndarray) -> np.ndarray:
    """``assign`` in whole-array passes over all rows, bit for bit the
    per-row loop's flows.

    The plan remembers the last signal's DAGs.  A signal equal to it bit
    for bit reuses them; any other gets its kept edges from
    ``_kept_edges``, and ``_dags`` builds new DAGs only when those differ
    from the memo's.  Only the onward pass depends on the shares.  Node
    ``u``'s onward load is its demand term, then its kept out-edges'
    heads' loads in reverse file order, added one by one as the per-row
    reverse pass adds them.  The pass takes the levels deepest first, so
    every head's load is final when its tail's level comes: it gathers a
    level's terms into the rows of a C-contiguous array, whose axis-0
    sum adds rows in order.  Each row's edge loads are
    ``count[tail] * onward[head]`` and the flows their axis-0 sum, row
    by row.
    """
    key = signal.tobytes()
    dags = plan._memo
    if dags is None or dags.key != key:
        kept, plateau_rows = _kept_edges(plan, signal)
        if dags is None or dags.kept_key != kept.tobytes():
            dags = _dags(plan, kept)
        dags = plan._memo = replace(dags, key=key, plateau_rows=plateau_rows)
    layout = plan._layout
    rows, edges = plan.row_count, plan.net.edge_count
    # Rows 1 on are written before they are read.
    terms = np.empty((len(dags.onward_from) + 1,
                      dags.onward_from.shape[1]))
    terms[0] = 0.0
    terms[0, dags.entry_at] = (shares[layout.entry_type]
                               * layout.entry_flow / dags.entry_count)
    onward = np.zeros(terms.shape[1])
    for start, stop in dags.levels:
        np.take(onward, dags.onward_from[:, start:stop],
                out=terms[1:, start:stop], mode="clip")
        terms[:, start:stop].sum(axis=0, out=onward[start:stop])

    loads = np.zeros(rows * edges)
    loads[dags.kept_at] = dags.kept_count * onward[dags.kept_head]
    return loads.reshape(rows, edges).sum(axis=0)


def _kept_edges(plan: LoadPlan,
                signal: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Every row's kept edges under ``signal``, as an ``(edges + 1,
    rows)`` mask whose last edge (the padding edge) is never kept, and
    the plateau rows.

    Distances come from min-plus relaxation to a fixed point: like the
    heapq Dijkstra's, each is the minimum over routes of their
    left-to-right float sums, so the two agree bit for bit.  Heap pops
    never decrease in distance, so on a tight edge ``(u, v)`` the order
    test ``order[v] > order[u]`` is ``dist[v] > dist[u]`` unless the two
    distances are equal.  A row with a tight edge between equal finite
    distances is a plateau row: ``_row_dag`` keeps its edges by the
    finalization order itself.
    """
    net, layout = plan.net, plan._layout
    rows = plan.row_count
    weights = edge_weight(signal[None], plan.omegas)
    by_edge = weights.T[:, layout.row_type]                 # (edges, rows)

    dist = _distances(layout, by_edge)
    tail_dist, head_dist = dist[net.srcs], dist[net.dsts]
    tight = ((tail_dist + by_edge
              <= head_dist * (1.0 + TIE_TOL) + TIE_TOL_ABS)
             & (tail_dist < np.inf))
    plateau = (tight & (head_dist == tail_dist)).any(axis=0)
    kept = np.append(tight & (head_dist > tail_dist) & ~plateau,
                     np.zeros((1, rows), dtype=bool), axis=0)
    plateau_rows = np.flatnonzero(plateau).tolist()
    origins = list(plan.by_origin)
    for row in plateau_rows:
        kind, at = divmod(row, len(origins))
        kept[_row_dag(plan, weights[kind], origins[at])[0], row] = True
    return kept, plateau_rows


def _dags(plan: LoadPlan, kept: np.ndarray) -> _Dags:
    """The DAGs of a ``_kept_edges`` mask, less the signal's fields.

    One sweep per level finds the levels: the slots a kept route of
    exactly ``k`` edges reaches, from those one of ``k - 1`` edges
    reaches, until no route is that long.  Levels are exact where path
    counts need not be.  One stable sort by level, deepest first, gives
    the slots their columns, a level's side by side from column 1.
    Column 0 holds 0.0, where edges that are not kept lead, and the
    column past the slots holds 1.0, the origins' path count.  numpy
    adds up a single column's entries pairwise, not in order, so the
    onward pass takes a level of one column together with the column
    before it, whose loads are final and come out the same again.

    Path counts then take one pass per level, shallowest first: a slot's
    count is the sum of its kept in-edges' tails' counts in the order of
    ``_Layout.into``.  Counts are whole numbers, exact in float below
    2**53, so they are the per-row loop's counts whatever order numpy
    adds them in.
    """
    net, layout = plan.net, plan._layout
    rows = plan.row_count
    reached = layout.start > 0.0
    level = np.zeros(reached.size, dtype=np.intp)
    kept_into = kept[layout.into]
    steps = np.empty(kept_into.shape, dtype=bool)
    depth = 0
    while True:
        np.take(reached, layout.into_tails, axis=0, out=steps)
        steps &= kept_into
        np.logical_or.reduce(steps, axis=0, out=reached)
        if not reached.any():
            break
        depth += 1
        np.copyto(level, depth, where=reached.ravel())

    # Levels below 256 or 65536 sort by radix, the common case.
    rank = (depth - level).astype(np.min_scalar_type(depth))
    per_level = np.bincount(rank, minlength=depth + 1)[:-1]
    spans = [1, *(1 + np.cumsum(per_level)).tolist()]
    columns = spans[-1]
    # Column 0 is slot 0's: node 0 of row 0, whose only edges are padding
    # edges, never kept, so its column gathers nothing but 0.0.
    order = np.append(0, np.argsort(rank, kind="stable")[:columns - 1])
    column = np.zeros(level.size, dtype=np.int32)
    column[order] = np.arange(columns, dtype=np.int32)
    column[layout.origin_at] = columns

    into_from = _gather_columns(column, kept_into, layout.in_tails, order)
    count = np.zeros(columns + 1)
    count[-1] = 1.0
    paths = np.empty(into_from.shape)
    for start, stop in zip(spans[-2::-1], spans[:0:-1]):
        np.take(count, into_from[:, start:stop], out=paths[:, start:stop],
                mode="clip")
        paths[:, start:stop].sum(axis=0, out=count[start:stop])

    kept_edge, kept_row = np.divmod(np.flatnonzero(kept), rows)
    head = np.take(column, net.dsts[kept_edge] * rows + kept_row)
    tail = np.take(column, net.srcs[kept_edge] * rows + kept_row)
    entry_at = np.take(column, layout.entry_at)
    return _Dags(
        kept_key=kept.tobytes(),
        levels=[(min(start, stop - 2), stop)
                for start, stop in zip(spans, spans[1:])],
        onward_from=_gather_columns(column, kept[layout.out_of],
                                    layout.out_heads, order),
        entry_at=entry_at,
        entry_count=count[entry_at],
        kept_at=(kept_row * net.edge_count + kept_edge).astype(np.int32),
        kept_head=head,
        kept_count=count[tail],
    )


def _gather_columns(column: np.ndarray, kept: np.ndarray, ends: np.ndarray,
                    order: np.ndarray) -> np.ndarray:
    """An edge table's far ends as columns, one table column per slot of
    ``order``, and column 0 where the edge is not kept.  ``kept`` and
    ``ends`` (flat slots) are ``(degree, nodes, rows)``."""
    shape = (len(kept), -1)
    table = np.take(column, np.take(ends.reshape(shape), order, axis=1))
    table *= np.take(kept.reshape(shape), order, axis=1)
    return table


def _distances(layout: _Layout, by_edge: np.ndarray) -> np.ndarray:
    """Every row's shortest distances from its origin, node-major
    ``(node_count + 1, rows)``, unreached nodes at inf: min-plus
    relaxation of ``(edges, rows)`` non-negative weights until no
    distance falls."""
    # Padding slots clip to a real edge's weight, but their tail is node
    # 0, which stays at inf.
    into = np.take(by_edge, layout.into, axis=0, mode="clip")
    dist = np.where(layout.start > 0.0, 0.0, np.inf)
    reach = np.empty(into.shape)
    while True:
        np.take(dist, layout.into_tails, axis=0, out=reach)
        reach += into
        best = reach.min(axis=0)
        if not (best < dist).any():
            return dist
        np.minimum(dist, best, out=dist)
