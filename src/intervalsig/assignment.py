"""Turn a published interval signal into edge flows.

Each traveller type reads the signal through a weight ``omega``: the
route weight of an edge is ``omega * lower + (1 - omega) * upper``
(``signaling.edge_weight``).  Every agent of a type takes a
weight-shortest route, splitting equally across all tied routes, tied
within ``TIE_TOL`` and ``TIE_TOL_ABS``, and the per-type loads add up to
the edge flows for the period.

A run holds one ``LoadPlan`` (the network, the demand grouped by
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
Under r-window signals either often holds.  It keeps the DAGs as one
list of kept edges over all rows, sorted by their tail's level, and
takes path counts and onward loads in one ``np.add.at`` per level.  A
new signal's distances come from min-plus relaxation, which starts from
the memo's route sums under the new weights (incremental shortest
paths: Ramalingam & Reps, J. Algorithms 21(2), 1996).  Each such bound
is some route's left-to-right float sum, and float addition is
monotone, so relaxing from them reaches the minimum over routes bit for
bit, as relaxing from inf does; under r-window signals last period's
routes are often still shortest, and then one check pass finds the
bounds exact.  A row with a distance plateau takes its DAG from
``_row_dag``.  A plan batches when its rows times edges reach
``BATCH_CROSSOVER``.

A network run's first signal is the zero warm-up, so every plan starts
from it: construction builds each origin's DAG under zero weights, whose
path counts show every destination reachable; a batched plan, and no
other, also holds a ``_Layout`` and a memo that starts as that signal's
DAGs.  Each plan caches the DAGs that ``_row_dag`` builds, keyed by the
row's weight vector (its bytes) and then by origin; the first entry is
the plan's own zero weights.  Once the cache holds ``ROW_DAG_CACHE``
weight vectors it drops the oldest.  A DAG is a pure function of the
weights, the origin and the network, so a hit gives the bytes a rebuild
would.  Hits are common: scalar signals (``now``, ``mean``, the zero
warm-up) give every type the same weights, and a window min/max signal
returns to earlier values whenever no extreme enters or leaves the
window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .network import (
    DemandTable,
    Network,
    NoPathError,
    ValidationError,
    dijkstra,
    read_only,
    require_finite_nonneg,
    require_instance,
)
from .population import TypeSet
from .signaling import edge_weight

__all__ = [
    "BATCH_CROSSOVER",
    "LoadPlan",
    "ROW_DAG_CACHE",
    "ValidationError",
    "assign",
]

# Rows x edges from which a plan loads in whole-array passes.  Below it
# the fixed cost of some dozens of numpy calls per period outweighs the
# per-edge Python work they replace.  Measured per call with both
# loaders, every signal new, best of three (2-CPU Intel Xeon, Python
# 3.11, numpy 2.4.6, a shared machine whose timings drift by up to 1.5x
# between processes): the diamond (5 rows x 5 edges) takes 42 us per
# row and 88 us batched; on random chains with back edges and 5 types
# batching already wins at 300 (228 against 159 us) and 360 (256
# against 180 us), and so it does at 420 (294 against 215 us), 560 (612
# against 364 us) and on Sioux Falls (120 rows x 76 edges: 3.7 against
# 0.6 ms).  No instance lies between the diamond and 300.
BATCH_CROSSOVER = 400

# Weight vectors whose row DAGs a plan keeps, the oldest dropped first.
ROW_DAG_CACHE = 64

# Tolerances for calling two route costs "tied": relative plus a small
# absolute slack so exact-zero distances still admit ties.
TIE_TOL = 1e-9
TIE_TOL_ABS = 1e-12


class LoadPlan:
    """One run's loading problem: the network, the demand grouped by
    origin (origins and, per origin, destinations ascending) and the
    type set.

    Construction checks the demand once: a node outside
    ``1..node_count`` is a ``ValidationError`` and a pair that no route
    connects, the first in sorted order, a ``NoPathError``: one whose
    destination the origin's zero-weight DAG counts no path to.  Those
    DAGs are the row-DAG cache's first entry.  Rows are (type, origin)
    pairs, type-major with origins ascending.  A plan with at least
    ``BATCH_CROSSOVER`` rows times edges loads in whole-array passes
    (``batched``); only such a plan holds their ``_Layout`` and memo, the
    zero warm-up signal's DAGs at first.

    All a plan holds is read-only but its memo, which it rebinds and
    never writes into, and its row-DAG cache.  A shallow copy owns both:
    it starts from this plan's memo and a copy of its cache, so loading
    the copy leaves this plan as it was.
    """

    def __init__(self, net: Network, demand: DemandTable, types: TypeSet):
        require_instance(types, TypeSet, "types")
        by_origin: dict[int, list[tuple[int, float]]] = {}
        for (origin, dest), flow in sorted(demand.entries.items()):
            if not (1 <= origin <= net.node_count
                    and 1 <= dest <= net.node_count):
                raise ValidationError(
                    f"demand pair ({origin}, {dest}) has a node outside "
                    f"1..{net.node_count}")
            by_origin.setdefault(origin, []).append((dest, flow))
        self.net = net
        self.types = types
        # one row per type
        self.omegas = read_only(np.array(types.omegas)[:, None])
        self.by_origin = MappingProxyType(
            {origin: tuple(dests) for origin, dests in by_origin.items()})
        self.row_count = len(types) * len(self.by_origin)
        self.batched = self.row_count * net.edge_count >= BATCH_CROSSOVER
        self.srcs = tuple(net.srcs.tolist())
        self.dsts = tuple(net.dsts.tolist())
        # weight bytes -> origin -> ``_row_dag``'s (kept, count)
        self._row_dags: dict[bytes, dict[int, _RowDag]] = {}
        zero = np.zeros(net.edge_count)
        for origin, dests in self.by_origin.items():
            _, count = _row_dag(self, zero, origin)
            for dest, _ in dests:
                if count[dest] == 0.0:
                    raise NoPathError(
                        f"destination {dest} unreachable from origin {origin}")
        if self.batched:
            # Under the zero signal every row is a plateau row, so the
            # zero weights' DAGs, now cached, are its kept edges.
            kept = np.zeros((net.edge_count + 1, self.row_count), dtype=bool)
            for at, origin in enumerate(self.by_origin):
                # the origin's row of every type
                kept[_row_dag(self, zero, origin)[0],
                     at::len(self.by_origin)] = True
            self._layout = _Layout(self)
            self._memo = replace(_dags(self, kept),
                                 key=np.zeros((net.edge_count, 2)).tobytes())

    def __copy__(self) -> LoadPlan:
        copied = object.__new__(LoadPlan)
        vars(copied).update(vars(self))
        # ``_row_dag`` writes into an entry's per-origin dict
        copied._row_dags = {key: dict(by_origin)
                            for key, by_origin in self._row_dags.items()}
        return copied


class _Layout:
    """The index arrays the batched loader gathers by, fixed per plan and
    read-only, so that copies of the plan share them.

    Per-node arrays are node-major, ``(node_count + 1, rows)``, so that a
    gather by node copies whole contiguous rows; flattened, node ``v`` of
    row ``r`` sits at *slot* ``v * rows + r``.  ``into`` holds one column
    of in-edge ids per node, padded with the edge count.
    """

    def __init__(self, plan: LoadPlan):
        net = plan.net
        nodes, rows = net.node_count + 1, plan.row_count
        origins = list(plan.by_origin)
        self.row_type = np.repeat(np.arange(len(plan.types)), len(origins))
        self.start = np.zeros((nodes, rows))
        self.start[origins * len(plan.types), np.arange(rows)] = 1.0
        # The padding edge runs from node 0, never reached.
        into = [[] for _ in range(nodes)]
        for eid, head in enumerate(net.dsts.tolist()):
            into[head].append(eid)
        self.into = np.full((max(map(len, into)), nodes), net.edge_count,
                            dtype=np.intp)
        for node, edges in enumerate(into):
            self.into[:len(edges), node] = edges
        self.into_tails = np.append(net.srcs, 0)[self.into]
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
        for array in vars(self).values():
            read_only(array)


_RowDag = tuple[list[int], list[float]]


@dataclass(frozen=True)
class _Dags:
    """One kept-edge mask's DAGs over all rows, as the list of its kept
    edges, and the last signal that kept it.

    The kept edges run by their tail's level (its longest kept route
    from the origin), deepest first, and within a level last in file
    order first; ``levels`` gives each level's run of the list.  Tails,
    heads and demand entries are ``_Layout`` slots.  Everything but
    ``key`` is a function of ``kept_key`` and the plan's ``_Layout``, and
    read-only, so plans can share it.
    """

    kept_key: bytes             # the kept-edge mask's bytes
    levels: tuple[tuple[int, int], ...]   # runs of kept edges, deepest first
    tail: np.ndarray            # the kept edges' tail slots
    head: np.ndarray            # their head slots
    kept_at: np.ndarray         # their positions, flat into (rows, edges)
    tail_count: np.ndarray      # path counts of their tails
    entry_count: np.ndarray     # path counts of the demand entries
    key: bytes = b""            # the signal's bytes


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
    # a plain loop: a few shares, checked on every call
    for share in shares.tolist():
        if not 0.0 <= share < np.inf:     # NaN fails both
            raise ValidationError(
                f"type shares must be finite and >= 0, got {share}")
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
    each type's share of the population, one finite, non-negative entry
    per type (a ``ValidationError`` otherwise).  Flows add the rows one
    by one, type-major with origins ascending.
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
    finalization order of their tails, file order within a tail) and
    the path counts.  The cache shares these lists: callers only read
    them.
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
    dist, order, finalized = dijkstra(net, weights, origin)
    w = weights.tolist()
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
    dag = by_origin[origin] = (kept, count)
    return dag


def _load_origin(plan: LoadPlan, dag: _RowDag,
                 dests: list[tuple[int, float]], share: float,
                 flows: list[float]) -> None:
    """Add one row's edge loads to ``flows``: the exact reference.

    A reverse pass over the kept edges of the row's DAG accumulates the
    onward loads.  The plan checked every destination reachable, and
    finite weights reach whatever a route reaches.
    """
    kept, count = dag
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

    The plan's memo holds the last signal's DAGs: a signal equal to the
    memo's bit for bit keeps it; any other gets its kept edges from
    ``_kept_edges``, and ``_dags`` builds new DAGs only when those differ
    from the memo's.  Only the onward pass depends on the shares.  Node
    ``u``'s onward load is its demand term, then its kept out-edges'
    heads' loads in reverse file order, added one by one as the per-row
    reverse pass adds them.  The pass takes the levels deepest first, so
    every head's load is final when its tail's level comes, and one
    ``np.add.at`` adds a level's heads' loads to their tails', in index
    order.  Each row's edge loads
    are ``count[tail] * onward[head]`` and the flows their axis-0 sum,
    row by row.
    """
    key = signal.tobytes()
    dags = plan._memo
    if dags.key != key:
        kept = _kept_edges(plan, signal)
        if dags.kept_key != kept.tobytes():
            dags = _dags(plan, kept)
        dags = plan._memo = replace(dags, key=key)
    layout = plan._layout
    tail, head = dags.tail, dags.head
    onward = np.zeros(layout.start.size)
    onward[layout.entry_at] = (shares[layout.entry_type]
                               * layout.entry_flow / dags.entry_count)
    for start, stop in dags.levels:
        np.add.at(onward, tail[start:stop], onward[head[start:stop]])

    loads = np.zeros(plan.row_count * plan.net.edge_count)
    loads[dags.kept_at] = dags.tail_count * onward[head]
    return loads.reshape(plan.row_count, -1).sum(axis=0)


def _kept_edges(plan: LoadPlan, signal: np.ndarray) -> np.ndarray:
    """Every row's kept edges under ``signal``, as an ``(edges + 1,
    rows)`` mask whose last edge (the padding edge) is never kept.

    Distances come from min-plus relaxation to a fixed point: like the
    heapq Dijkstra's, each is the minimum over routes of their
    left-to-right float sums, so the two agree bit for bit.  The
    relaxation starts from ``_bounds``, the memo's route sums under the
    new weights, and reaches the fixed point a start from inf reaches
    (see ``_distances``).  Heap pops never decrease in distance, so on a
    tight edge ``(u, v)`` the order test ``order[v] > order[u]`` is
    ``dist[v] > dist[u]`` unless the two distances are equal.  A row
    with a tight edge between equal finite distances is a plateau row:
    ``_row_dag`` keeps its edges by the finalization order itself.
    """
    net, layout = plan.net, plan._layout
    rows = plan.row_count
    weights = edge_weight(signal[None], plan.omegas)
    by_edge = weights.T[:, layout.row_type]                 # (edges, rows)

    dist = _distances(layout, by_edge, _bounds(layout, plan._memo, by_edge))
    tail_dist, head_dist = dist[net.srcs], dist[net.dsts]
    tight = ((tail_dist + by_edge
              <= head_dist * (1.0 + TIE_TOL) + TIE_TOL_ABS)
             & (tail_dist < np.inf))
    plateau = (tight & (head_dist == tail_dist)).any(axis=0)
    kept = np.append(tight & (head_dist > tail_dist) & ~plateau,
                     np.zeros((1, rows), dtype=bool), axis=0)
    origins = list(plan.by_origin)
    for row in np.flatnonzero(plateau).tolist():
        kind, at = divmod(row, len(origins))
        kept[_row_dag(plan, weights[kind], origins[at])[0], row] = True
    return kept


def _dags(plan: LoadPlan, kept: np.ndarray) -> _Dags:
    """The DAGs of a ``_kept_edges`` mask, less the signal's ``key``.

    One sweep per level finds the levels: the slots a kept route of
    exactly ``k`` edges reaches, from those one of ``k - 1`` edges
    reaches, until no route is that long.  Levels are exact where path
    counts need not be.  The kept edges, taken last in file order first,
    then go through one stable sort by their tail's level, deepest
    first.

    Path counts then take one ``np.add.at`` per level, shallowest first,
    from the origins' 1.0: every edge adds its tail's count to its
    head's.  Counts are whole numbers, exact in float below 2**53, so
    they are the per-row loop's counts whatever order they are added in.
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

    edge, row = np.divmod(np.flatnonzero(kept)[::-1], rows)
    tail = net.srcs[edge] * rows + row
    # Tails sit on levels 0 to depth - 1; below 256 or 65536 levels the
    # sort is by radix, the common case.
    rank = (depth - 1 - level[tail]).astype(np.min_scalar_type(depth))
    order = np.argsort(rank, kind="stable")
    stops = np.cumsum(np.bincount(rank, minlength=depth)).tolist()
    levels = tuple(zip([0, *stops], stops))
    tail = tail[order]
    head = (net.dsts[edge] * rows + row)[order]
    count = layout.start.flatten()
    for start, stop in reversed(levels):
        np.add.at(count, head[start:stop], count[tail[start:stop]])
    return _Dags(
        kept_key=kept.tobytes(),
        levels=levels,
        tail=read_only(tail),
        head=read_only(head),
        kept_at=read_only((row * net.edge_count + edge)[order]),
        tail_count=read_only(count[tail]),
        entry_count=read_only(count[layout.entry_at]),
    )


def _bounds(layout: _Layout, dags: _Dags, by_edge: np.ndarray) -> np.ndarray:
    """Upper bounds on every row's distances, node-major like
    ``_distances``': route sums along ``dags``' kept edges under the
    ``(edges, rows)`` weights ``by_edge``.

    From 0.0 at the origins and inf elsewhere, one ``np.minimum.at`` per
    level, shallowest first, takes each kept edge's tail bound plus its
    weight into its head.  A tail's in-edges all sit on shallower levels,
    so its bound is final when its level comes, and every bound is the
    left-to-right sum of some kept route.
    """
    dist = np.where(layout.start > 0.0, 0.0, np.inf)
    flat = dist.ravel()
    weight = by_edge.T.ravel()[dags.kept_at]
    tail, head = dags.tail, dags.head
    for start, stop in reversed(dags.levels):
        np.minimum.at(flat, head[start:stop],
                      flat[tail[start:stop]] + weight[start:stop])
    return dist


def _distances(layout: _Layout, by_edge: np.ndarray,
               dist: np.ndarray) -> np.ndarray:
    """Every row's shortest distances from its origin, node-major
    ``(node_count + 1, rows)``, unreached nodes at inf: min-plus
    relaxation of ``(edges, rows)`` non-negative weights until no
    distance falls.

    The relaxation starts from ``dist``, ``_bounds``' route sums, which
    it lowers in place; a start of 0.0 at the origins and inf elsewhere
    reaches the same bytes.  Every finite value it holds is some route's
    left-to-right float sum, so none falls below the minimum over
    routes; at the fixed point no edge improves on its head's value, and
    float addition is monotone, so along the best route each value is at
    most that route's partial sum.  Bounds that no edge improves on are
    the distances after one pass.
    """
    # Padding slots clip to a real edge's weight, but their tail is node
    # 0, which stays at inf.
    into = np.take(by_edge, layout.into, axis=0, mode="clip")
    reach = np.empty(into.shape)
    best = np.empty(dist.shape)
    while True:
        np.take(dist, layout.into_tails, axis=0, out=reach)
        reach += into
        reach.min(axis=0, out=best)
        if not (best < dist).any():
            return dist
        np.minimum(dist, best, out=dist)
