"""Turn a published interval signal into edge flows.

Each traveller type reads the signal through a weight ``omega``: the
route weight of an edge is ``omega * lower + (1 - omega) * upper``.
Every agent of a type takes a weight-shortest route, splitting equally
across all tied routes, and the per-type loads add up to the edge flows
for the period.

``assign`` is the loader every run uses. It loads one origin's demand
in a single pass over that origin's tight-edge DAG (Dial's STOCH
loading, Transp. Res. 5:83, 1971): equal splitting over all tight routes
factorizes per origin, so no origin-destination pair is split on its
own. The DAG keeps an edge when it lies on a weight-shortest route from
the origin, within the tie tolerance, and leads to a node that Dijkstra
finalized later; the second condition breaks zero-weight cycles while
keeping every shortest-path tree edge.
"""

from __future__ import annotations

import numpy as np

from .network import (
    DemandTable,
    Network,
    NoPathError,
    TIE_TOL,
    TIE_TOL_ABS,
    ValidationError,
    dijkstra,
)
from .population import PopulationProfile, TypeSet

__all__ = [
    "ValidationError",
    "assign",
    "edge_weight",
    "pick_among_ties",
]


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
    first axis: on many short rows that is many times faster than
    reducing along the last axis.
    """
    by_entry = np.ascontiguousarray(np.moveaxis(weights, -1, 0))
    ties = by_entry == by_entry.min(axis=0)
    n_ties = ties.sum(axis=0)
    pick = np.minimum((np.asarray(u) * n_ties).astype(int), n_ties - 1)
    return (np.cumsum(ties, axis=0) > pick).argmax(axis=0)


def _checked_signal(net: Network, demand: DemandTable, signal: np.ndarray,
                    profile: PopulationProfile, types: TypeSet) -> np.ndarray:
    """The signal as an array, once it, the profile and every demand
    pair are checked against the network and the type set."""
    signal = np.asarray(signal, dtype=float)
    if signal.shape != (net.edge_count, 2):
        raise ValidationError(
            f"signal shape {signal.shape} does not match "
            f"({net.edge_count}, 2)")
    if len(profile.weights) != len(types):
        raise ValidationError(
            f"profile has {len(profile.weights)} weights for "
            f"{len(types)} types")
    for origin, dest in demand.entries:
        if not (1 <= origin <= net.node_count and 1 <= dest <= net.node_count):
            raise ValidationError(
                f"demand pair ({origin}, {dest}) has a node outside "
                f"1..{net.node_count}")
    return signal


def assign(
    net: Network,
    demand: DemandTable,
    signal: np.ndarray,
    profile: PopulationProfile,
    types: TypeSet,
) -> np.ndarray:
    """Route every agent along its weight-shortest paths; return the
    per-edge flows.

    The signal must cover every edge (shape ``(edge_count, 2)``) with
    non-negative endpoints.  Per type and origin ``o`` this runs one
    forward Dijkstra and keeps the edges ``(u, v)`` that are tight
    (``dist[u] + w <= dist[v]`` within ``TIE_TOL``/``TIE_TOL_ABS``) and
    advance the Dijkstra finalization order: the edges of the
    weight-shortest routes from ``o``, less those pointing back in
    finalization order, which breaks zero-weight cycles.  A forward pass
    in finalization order counts the tight paths ``cf[v]`` from ``o``; a
    reverse pass accumulates
    ``g[v] = share * q[o, v] / cf[v] + sum of g[w] over kept (v, w)``;
    edge ``(u, v)`` then carries ``cf[u] * g[v]``, which is the equal
    split of every destination's demand over its tight routes.
    """
    signal = _checked_signal(net, demand, signal, profile, types)
    by_origin: dict[int, list[tuple[int, float]]] = {}
    for (origin, dest), flow in sorted(demand.entries.items()):
        by_origin.setdefault(origin, []).append((dest, flow))

    srcs, dsts = net.srcs.tolist(), net.dsts.tolist()
    slack = 1.0 + TIE_TOL
    flows = [0.0] * net.edge_count
    for omega, share in zip(types.omegas, profile.weights):
        weights = edge_weight(signal, omega)
        w = weights.tolist()
        for origin, dests in by_origin.items():
            dist_a, order_a = dijkstra(net, weights, origin)
            dist, order = dist_a.tolist(), order_a.tolist()
            finalized = [0] * (max(order) + 1)
            for node, rank in enumerate(order):
                if rank >= 0:
                    finalized[rank] = node
            for dest, _ in dests:
                if order[dest] < 0:
                    raise NoPathError(
                        f"destination {dest} unreachable from {origin}")

            # Forward pass: keep the tight edges that advance the
            # finalization order and count the kept paths from origin.
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

            # Reverse pass: agents bound for v or beyond, per path into v.
            onward = [0.0] * (net.node_count + 1)
            for dest, flow in dests:
                onward[dest] = share * flow / count[dest]
            for eid in reversed(kept):
                onward[srcs[eid]] += onward[dsts[eid]]
            for eid in kept:
                flows[eid] += count[srcs[eid]] * onward[dsts[eid]]
    return np.array(flows)
