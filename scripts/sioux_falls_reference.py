#!/usr/bin/env python3
"""User-equilibrium reference values for the bundled Sioux Falls instance.

Solves the static traffic assignment of the instance's full demand table
with the Frank-Wolfe method, once on capped BPR link costs (the cost
model the simulator runs by default) and once on uncapped ones.  Each
solve starts from the all-or-nothing loading at free-flow times, takes
an exact line-search step toward the all-or-nothing loading at current
costs, and stops once the relative gap

    (sum_e x_e c_e(x) - sum_od q_od * shortest_od(c(x))) / sum_e x_e c_e(x)

is at most ``GAP`` or after ``MAX_ITER`` iterations.  Shortest-path
ties are broken by the package's Dijkstra (lowest finalization order),
so the result is deterministic.

For each model it prints the capped social cost and the total capacity
excess at the final flows, the relative gap reached and the iteration
count.  Capped costs are flat above capacity, so capped equilibria need
not be unique on overloaded links; the values printed are those of this
method from this start.

    python3 scripts/sioux_falls_reference.py
"""

import numpy as np

from intervalsig.costs import edge_costs, social_cost_network, total_excess
from intervalsig.instances import load_instance
from intervalsig.network import dijkstra

# the stopping rule that defines a4's pinned excess bound
GAP = 1e-7
MAX_ITER = 1000


def all_or_nothing(net, demand, costs):
    """Load every OD pair on one shortest route; also return the total
    demand-weighted shortest route cost."""
    by_origin = {}
    for (o, d), q in demand.entries.items():
        if q > 0:
            by_origin.setdefault(o, []).append((d, q))
    in_edges = [[] for _ in range(net.node_count + 1)]
    for e in net.edges:
        in_edges[e.dst].append((e.src, e.id))
    flows = np.zeros(net.edge_count)
    shortest_total = 0.0
    for origin, dests in sorted(by_origin.items()):
        dist, order, finalized = dijkstra(net, costs, origin)
        # each reached node's tree edge: the cheapest in-edge, ties to
        # the predecessor finalized first
        parent_edge = {}
        for v in range(1, net.node_count + 1):
            if v == origin or order[v] < 0:
                continue
            parent_edge[v] = min(
                in_edges[v],
                key=lambda ue: (dist[ue[0]] + costs[ue[1]], order[ue[0]]))[1]
        load = np.zeros(net.node_count + 1)
        for dest, q in dests:
            load[dest] += q
            shortest_total += q * dist[dest]
        # push loads to the origin, farthest nodes first
        for v in reversed(finalized[1:]):
            eid = parent_edge[v]
            flows[eid] += load[v]
            load[net.srcs[eid]] += load[v]
    return flows, shortest_total


def line_search(net, flows, target, capped, iterations=60):
    """Step in [0, 1] minimizing the Beckmann potential along the segment
    (bisection on its derivative, which is nondecreasing)."""
    direction = target - flows

    def slope(step):
        return edge_costs(net, flows + step * direction, capped) @ direction

    if slope(1.0) <= 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def frank_wolfe(net, demand, capped, gap_tol, max_iter):
    """Return (flows, relative gap, steps taken)."""
    free_flow = edge_costs(net, np.zeros(net.edge_count), capped)
    flows, _ = all_or_nothing(net, demand, free_flow)
    steps = 0
    while True:
        costs = edge_costs(net, flows, capped)
        target, shortest_total = all_or_nothing(net, demand, costs)
        total = social_cost_network(flows, costs)
        gap = (total - shortest_total) / total
        if gap <= gap_tol or steps == max_iter:
            return flows, gap, steps
        flows = flows + line_search(net, flows, target, capped) * (
            target - flows)
        steps += 1


def main():
    net, demand = load_instance("sioux-falls")
    for label, capped in (("capped", True), ("uncapped", False)):
        flows, gap, iterations = frank_wolfe(net, demand, capped, GAP,
                                             MAX_ITER)
        capped_cost = social_cost_network(
            flows, edge_costs(net, flows, capped=True))
        print(f"{label}_equilibrium capped_cost={capped_cost:.3f} "
              f"excess={total_excess(net, flows):.3f} "
              f"relative_gap={gap:.3e} iterations={iterations}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
