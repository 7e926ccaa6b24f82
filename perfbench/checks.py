"""Output checks for the benchmark workloads.

Every check is computed apart from the code it checks: link parameters
and demand come from this module's own TNTP reader, costs from its own
BPR and polynomial evaluation, signals from the recorded costs, shortest
paths from ``scipy.sparse.csgraph``. Each function returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass

import numpy as np

# Relative tolerance for quantities the program sums in another order.
REL = 1e-9
# Relative slack when deciding that a link lies on a shortest route; it is
# wider than any tie tolerance a loader would use, so only clear
# violations count.
TIGHT_REL = 1e-8
TIGHT_ABS = 1e-9
# Distances one dijkstra call may return (sources x nodes).
DIJKSTRA_ENTRIES = 1_000_000


@dataclass(frozen=True)
class Links:
    """Link table of a TNTP network, 0-based node ids, file order."""

    node_count: int
    src: np.ndarray
    dst: np.ndarray
    capacity: np.ndarray
    free_flow: np.ndarray
    b: np.ndarray
    power: np.ndarray


@dataclass(frozen=True)
class Trips:
    """OD demand as parallel arrays, 0-based node ids."""

    origin: np.ndarray
    dest: np.ndarray
    flow: np.ndarray


def _body(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines()
            if line.strip() and not line.strip().startswith(("<", "~"))]


def read_links(text: str) -> Links:
    rows = [line.replace(";", " ").split()[:7] for line in _body(text)]
    table = np.array(rows, dtype=float)
    src = table[:, 0].astype(np.int64) - 1
    dst = table[:, 1].astype(np.int64) - 1
    return Links(int(max(src.max(), dst.max())) + 1, src, dst,
                 table[:, 2], table[:, 4], table[:, 5], table[:, 6])


_ENTRY = re.compile(r"(\d+)\s*:\s*([-+0-9.eE]+)")


def read_trips(text: str) -> Trips:
    origins, dests, flows = [], [], []
    origin = None
    for line in _body(text):
        if line.lower().startswith("origin"):
            origin = int(line.split()[1])
            continue
        for dest, flow in _ENTRY.findall(line):
            if float(flow) > 0:
                origins.append(origin - 1)
                dests.append(int(dest) - 1)
                flows.append(float(flow))
    return Trips(np.array(origins), np.array(dests), np.array(flows))


def bpr(links: Links, flows: np.ndarray, capped: bool) -> np.ndarray:
    ratio = flows / links.capacity
    if capped:
        ratio = np.minimum(ratio, 1.0)
    return links.free_flow * (1.0 + links.b * ratio ** links.power)


def expected_signals(costs: np.ndarray, kind: str,
                     window: int | None = None) -> np.ndarray:
    """Signal each period should have seen, from the recorded costs.

    ``costs`` is (periods, links). Period i (0-based) sees the costs of
    periods 0..i-1. Scalar schemes emit zeros until one period is
    recorded, interval schemes until two are.
    """
    periods, links = costs.shape
    lo = np.zeros((periods, links))
    hi = np.zeros((periods, links))
    running = np.cumsum(costs, axis=0)
    for i in range(periods):
        if kind == "now" and i >= 1:
            lo[i] = hi[i] = costs[i - 1]
        elif kind == "mean" and i >= 1:
            lo[i] = hi[i] = running[i - 1] / i
        elif kind == "extreme" and i >= 2:
            recent = costs[max(0, i - window):i]
            lo[i], hi[i] = recent.min(axis=0), recent.max(axis=0)
    return np.stack([lo, hi], axis=2)


def _close(actual, expected, rel=REL, abs_tol=0.0) -> np.ndarray:
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.abs(actual - expected) <= rel * np.abs(expected) + abs_tol


def _report(failures: list[str], label: str, bad, detail=lambda i: "") \
        -> None:
    bad = np.flatnonzero(np.asarray(bad))
    if len(bad):
        failures.append(f"{label}: {len(bad)} violation(s), first at "
                        f"{bad[0]}{detail(bad[0])}")


def untight_loaded(links: Links, origins: np.ndarray, weights: np.ndarray,
                   flows: np.ndarray) -> np.ndarray:
    """Loaded links on no shortest route out of any origin, per period.

    ``weights`` is (periods, types, links), ``flows`` (periods, links).
    Many (period, type) copies of the network go into one block-diagonal
    graph, so one ``dijkstra`` call serves them all.
    """
    # Imported here: the set-up probes import this module, and they must
    # time only the package's own imports.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra

    if len(set(zip(links.src.tolist(), links.dst.tolist()))) < len(links.src):
        raise ValueError("the tightness check needs at most one link per "
                         "node pair")
    periods, types, edges = weights.shape
    flat = weights.reshape(periods * types, edges)
    n, n_orig = links.node_count, len(origins)
    chunk = max(1, int((DIJKSTRA_ENTRIES / (n * n_orig)) ** 0.5))
    tight = np.empty(flat.shape, dtype=bool)
    for first in range(0, len(flat), chunk):
        w = flat[first:first + chunk]
        copies = len(w)
        offset = (np.arange(copies) * n)[:, None]
        graph = csr_matrix(
            (w.ravel(), ((links.src + offset).ravel(),
                         (links.dst + offset).ravel())),
            shape=(copies * n, copies * n))
        dist = dijkstra(graph, indices=(origins + offset).ravel())
        own = np.arange(copies)
        dist = dist.reshape(copies, n_orig, copies, n)[own, :, own, :]
        du, dv = dist[:, :, links.src], dist[:, :, links.dst]
        with np.errstate(invalid="ignore"):
            on_route = (np.isfinite(du) & (du + w[:, None, :]
                                           <= dv * (1.0 + TIGHT_REL)
                                           + TIGHT_ABS))
        tight[first:first + copies] = on_route.any(axis=1)
    tight = tight.reshape(periods, types, edges).any(axis=1)
    return ((flows > 0.0) & ~tight).any(axis=1)


def check_network_run(records, links: Links, trips: Trips, kind: str,
                      window: int | None, capped: bool, type_count: int,
                      epsilon: float) -> list[str]:
    """Check one ``engine.run`` output against the model's definitions."""
    failures: list[str] = []
    if not records:
        return ["run returned no records"]
    t = np.array([r.t for r in records])
    flows = np.array([r.flows for r in records])
    costs = np.array([r.costs for r in records])
    social = np.array([r.social_cost for r in records])
    excess = np.array([r.total_excess for r in records])
    weights = np.array([r.weights for r in records])
    signals = np.array([r.signal for r in records])

    _report(failures, "period numbers", t != np.arange(1, len(t) + 1))

    # Flow conservation: in - out = demand ending - demand starting.
    n = links.node_count
    net_demand = (np.bincount(trips.dest, trips.flow, minlength=n)
                  - np.bincount(trips.origin, trips.flow, minlength=n))
    balance = np.zeros((len(records), n))
    np.add.at(balance.T, links.dst, flows.T)
    np.add.at(balance.T, links.src, -flows.T)
    tol = REL * trips.flow.sum()
    _report(failures, "flow conservation (period, node)",
            (np.abs(balance - net_demand) > tol).ravel())

    expected_costs = bpr(links, flows, capped)
    _report(failures, "BPR costs (period, link)",
            ~_close(costs, expected_costs, rel=1e-12).ravel())
    _report(failures, "social cost = flows @ costs",
            ~_close(social, np.einsum("te,te->t", flows, costs)))
    _report(failures, "total excess",
            ~_close(excess, np.maximum(flows - links.capacity, 0.0).sum(1),
                    abs_tol=tol))

    expected = expected_signals(costs, kind, window)
    _report(failures, f"{kind} signal (period, link, end)",
            ~_close(signals, expected, rel=1e-12).ravel())

    nominal = 1.0 / type_count
    head = weights[:, :-1]
    slack = 1e-12
    _report(failures, "type weights sum to 1",
            np.abs(weights.sum(axis=1) - 1.0) > slack)
    _report(failures, "type weights within 1/K +- eps",
            ((head < nominal - epsilon - slack)
             | (head > nominal + epsilon + slack)
             | (weights[:, -1:] < 0.0)).any(axis=1))

    omegas = np.arange(type_count) / (type_count - 1)
    weights_by_type = (omegas[None, :, None] * signals[:, None, :, 0]
                       + (1.0 - omegas[None, :, None]) * signals[:, None, :, 1])
    _report(failures, "flow on a link that is tight for no (type, origin)",
            untight_loaded(links, np.unique(trips.origin), weights_by_type,
                           flows), lambda i: f" (period {i + 1})")
    return failures


def tail_mean(records, start: int) -> float:
    """Mean social cost of the periods after ``start``."""
    return float(np.mean([r.social_cost for r in records[start:]]))


def check_near(label: str, value: float, target: float, rel: float) \
        -> list[str]:
    if abs(value - target) <= rel * abs(target):
        return []
    return [f"{label}: {value!r} is not within {rel:.3%} of {target!r}"]


def _csv_values(records) -> np.ndarray:
    return np.array([np.concatenate([[r.social_cost, r.total_excess],
                                     r.weights, r.flows, r.costs,
                                     r.signal[:, 0], r.signal[:, 1]])
                     for r in records])


def check_csv_round_trip(text: str, records) -> list[str]:
    """The CSV read back equals the in-memory records exactly."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) != len(records) + 1:
        return [f"CSV has {len(rows) - 1} rows for {len(records)} periods"]
    expected = _csv_values(records)
    body = rows[1:]
    if any(len(row) != expected.shape[1] + 1 for row in body):
        return ["CSV row width differs from the records"]
    failures: list[str] = []
    _report(failures, "CSV period column",
            [int(row[0]) != r.t for row, r in zip(body, records)])
    values = np.array([row[1:] for row in body], dtype=float)
    _report(failures, "CSV values differ from the records (row, column)",
            (values != expected).ravel())
    return failures


def check_summary(text: str, runs, window: int = 50) -> list[str]:
    """summary.csv lists each scheme with its tail means, in sweep order.

    ``runs`` is a list of (kind, window or None, records).
    """
    rows = list(csv.reader(io.StringIO(text)))
    if rows[:1] != [["scheme", "r", "mean_cost", "mean_excess", "regret"]]:
        return [f"summary.csv header is {rows[:1]}"]
    if len(rows) != len(runs) + 1:
        return [f"summary.csv has {len(rows) - 1} rows for {len(runs)} runs"]
    failures = []
    for row, (kind, r, records) in zip(rows[1:], runs):
        tail = records[-window:]
        cost = np.mean([rec.social_cost for rec in tail])
        excess = np.mean([rec.total_excess for rec in tail])
        if row[:2] != [kind, "" if r is None else str(r)]:
            failures.append(f"summary.csv row {row[:2]} for {kind} {r}")
        elif not (_close(float(row[2]), cost, rel=1e-12)
                  and _close(float(row[3]), excess, rel=1e-12,
                             abs_tol=1e-12)):
            failures.append(f"summary.csv tail means for {kind} {r}")
    return failures


def polynomial(coeffs: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-action cost ``sum_j coeffs[m, j] * n_m**j``."""
    powers = counts[..., None] ** np.arange(coeffs.shape[-1])
    return (coeffs * powers).sum(axis=-1)


def check_abstract_run(records, coeffs: np.ndarray,
                       initial_signal: np.ndarray, window: int,
                       agent_count: float, omegas) -> list[str]:
    """Check one ``run_abstract`` output under the ``extreme`` scheme."""
    failures: list[str] = []
    if not records:
        return ["run returned no records"]
    counts = np.array([r.counts for r in records])
    costs = np.array([r.costs for r in records])
    social = np.array([r.social_cost for r in records])
    signals = np.array([r.signal for r in records])

    _report(failures, "counts sum to the agent count",
            ~_close(counts.sum(axis=1), agent_count, rel=1e-12))

    weights = np.stack([w * signals[:, :, 0] + (1.0 - w) * signals[:, :, 1]
                        for w in omegas])                 # (K, T, M)
    minimizes = (weights == weights.min(axis=2, keepdims=True)).any(axis=0)
    _report(failures, "used action minimizes no type's signal (period, "
            "action)", ((counts > 0) & ~minimizes).ravel())

    expected_costs = polynomial(coeffs, counts)
    _report(failures, "action costs (period, action)",
            ~_close(costs, expected_costs, rel=1e-12, abs_tol=1e-12).ravel())
    _report(failures, "social cost",
            ~_close(social, (counts / agent_count * expected_costs).sum(1),
                    rel=1e-12))

    lo = np.empty_like(costs)
    hi = np.empty_like(costs)
    lo[0], hi[0] = initial_signal[:, 0], initial_signal[:, 1]
    for i in range(1, len(records)):
        recent = costs[max(0, i - window):i]
        lo[i], hi[i] = recent.min(axis=0), recent.max(axis=0)
        if i < window:
            lo[i] = np.minimum(lo[i], initial_signal[:, 0])
            hi[i] = np.maximum(hi[i], initial_signal[:, 1])
    _report(failures, "window envelope signal (period, action, end)",
            (signals != np.stack([lo, hi], axis=2)).ravel())
    return failures


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Largest gap between the two empirical CDFs."""
    points = np.concatenate([sample_a, sample_b])
    cdf_a = np.searchsorted(np.sort(sample_a), points, side="right")
    cdf_b = np.searchsorted(np.sort(sample_b), points, side="right")
    return float(np.max(np.abs(cdf_a / len(sample_a)
                               - cdf_b / len(sample_b))))


def check_convergence(report, support=(0.0, 0.2, 0.8, 1.0)) -> list[str]:
    """Coupled distance collapses; the arms end equal, on the support."""
    failures: list[str] = []
    d = np.asarray(report.distance_series)
    _report(failures, "coupled distance rises (step)", np.diff(d) > 0.0)
    if d[-1] != 0.0:
        failures.append(f"coupled distance ends at {d[-1]!r}, not 0")
    a, b = np.asarray(report.sample_a), np.asarray(report.sample_b)
    _report(failures, "end samples differ between arms (trajectory)", a != b)
    on_support = np.isclose(np.concatenate([a, b])[:, None],
                            np.array(support)[None, :],
                            rtol=0.0, atol=1e-12).any(axis=1)
    _report(failures, "end share off {0, 0.2, 0.8, 1} (arm a, then arm b)",
            ~on_support)
    ks = ks_statistic(a, b)
    if abs(ks - report.ks_statistic) > 1e-12:
        failures.append(f"KS statistic {report.ks_statistic!r} != "
                        f"recomputed {ks!r}")
    return failures
