"""Discrete-time simulation loop.

Each period: draw a fresh population mix, publish a per-edge signal
computed from the cost history, route every agent by its signal-weighted
shortest paths, realize congestion costs, record them into the history,
and log flows, costs, social cost, and capacity excess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .costs import (
    edge_costs,
    minimize_scalar_on_interval,
    social_cost_network,
    total_excess,
)
from .instances import load_instance
from .network import (
    DemandTable,
    Network,
    ValidationError,
    parse_network,
    parse_trips,
    require_int,
)
from .population import (
    derived_rng,
    sample_profile,
    uniform_perturbation,
    uniform_type_set,
)
from .signaling import CostHistory, Scheme, emit_signal
from .assignment import LoadPlan, assign

__all__ = [
    "PeriodRecord",
    "RunConfig",
    "Summary",
    "ValidationError",
    "diamond_system_optimum",
    "records_to_csv",
    "run",
    "summarize",
    "table_csv",
    "write_csv",
]


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation run.

    The problem instance comes from exactly one source: a built-in
    ``instance`` name or a pair of TNTP file paths.
    """

    scheme: Scheme
    horizon: int
    seed: int
    capped: bool = True
    instance: str | None = None
    net_path: str | Path | None = None
    trips_path: str | Path | None = None
    type_count: int = 5
    epsilon: float = 0.15

    def __post_init__(self):
        object.__setattr__(self, "horizon",
                           require_int(self.horizon, "horizon", 1))
        object.__setattr__(self, "type_count",
                           require_int(self.type_count, "type count", 2))
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        paths = self.net_path is not None or self.trips_path is not None
        if (self.instance is not None) == paths:
            raise ValidationError(
                "specify exactly one instance source: a built-in name "
                "or a pair of file paths")
        if paths and (self.net_path is None or self.trips_path is None):
            raise ValidationError("both net_path and trips_path are needed")

    def load(self) -> tuple[Network, DemandTable]:
        if self.instance is not None:
            return load_instance(self.instance)
        return (parse_network(Path(self.net_path).read_text()),
                parse_trips(Path(self.trips_path).read_text()))


@dataclass
class PeriodRecord:
    """Everything observed in one period."""

    t: int
    flows: np.ndarray
    costs: np.ndarray
    social_cost: float
    total_excess: float
    weights: np.ndarray
    signal: np.ndarray = field(repr=False)


def run(config: RunConfig) -> list[PeriodRecord]:
    """Simulate ``config.horizon`` periods; deterministic given the seed.

    Raises ``NoPathError`` before the first period when some
    origin-destination pair has no route.
    """
    net, demand = config.load()
    types = uniform_type_set(config.type_count)
    plan = LoadPlan(net, demand, types)
    renewal = uniform_perturbation(config.type_count, config.epsilon)
    history = CostHistory(net.edge_count, config.scheme)
    pop_rng = derived_rng(config.seed, "population")

    records: list[PeriodRecord] = []
    for t in range(1, config.horizon + 1):
        profile = sample_profile(renewal, pop_rng)
        signal = emit_signal(history)
        flows = assign(plan, signal, profile)
        costs = edge_costs(net, flows, capped=config.capped)
        history.record_period(costs)
        records.append(PeriodRecord(
            t=t,
            flows=flows,
            costs=costs,
            social_cost=social_cost_network(flows, costs),
            total_excess=total_excess(net, flows),
            weights=np.array(profile.weights),
            signal=signal,
        ))
    return records


@dataclass(frozen=True)
class Summary:
    """Tail-window averages of a run."""

    window: int
    mean_cost: float
    mean_excess: float
    regret: float | None


def summarize(records: list[PeriodRecord],
              reference_cost: float | None = None,
              window: int | None = None) -> Summary:
    """Average social cost and excess over the last ``window`` periods.

    The default window is the last 50 periods (or the whole run when
    shorter).  Regret is the mean cost minus ``reference_cost`` and is
    omitted when no reference is given.
    """
    if not records:
        raise ValidationError("cannot summarize an empty run")
    if window is None:
        window = min(50, len(records))
    if not 1 <= window <= len(records):
        raise ValidationError(
            f"window {window} must be in [1, {len(records)}]")
    tail = records[-window:]
    mean_cost = float(np.mean([r.social_cost for r in tail]))
    mean_excess = float(np.mean([r.total_excess for r in tail]))
    regret = None if reference_cost is None else mean_cost - reference_cost
    return Summary(window, mean_cost, mean_excess, regret)


_FLOAT_FMT = "%.17g"


def table_csv(header: list[str], rows) -> str:
    """``header``, then one line per row of ``rows`` (float arrays as wide
    as the header) in 17 significant digits, so parsing the text back
    reproduces every value; whole numbers such as ``t`` print as ints."""
    line = ",".join([_FLOAT_FMT] * len(header))
    return "\n".join([",".join(header)]
                     + [line % tuple(row.tolist()) for row in rows]) + "\n"


def records_to_csv(records: list[PeriodRecord]) -> str:
    """One ``table_csv`` row per period: t, social cost, total excess,
    the type weights, then per edge the flows, costs and the signal's
    lower and upper endpoints."""
    if not records:
        raise ValidationError("cannot serialize an empty run")
    k = len(records[0].weights)
    e = len(records[0].flows)
    header = (["t", "social_cost", "total_excess"]
              + [f"w_omega_{i}" for i in range(1, k + 1)]
              + [f"{block}_e{i}" for block in ("flow", "cost", "ulo", "uhi")
                 for i in range(1, e + 1)])
    return table_csv(header, (
        np.concatenate(([rec.t, rec.social_cost, rec.total_excess],
                        rec.weights, rec.flows, rec.costs,
                        rec.signal.T.ravel()))
        for rec in records))


def write_csv(records: list[PeriodRecord], path: str | Path) -> None:
    Path(path).write_text(records_to_csv(records))


def diamond_system_optimum() -> dict[str, float]:
    """Reference point for the diamond instance: its system optimum.

    Puts ``15(2-x)`` agents on the upper middle link 2-3 and ``15x`` on
    the lower middle link 2-4, and minimizes the diamond network's own
    uncapped social cost over ``x in [0, 2]``.  The objective is priced
    with ``edge_costs`` on the instance itself; with the middle links'
    parameters it reads ``30[(2-x)(1+(2-x)^2) + x(1+10x^6)]`` plus the
    nearly flat feeder links.  Returns the split together with the
    uncapped social cost, the capped social cost and the capacity excess
    of that split, all three at network scale (the scale on which
    ``run`` reports ``social_cost`` and ``total_excess``).
    """
    net, _ = load_instance("diamond")

    def flows_at(x: float) -> np.ndarray:
        upper, lower = 15.0 * (2.0 - x), 15.0 * x
        return np.array([30.0, upper, lower, upper, lower])

    def uncapped_cost(x: float) -> float:
        flows = flows_at(x)
        return social_cost_network(flows,
                                   edge_costs(net, flows, capped=False))

    split, minimum = minimize_scalar_on_interval(uncapped_cost, 0.0, 2.0)
    flows = flows_at(split)
    return {
        "split": split,
        "uncapped_cost": minimum,
        "capped_cost": social_cost_network(
            flows, edge_costs(net, flows, capped=True)),
        "excess": total_excess(net, flows),
    }
