"""Discrete-time simulation loop.

Each period: take that period's population mix (the whole run's mixes
are drawn before period 1), publish a per-edge signal computed from the
cost history, route every agent by its signal-weighted shortest paths,
realize congestion costs, record them into the history, and write flows,
costs, social cost and capacity excess into row t of the run's columns.

A built-in instance's loading plan is built once per process and type
set, and only read after that: every run on it loads through a shallow
copy of its own.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
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
    ParseError,
    ValidationError,
    parse_network,
    parse_trips,
    require_instance,
    require_int,
    require_real,
)
from .population import (
    TypeSet,
    derived_rng,
    sample_profile,
    uniform_perturbation,
    uniform_type_set,
)
from .signaling import CostHistory, Scheme, emit_signal
from .assignment import LoadPlan, assign

__all__ = [
    "Columns",
    "Row",
    "RunConfig",
    "RunResult",
    "Summary",
    "ValidationError",
    "diamond_system_optimum",
    "records_to_csv",
    "run",
    "signal_columns",
    "summarize",
    "table_csv",
    "write_csv",
]


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one simulation run.

    The problem instance comes from exactly one source: a built-in
    ``instance`` name (a ``str``) or a pair of TNTP file paths (each a
    ``str`` or ``os.PathLike``).
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
        require_instance(self.scheme, Scheme, "scheme")
        if not isinstance(self.capped, (bool, np.bool_)):
            raise ValidationError(
                f"capped must be a bool, got {self.capped!r}")
        object.__setattr__(self, "capped", bool(self.capped))
        object.__setattr__(self, "seed", require_int(self.seed, "seed", 0))
        object.__setattr__(self, "horizon",
                           require_int(self.horizon, "horizon", 1))
        object.__setattr__(self, "type_count",
                           require_int(self.type_count, "type count", 2))
        # the renewal that ``run`` builds checks epsilon against 1/K
        uniform_perturbation(self.type_count, self.epsilon)
        if self.instance is not None:
            require_instance(self.instance, str, "instance")
        for what in ("net_path", "trips_path"):
            path = getattr(self, what)
            if not isinstance(path, (str, os.PathLike, type(None))):
                raise ValidationError(
                    f"{what} must be a str or os.PathLike, got {path!r}")
        paths = self.net_path is not None or self.trips_path is not None
        if (self.instance is not None) == paths:
            raise ValidationError(
                "specify exactly one instance source: a built-in name "
                "or a pair of file paths")
        if paths and (self.net_path is None or self.trips_path is None):
            raise ValidationError("both net_path and trips_path are needed")


def _read_tntp(path: str | Path) -> str:
    """A TNTP file's text, read as UTF-8; undecodable bytes are a
    ``ParseError`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None


@functools.cache
def _instance_plan(instance: str, types: TypeSet) -> LoadPlan:
    """The built-in ``instance``'s plan for ``types``, built and checked
    once per process."""
    return LoadPlan(*load_instance(instance), types)


class Columns(Sequence):
    """A run's periods as equal-length columns, one row per period,
    read as a sequence of ``Row``s.

    Subclasses are frozen dataclasses whose fields are the columns.
    ``len``, iteration and int (also negative) indexes give ``Row``s; a
    slice gives the same type over views of the selected rows.  A run
    returns its result sealed, every column read-only; a deep copy is
    writable again.
    """

    def __len__(self) -> int:
        return len(self.t)

    def _columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def _column(self, name: str) -> np.ndarray:
        """The column ``name``; an ``AttributeError`` if there is none."""
        if name not in self.__dataclass_fields__:
            raise AttributeError(
                f"{type(self).__name__} has no column {name!r}")
        return getattr(self, name)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(column[index]
                                for column in self._columns()))
        return Row(self, range(len(self))[index])

    def __iter__(self):
        return map(Row, itertools.repeat(self), range(len(self)))

    def seal(self):
        """Make every column read-only; returns ``self``."""
        for column in self._columns():
            column.flags.writeable = False
        return self


class Row:
    """One period of a ``Columns`` result, with an attribute per column:
    a one-dimensional column's entry as a Python number, any other
    column's row as a view.  Setting an attribute writes that row, so a
    sealed result refuses it."""

    __slots__ = ("_of", "_at")

    def __init__(self, of: Columns, at: int):
        object.__setattr__(self, "_of", of)
        object.__setattr__(self, "_at", at)

    def __getattr__(self, name: str):
        if name.startswith("_"):    # no column is private
            raise AttributeError(name)
        column = self._of._column(name)
        value = column[self._at]
        return value.item() if column.ndim == 1 else value

    def __setattr__(self, name: str, value) -> None:
        self._of._column(name)[self._at] = value

    def __reduce__(self):
        return Row, (self._of, self._at)

    def __repr__(self) -> str:
        names = [f.name for f in fields(self._of) if f.repr]
        return "Row(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"


@dataclass(frozen=True, eq=False)
class RunResult(Columns):
    """A network run, one row per period: ``t`` ``(T,)``, flows and
    costs ``(T, E)``, social cost and total excess ``(T,)``, the type
    weights ``(T, K)`` and the signal ``(T, E, 2)``."""

    t: np.ndarray
    flows: np.ndarray
    costs: np.ndarray
    social_cost: np.ndarray
    total_excess: np.ndarray
    weights: np.ndarray
    signal: np.ndarray = field(repr=False)


def run(config: RunConfig) -> RunResult:
    """Simulate ``config.horizon`` periods; deterministic given the seed.

    Raises ``NoPathError`` before the first period when some
    origin-destination pair has no route.
    """
    types = uniform_type_set(config.type_count)
    if config.instance is None:
        plan = LoadPlan(parse_network(_read_tntp(config.net_path)),
                        parse_trips(_read_tntp(config.trips_path)), types)
    else:
        plan = copy.copy(_instance_plan(config.instance, types))
    net = plan.net
    renewal = uniform_perturbation(config.type_count, config.epsilon)
    history = CostHistory(net.edge_count, config.scheme)
    shares = sample_profile(renewal, derived_rng(config.seed, "population"),
                            config.horizon)

    horizon, edges = config.horizon, net.edge_count
    result = RunResult(
        t=np.arange(1, horizon + 1),
        flows=np.empty((horizon, edges)),
        costs=np.empty((horizon, edges)),
        social_cost=np.empty(horizon),
        total_excess=np.empty(horizon),
        weights=shares,
        signal=np.empty((horizon, edges, 2)),
    )
    for i, period_shares in enumerate(shares):
        signal = emit_signal(history)
        flows = assign(plan, signal, period_shares)
        costs = edge_costs(net, flows, capped=config.capped)
        history.record_period(costs)
        result.signal[i] = signal
        result.flows[i] = flows
        result.costs[i] = costs
        result.social_cost[i] = social_cost_network(flows, costs)
        result.total_excess[i] = total_excess(net, flows)
    return result.seal()


@dataclass(frozen=True)
class Summary:
    """Tail-window averages of a run."""

    window: int
    mean_cost: float
    mean_excess: float
    regret: float | None


def summarize(result: RunResult,
              reference_cost: float | None = None,
              window: int | None = None) -> Summary:
    """Average social cost and excess over the last ``window`` periods.

    The default window is the last 50 periods (or the whole run when
    shorter); a window that is not a whole number of periods between 1
    and the run's length is a ``ValidationError``.  Regret is the mean
    cost minus ``reference_cost`` and is omitted when no reference is
    given; a reference that ``require_real`` refuses, or a NaN or
    infinite one, is a ``ValidationError``, and so is a result that is
    no ``RunResult``.
    """
    require_instance(result, RunResult, "result")
    if reference_cost is not None:
        reference_cost = require_real(reference_cost, "reference cost")
        if not math.isfinite(reference_cost):
            raise ValidationError(
                f"reference cost must be finite, got {reference_cost}")
    if not len(result):
        raise ValidationError("cannot summarize an empty run")
    if window is None:
        window = min(50, len(result))
    if require_int(window, "window", 1) > len(result):
        raise ValidationError(
            f"window {window} must be in [1, {len(result)}]")
    mean_cost = float(np.mean(result.social_cost[-window:]))
    mean_excess = float(np.mean(result.total_excess[-window:]))
    regret = None if reference_cost is None else mean_cost - reference_cost
    return Summary(window, mean_cost, mean_excess, regret)


_FLOAT_FMT = "%.17g"


def table_csv(header: list[str], columns: list[np.ndarray]) -> str:
    """``header``, then one line per period of ``columns`` (arrays with
    one row per period, ``(T,)`` or ``(T, n)``, together as wide as the
    header) in 17 significant digits, so parsing the text back
    reproduces every value; whole numbers such as ``t`` print as ints."""
    table = np.column_stack(columns).astype(float, copy=False)
    line = ",".join([_FLOAT_FMT] * len(header))
    return "\n".join([",".join(header)]
                     + [line % tuple(row) for row in table.tolist()]) + "\n"


def signal_columns(signal: np.ndarray) -> np.ndarray:
    """A ``(T, n, 2)`` signal as ``(T, 2n)``: per period the lower
    endpoints, then the upper ones."""
    return signal.transpose(0, 2, 1).reshape(len(signal), -1)


def records_to_csv(result: RunResult) -> str:
    """One ``table_csv`` row per period: t, social cost, total excess,
    the type weights, then per edge the flows, costs and the signal's
    lower and upper endpoints."""
    require_instance(result, RunResult, "result")
    if not len(result):
        raise ValidationError("cannot serialize an empty run")
    k = result.weights.shape[1]
    e = result.flows.shape[1]
    header = (["t", "social_cost", "total_excess"]
              + [f"w_omega_{i}" for i in range(1, k + 1)]
              + [f"{block}_e{i}" for block in ("flow", "cost", "ulo", "uhi")
                 for i in range(1, e + 1)])
    return table_csv(header, [
        result.t, result.social_cost, result.total_excess, result.weights,
        result.flows, result.costs, signal_columns(result.signal)])


def write_csv(result: RunResult, path: str | Path) -> None:
    Path(path).write_text(records_to_csv(result))


def diamond_system_optimum() -> dict[str, float]:
    """Reference point for the diamond instance: its system optimum.

    Puts ``15(2-x)`` agents on the upper middle link 2-3 and ``15x`` on
    the lower middle link 2-4, and minimizes the diamond network's own
    uncapped social cost over ``x in [0, 2]``.  The objective is priced
    with ``edge_costs`` on the instance itself; with the middle links'
    parameters it reads ``30[(2-x)(1+(2-x)^2) + x(1+10x^6)]`` plus the
    nearly flat feeder links, convex in ``x`` as the golden-section
    search needs.  Returns the split together with the
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
