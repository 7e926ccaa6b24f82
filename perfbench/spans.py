"""Wrap the package's entry points by name, from outside the package.

A wrapper replaces every binding of the wrapped function in the loaded
``intervalsig`` modules, so calls are caught where the engine, the CLI
and the abstract model look the function up. Methods are wrapped on
their class. An entry point that does not exist is reported as missing
and left alone.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "intervalsig"

# (span name, home module, attribute or Class.method)
ENTRY_POINTS = [
    ("network.dijkstra", "intervalsig.network", "dijkstra"),
    ("network.tight_split", "intervalsig.network", "_tight_split"),
    ("assignment.assign", "intervalsig.assignment", "assign"),
    ("population.sample_profile", "intervalsig.population",
     "sample_profile"),
    ("costs.edge_costs", "intervalsig.costs", "edge_costs"),
    ("costs.total_excess", "intervalsig.costs", "total_excess"),
    ("costs.social_cost_network", "intervalsig.costs",
     "social_cost_network"),
    ("costs.abstract_cost", "intervalsig.costs", "AbstractCostFn.__call__"),
    ("engine.run", "intervalsig.engine", "run"),
    ("engine.records_to_csv", "intervalsig.engine", "records_to_csv"),
    ("engine.write_csv", "intervalsig.engine", "write_csv"),
    ("signaling.emit_signal", "intervalsig.signaling", "emit_signal"),
    ("signaling.record_period", "intervalsig.signaling",
     "CostHistory.record_period"),
    ("signaling.window_extremes", "intervalsig.signaling",
     "CostHistory.window_extremes"),
    ("abstract_model.step_abstract", "intervalsig.abstract_model",
     "step_abstract"),
    ("abstract_model.convergence_check", "intervalsig.abstract_model",
     "convergence_check"),
    ("abstract_model.ks_2samp", "intervalsig.abstract_model", "ks_2samp"),
]


def _rebind(module_name: str, attr: str, make_wrapper):
    """Replace ``module.attr`` (or ``module.Class.method``) everywhere the
    package binds it. Returns an undo list, or None if it does not exist.
    """
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is None or method not in vars(cls):
            return None
        original = vars(cls)[method]
        setattr(cls, method, make_wrapper(original))
        return [(cls, method, original)]
    original = getattr(module, attr, None)
    if original is None:
        return None
    wrapper = make_wrapper(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
                undo.append((mod, key, original))
    return undo


def _restore(undo) -> None:
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


@contextmanager
def wrapped(entries, make_wrapper):
    """Install ``make_wrapper(name, fn)`` on each (name, module, attr).

    Yields the names of the entry points that were not found.
    """
    # A module imported while a wrapper is installed would keep it bound
    # after the wrapper is removed, so every module is imported first.
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    undo, missing = [], []
    try:
        for name, module_name, attr in entries:
            done = _rebind(module_name, attr,
                           lambda fn, name=name: make_wrapper(name, fn))
            if done is None:
                missing.append(name)
            else:
                undo.extend(done)
        yield missing
    finally:
        _restore(undo)


class SimCalls:
    """Keeps the results of a workload's simulation calls and, with a
    ``pace`` (see pace.py), marks each call at entry and exit."""

    def __init__(self, pace=None):
        self.results: list = []
        self.pace = pace

    def wrap(self, _name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self.pace is not None:
                self.pace.enter_sim()
            try:
                result = fn(*args, **kwargs)
            finally:
                if self.pace is not None:
                    self.pace.exit_sim()
            self.results.append(result)
            return result
        return timed


class Tracer:
    """Spans at the entry points: call count, inclusive and self time.

    Self time is a span's duration minus the time its child spans cover.
    """

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.self_seconds: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self._children: list[float] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn):
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                children = self._children.pop()
                if self._children:
                    self._children[-1] += duration
                self.calls[name] = self.calls.get(name, 0) + 1
                self.seconds[name] = self.seconds.get(name, 0.0) + duration
                self.self_seconds[name] = (self.self_seconds.get(name, 0.0)
                                           + duration - children)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return span


def _after_dijkstra(tracer, args, kwargs, _result):
    reverse = kwargs.get("reverse", args[3] if len(args) > 3 else False)
    if reverse:
        tracer.count("network.dijkstra.reverse_calls")


def _after_records_to_csv(tracer, _args, _kwargs, result):
    # The CSV is ASCII, so characters are bytes.
    tracer.count("engine.csv_bytes", len(result))


_AFTER = {
    "network.dijkstra": _after_dijkstra,
    "engine.records_to_csv": _after_records_to_csv,
}


# Per-layer metrics a traced run reports, per traced round:
# (metric, unit, what is read, span or counter name).
PER_ROUND = [
    ("network.dijkstra.calls", "count", "calls", "network.dijkstra"),
    ("network.dijkstra.reverse_calls", "count", "counter",
     "network.dijkstra.reverse_calls"),
    ("network.dijkstra.s", "s", "seconds", "network.dijkstra"),
    ("network.tight_split.calls", "count", "calls", "network.tight_split"),
    ("network.tight_split.s", "s", "seconds", "network.tight_split"),
    ("assignment.assign.calls", "count", "calls", "assignment.assign"),
    ("assignment.assign.self_s", "s", "self_seconds", "assignment.assign"),
    ("population.sample_profile.s", "s", "seconds",
     "population.sample_profile"),
    ("costs.edge_costs.s", "s", "seconds", "costs.edge_costs"),
    ("costs.total_excess.s", "s", "seconds", "costs.total_excess"),
    ("costs.social_cost_network.s", "s", "seconds",
     "costs.social_cost_network"),
    ("engine.run.self_s", "s", "self_seconds", "engine.run"),
    ("engine.records_to_csv.s", "s", "seconds", "engine.records_to_csv"),
    ("engine.write_csv.s", "s", "seconds", "engine.write_csv"),
    ("engine.csv_bytes", "bytes", "counter", "engine.csv_bytes"),
    ("signaling.emit_signal.s", "s", "seconds", "signaling.emit_signal"),
    ("signaling.record_period.s", "s", "seconds",
     "signaling.record_period"),
    ("signaling.window_extremes.calls", "count", "calls",
     "signaling.window_extremes"),
    ("signaling.window_extremes.s", "s", "seconds",
     "signaling.window_extremes"),
    ("costs.abstract_cost.calls", "count", "calls", "costs.abstract_cost"),
    ("costs.abstract_cost.s", "s", "seconds", "costs.abstract_cost"),
    ("abstract_model.step_abstract.calls", "count", "calls",
     "abstract_model.step_abstract"),
    ("abstract_model.step_abstract.self_s", "s", "self_seconds",
     "abstract_model.step_abstract"),
    ("abstract_model.convergence_check.self_s", "s", "self_seconds",
     "abstract_model.convergence_check"),
    ("abstract_model.ks_2samp.s", "s", "seconds", "abstract_model.ks_2samp"),
]


def per_round(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Each PER_ROUND metric as (mean per traced round, unit)."""
    sources = {"calls": tracer.calls, "seconds": tracer.seconds,
               "self_seconds": tracer.self_seconds,
               "counter": tracer.counters}
    return {metric: (sources[kind].get(key, 0) / rounds, unit)
            for metric, unit, kind, key in PER_ROUND}
