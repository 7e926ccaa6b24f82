"""The benchmark's three workloads.

Each workload has a set-up (``prepare``, timed as ``setup_s``), a round
of simulation calls (``run_round``; every call is one operation), and
checks on every call's output. Every round repeats the same calls with
the benchmark seed as the simulation seed, so rounds do identical work
and must produce identical outputs. Simulation calls go through module
attributes, where the benchmark's timers and spans are installed.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path
from time import perf_counter

import numpy as np

import checks

# The capped user-equilibrium cost of Sioux Falls, printed by
# scripts/sioux_falls_reference.py (Frank-Wolfe, relative gap <= 1e-7).
SIOUX_EQUILIBRIUM_COST = 3560514.823
SIOUX_TOLERANCE = 1e-3


def _array_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=float).tobytes()
                    for a in arrays)


def _network_digest(records) -> bytes:
    return b"".join(_array_bytes([r.t, r.social_cost, r.total_excess],
                                 r.weights, r.flows, r.costs, r.signal)
                    for r in records)


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name: str
    entry: tuple[str, str]      # module and attribute of the simulation call
    ops_per_round: int = 1
    load_instance_s = 0.0

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def references(self) -> None:
        """Read what the checks need, apart from the code under test."""

    def run_round(self, out_dir: Path) -> None:
        raise NotImplementedError

    def periods(self, result) -> int:
        return len(result)

    def check(self, results, out_dir: Path) -> list[list[str]]:
        """Failure messages per simulation call, in call order."""
        raise NotImplementedError

    def digest(self, results, out_dir: Path) -> bytes:
        raise NotImplementedError


class SiouxFalls(Workload):
    """One ``engine.run`` of Sioux Falls under ``extreme`` r = 20."""

    name = "sioux-falls"
    entry = ("intervalsig.engine", "run")
    horizon = 50
    window = 20
    settled = 30          # periods after which the cost is checked

    def prepare(self, seed):
        import intervalsig
        from intervalsig import RunConfig, extreme_scheme
        start = perf_counter()
        net, demand = intervalsig.load_instance("sioux-falls")
        self.load_instance_s = perf_counter() - start
        self.sizes = (net.edge_count, len(demand.entries))
        self.config = RunConfig(scheme=extreme_scheme(self.window),
                                horizon=self.horizon, seed=seed,
                                instance="sioux-falls")

    def references(self):
        from intervalsig import instances
        self.links = checks.read_links(instances.sioux_falls_net_text())
        self.trips = checks.read_trips(instances.sioux_falls_trips_text())
        expected = (len(self.links.src), len(self.trips.flow))
        if self.sizes != expected:
            raise RuntimeError(f"load_instance gives {self.sizes} links and "
                               f"OD pairs, the TNTP text {expected}")

    def run_round(self, out_dir):
        from intervalsig import engine
        engine.run(self.config)

    def check(self, results, out_dir):
        out = []
        for records in results:
            failures = checks.check_network_run(
                records, self.links, self.trips, "extreme", self.window,
                capped=True, type_count=5, epsilon=0.15)
            if len(records) != self.horizon:
                failures.append(f"{len(records)} periods, expected "
                                f"{self.horizon}")
            failures += checks.check_near(
                f"mean cost after period {self.settled}",
                checks.tail_mean(records, self.settled),
                SIOUX_EQUILIBRIUM_COST, SIOUX_TOLERANCE)
            out.append(failures)
        return out

    def digest(self, results, out_dir):
        return b"".join(_network_digest(records) for records in results)


class DiamondSweep(Workload):
    """The CLI ``sweep`` on the diamond, called in-process."""

    name = "diamond-sweep"
    entry = ("intervalsig.engine", "run")
    horizon = 500
    tail = 50
    # The sweep's cells in order: (kind, window, CSV file).
    cells = [("now", None, "now.csv"), ("mean", None, "mean.csv"),
             ("extreme", 5, "extreme-r5.csv"),
             ("extreme", 10, "extreme-r10.csv"),
             ("extreme", 20, "extreme-r20.csv")]
    ops_per_round = len(cells)

    def prepare(self, seed):
        import intervalsig
        import intervalsig.cli  # noqa: F401  (the workload's entry point)
        self.seed = seed
        start = perf_counter()
        intervalsig.load_instance("diamond")
        self.load_instance_s = perf_counter() - start

    def references(self):
        from intervalsig import instances
        self.links = checks.read_links(instances.diamond_net_text())
        self.trips = checks.read_trips(instances.diamond_trips_text())

    def run_round(self, out_dir):
        from intervalsig import cli
        argv = ["sweep", "--instance", "diamond",
                "--horizon", str(self.horizon), "--seed", str(self.seed),
                "--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"intervalsig {' '.join(argv)} exited {code}")

    def check(self, results, out_dir):
        out = []
        for (kind, window, name), records in zip(self.cells, results):
            failures = checks.check_network_run(
                records, self.links, self.trips, kind, window,
                capped=True, type_count=5, epsilon=0.15)
            if len(records) != self.horizon:
                failures.append(f"{len(records)} periods, expected "
                                f"{self.horizon}")
            failures += checks.check_csv_round_trip(
                (out_dir / name).read_text(), records)
            out.append([f"{name}: {f}" for f in failures])
        if len(results) == len(self.cells):
            # Round-level checks fail every call of the round.
            runs = [(kind, window, records) for (kind, window, _), records
                    in zip(self.cells, results)]
            shared = checks.check_summary(
                (out_dir / "summary.csv").read_text(), runs, self.tail)
            now = checks.tail_mean(results[0], -self.tail)
            extreme = checks.tail_mean(results[-1], -self.tail)
            if not now > extreme:
                shared.append(f"now tail mean {now!r} does not exceed "
                              f"extreme r=20 tail mean {extreme!r}")
            out = [failures + shared for failures in out]
        return out

    def digest(self, results, out_dir):
        return b"".join((out_dir / name).read_bytes() for name in
                        [cell[2] for cell in self.cells] + ["summary.csv"])


class AbstractModel(Workload):
    """``run_abstract`` with many actions under a long ``extreme`` window,
    then ``convergence_check`` on the two-action demo.

    Only ``run_abstract`` is the timed simulation call, so
    ``periods_per_s`` reads its periods; ``convergence_check`` counts in
    ``wall_s``.
    """

    name = "abstract-model"
    entry = ("intervalsig.abstract_model", "run_abstract")
    ops_per_round = 2
    actions = 200
    agents = 1000
    window = 50
    horizon = 300
    type_count = 5
    epsilon = 0.15
    trajectories = 5000
    trajectory_horizon = 100

    def prepare(self, seed):
        from intervalsig import (AbstractConfig, convergence_demo_config,
                                 extreme_scheme)
        from intervalsig.costs import polynomial_cost_fn
        from intervalsig.population import (uniform_perturbation,
                                            uniform_type_set)
        # Cost a + b n + c n^2 per action, from cost a when idle to a few
        # times that under the whole population.
        rng = np.random.default_rng(seed)
        n = self.agents
        self.seed = seed
        self.coeffs = np.column_stack([
            rng.uniform(1.0, 2.0, self.actions),
            rng.uniform(0.5, 1.5, self.actions) / n,
            rng.uniform(0.0, 1.0, self.actions) / n ** 2])
        self.initial = np.column_stack([
            self.coeffs[:, 0], checks.polynomial(self.coeffs,
                                                 np.full(self.actions, n))])
        self.config = AbstractConfig(
            agent_count=n,
            action_count=self.actions,
            costs=[polynomial_cost_fn(c) for c in self.coeffs],
            scheme=extreme_scheme(self.window),
            renewal=uniform_perturbation(self.type_count, self.epsilon),
            initial_signal=self.initial,
            seed=seed,
            types=uniform_type_set(self.type_count))
        self.demo, self.demo_initial = convergence_demo_config(
            agent_count=20, action_count=2)
        self.report = None

    def run_round(self, out_dir):
        from intervalsig import abstract_model
        self.report = None
        abstract_model.run_abstract(self.config, self.horizon)
        self.report = abstract_model.convergence_check(
            self.demo, trajectories=self.trajectories,
            horizon=self.trajectory_horizon,
            initial_signals=self.demo_initial, seed=self.seed)

    def check(self, results, out_dir):
        omegas = np.arange(self.type_count) / (self.type_count - 1)
        out = []
        for records in results:
            failures = checks.check_abstract_run(
                records, self.coeffs, self.initial, self.window,
                self.agents, omegas)
            if len(records) != self.horizon:
                failures.append(f"{len(records)} periods, expected "
                                f"{self.horizon}")
            out.append(failures)
        if self.report is not None:
            failures = checks.check_convergence(self.report)
            periods = ((len(self.report.distance_series) - 1)
                       * len(self.report.sample_a))
            if periods != self.trajectories * self.trajectory_horizon:
                failures.append("wrong number of trajectory-periods")
            out.append(failures)
        return out

    def digest(self, results, out_dir):
        r = self.report
        return b"".join(
            [_array_bytes([a.t, a.social_cost], a.counts, a.costs, a.signal)
             for records in results for a in records]
            + [_array_bytes(r.distance_series, r.sample_a, r.sample_b,
                            [r.ks_statistic, r.ks_pvalue])])


WORKLOADS = {w.name: w for w in (SiouxFalls, DiamondSweep, AbstractModel)}
