#!/usr/bin/env python3
"""Dump pinned simulation outputs as raw bytes, one file per output.

    PYTHONPATH=src python3 scripts/dump_outputs.py OUT_DIR [--only NAME ...]

The outputs are those a change that must keep every trajectory is
compared on: the diamond ``run`` under all five schemes, the one under
``extreme`` r = 5 again from the ``gen-diamond`` files
(``diamond-files-extreme-r5``, the same bytes), a 500-period diamond
``run`` under ``now`` at seed 1 (a benchmark sweep cell), the diamond's
system optimum (split, uncapped cost, capped cost, excess), 50-period
Sioux Falls runs under ``extreme`` r = 20, ``now`` and ``mean``, a
150-period one under ``extreme`` r = 5, the ``sioux-falls`` benchmark's
run at seed 1 (``bench-sioux-falls``), ``run_abstract`` under all five
schemes (plus one config mixing every cost kind), ``flapping_demo`` at
J = 7 with N = 3 and 101 and at J = 0.5 with N = 29,
``convergence_check`` at M = 2, 3 and 8 (and at M = 3 over six periods,
which end with arm b still in the batch, and under
``uniform_perturbation(2, 0.2)``, ``convergence-m3-uniform``), and the
two calls of the ``abstract-model`` benchmark at seed 1
(``bench-abstract-extreme-r50``, ``bench-convergence-m2``).  Floats
are written as raw float64 bytes (``.bin``) and runs that have a CSV
form also as CSV: 48 files in all.

The package is imported from ``PYTHONPATH``, so dumping two checkouts
into two directories and running ``diff -r`` between them shows whether
their outputs are byte-identical; ``scripts/compare_outputs.py`` counts
the entries that differ and bounds them.  ``--only`` writes the named
outputs alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

from intervalsig import (
    AbstractConfig,
    FlappingSpec,
    RunConfig,
    convergence_check,
    convergence_demo_config,
    diamond_system_optimum,
    flapping_demo,
    run,
    run_abstract,
)
from intervalsig.abstract_model import records_to_abstract_csv
from intervalsig.costs import (
    flapping_cost_fn,
    linear_cost_fn,
    polynomial_cost_fn,
)
from intervalsig.engine import records_to_csv
from intervalsig.instances import diamond_net_text, diamond_trips_text
from intervalsig.population import uniform_perturbation, uniform_type_set
from intervalsig.signaling import (
    extreme_scheme,
    full_extreme_scheme,
    mean_scheme,
    now_scheme,
    subinterval_scheme,
)


def _raw(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype=np.float64).tobytes()
                    for a in arrays)


def _periods(*columns) -> bytes:
    """One row per period: that period's entries of each column in turn."""
    return _raw(np.column_stack([np.reshape(c, (len(c), -1))
                                 for c in columns]))


def _schemes(window: int) -> list:
    return [now_scheme(), mean_scheme(), extreme_scheme(window),
            full_extreme_scheme(), subinterval_scheme(window, 0.5)]


def _network_run(out: Path, stem: str, config: RunConfig) -> None:
    records = run(config)
    (out / f"{stem}.csv").write_text(records_to_csv(records))
    (out / f"{stem}.bin").write_bytes(_periods(
        records.t, records.social_cost, records.total_excess,
        records.weights, records.flows, records.costs, records.signal))


def _diamond_files_run(out: Path, stem: str, config: RunConfig) -> None:
    """``config`` run from the texts ``gen-diamond`` writes, as files, in
    place of its built-in instance."""
    with tempfile.TemporaryDirectory() as tmp:
        net_path, trips_path = Path(tmp, "net.txt"), Path(tmp, "trips.txt")
        net_path.write_text(diamond_net_text())
        trips_path.write_text(diamond_trips_text())
        _network_run(out, stem, dataclasses.replace(
            config, instance=None, net_path=net_path,
            trips_path=trips_path))


def _system_optimum(out: Path) -> None:
    point = diamond_system_optimum()
    (out / "diamond-system-optimum.bin").write_bytes(_raw(
        [point[key] for key in ("split", "uncapped_cost", "capped_cost",
                                "excess")]))


def _abstract_records(records) -> bytes:
    return _periods(records.t, records.social_cost, records.counts,
                    records.costs, records.signal)


# run_abstract: 30 actions, 500 agents, five types, 120 periods.
ACTIONS, AGENTS, PERIODS, WINDOW = 30, 500, 120, 7


def _quadratic_costs():
    rng = np.random.default_rng(0)
    coeffs = np.column_stack([
        rng.uniform(1.0, 2.0, ACTIONS),
        rng.uniform(0.5, 1.5, ACTIONS) / AGENTS,
        rng.uniform(0.0, 1.0, ACTIONS) / AGENTS ** 2])
    return [polynomial_cost_fn(c) for c in coeffs]


def _mixed_costs():
    """Every kind, polynomial degrees 0 to 3, interleaved."""
    rng = np.random.default_rng(1)
    fns = []
    for m in range(ACTIONS):
        if m % 6 == 4:
            fns.append(linear_cost_fn(AGENTS, offset=rng.uniform(0.0, 1.0)))
        elif m % 6 == 5:
            fns.append(flapping_cost_fn(rng.uniform(1.0, 5.0), AGENTS + 1))
        else:
            degree = m % 4
            coeffs = (rng.uniform(0.0, 1.0, degree + 1)
                      / AGENTS ** np.arange(degree + 1))
            coeffs[0] += 1.0
            fns.append(polynomial_cost_fn(coeffs))
    return fns


def _abstract_run(out: Path, stem: str, costs, scheme) -> None:
    idle = np.array([fn(0.0) for fn in costs])
    full = np.array([fn(float(AGENTS)) for fn in costs])
    initial = np.column_stack([np.minimum(idle, full),
                               np.maximum(idle, full)])
    config = AbstractConfig(
        agent_count=AGENTS, action_count=ACTIONS, costs=costs, scheme=scheme,
        renewal=uniform_perturbation(5, 0.15), initial_signal=initial,
        seed=0, types=uniform_type_set(5))
    records = run_abstract(config, PERIODS)
    (out / f"{stem}.csv").write_text(records_to_abstract_csv(records))
    (out / f"{stem}.bin").write_bytes(_abstract_records(records))


def _flapping(out: Path, stem: str, j: float, n: int) -> None:
    report = flapping_demo(FlappingSpec(gap_target=j, agent_count=n),
                           horizon=40, seed=0)
    (out / f"{stem}.bin").write_bytes(
        _abstract_records(report.scalar_records)
        + _abstract_records(report.interval_records)
        + _raw(report.scalar_records.social_cost,
               report.interval_records.social_cost,
               [report.gap, report.gap_lower_bound]))


def _convergence(out: Path, stem: str, m: int, trajectories: int,
                 horizon: int, seed: int, renewal=None) -> None:
    """``renewal`` replaces the demo config's."""
    config, initials = convergence_demo_config(agent_count=20,
                                               action_count=m)
    if renewal is not None:
        config = dataclasses.replace(config, renewal=renewal)
    report = convergence_check(config, trajectories=trajectories,
                               horizon=horizon, initial_signals=initials,
                               seed=seed)
    (out / f"{stem}.bin").write_bytes(
        _raw(report.distance_series, report.sample_a, report.sample_b,
             [report.ks_statistic, report.ks_pvalue]))


# The abstract-model benchmark's run_abstract call at seed 1: 200
# actions, 1000 agents, five types, extreme r = 50, 300 periods.
BENCH_ACTIONS, BENCH_AGENTS, BENCH_SEED = 200, 1000, 1


def _bench_abstract(out: Path, stem: str) -> None:
    n = BENCH_AGENTS
    rng = np.random.default_rng(BENCH_SEED)
    coeffs = np.column_stack([
        rng.uniform(1.0, 2.0, BENCH_ACTIONS),
        rng.uniform(0.5, 1.5, BENCH_ACTIONS) / n,
        rng.uniform(0.0, 1.0, BENCH_ACTIONS) / n ** 2])
    # each action's cost idle and under the whole population, summed
    # term by term as the benchmark sums them
    full = (coeffs * np.full(BENCH_ACTIONS, n)[:, None]
            ** np.arange(3)).sum(axis=-1)
    config = AbstractConfig(
        agent_count=n, action_count=BENCH_ACTIONS,
        costs=[polynomial_cost_fn(c) for c in coeffs],
        scheme=extreme_scheme(50), renewal=uniform_perturbation(5, 0.15),
        initial_signal=np.column_stack([coeffs[:, 0], full]),
        seed=BENCH_SEED, types=uniform_type_set(5))
    records = run_abstract(config, 300)
    (out / f"{stem}.csv").write_text(records_to_abstract_csv(records))
    (out / f"{stem}.bin").write_bytes(_abstract_records(records))


def _outputs() -> dict:
    outputs = {}
    for scheme in _schemes(5):
        outputs[f"diamond-{scheme.label()}"] = (
            lambda out, s=scheme: _network_run(
                out, f"diamond-{s.label()}",
                RunConfig(scheme=s, horizon=300, seed=0,
                          instance="diamond")))
    # The same run from the files gen-diamond writes: a file-path plan.
    outputs["diamond-files-extreme-r5"] = lambda out: _diamond_files_run(
        out, "diamond-files-extreme-r5",
        RunConfig(scheme=extreme_scheme(5), horizon=300, seed=0,
                  instance="diamond"))
    # Under now the diamond's signal keeps returning to a few earlier
    # values, so almost every row's DAG comes from the plan's cache.
    outputs["diamond-now-seed1"] = lambda out: _network_run(
        out, "diamond-now-seed1",
        RunConfig(scheme=now_scheme(), horizon=500, seed=1,
                  instance="diamond"))
    outputs["diamond-system-optimum"] = _system_optimum
    # Under extreme r = 20 the signal often equals the previous period's,
    # so the loader reuses that period's DAGs; under now it returns to
    # earlier signals but never to the previous one, and under mean it
    # never repeats.
    for scheme in (extreme_scheme(20), now_scheme(), mean_scheme()):
        stem = f"sioux-falls-{scheme.label()}"
        outputs[stem] = lambda out, s=scheme, stem=stem: _network_run(
            out, stem, RunConfig(scheme=s, horizon=50, seed=0,
                                 instance="sioux-falls"))
    # Under extreme r = 5 most new signals relax the distances from the
    # last period's route sums rather than taking them as they are.
    outputs["sioux-falls-extreme-r5"] = lambda out: _network_run(
        out, "sioux-falls-extreme-r5",
        RunConfig(scheme=extreme_scheme(5), horizon=150, seed=0,
                  instance="sioux-falls"))
    outputs["bench-sioux-falls"] = lambda out: _network_run(
        out, "bench-sioux-falls",
        RunConfig(scheme=extreme_scheme(20), horizon=50, seed=1,
                  instance="sioux-falls"))
    for scheme in _schemes(WINDOW):
        outputs[f"abstract-{scheme.label()}"] = (
            lambda out, s=scheme: _abstract_run(
                out, f"abstract-{s.label()}", _quadratic_costs(), s))
    # Wide rows that tie in 57 of 120 periods, so the tie-pick counts
    # ties there; convergence-m8's tall rows tie in 33 of 120.
    outputs["abstract-mixed-extreme-r7"] = lambda out: _abstract_run(
        out, "abstract-mixed-extreme-r7", _mixed_costs(),
        extreme_scheme(WINDOW))
    # J = 0.5, N = 29: numpy's array power would differ from C's pow,
    # which the flapping kind takes, in the last bit of this interval-arm
    # cost on CPUs with AVX-512.
    for j, n in ((7.0, 3), (7.0, 101), (0.5, 29)):
        stem = f"flapping-j{j:g}-n{n}"
        outputs[stem] = lambda out, s=stem, j=j, n=n: _flapping(out, s, j, n)
    for m in (2, 3, 8):
        stem = f"convergence-m{m}"
        outputs[stem] = lambda out, s=stem, m=m: _convergence(
            out, s, m, trajectories=300, horizon=120, seed=0)
    # Six periods at M = 3: some pairs have coalesced and others not, so
    # arm b is still in the batch at the horizon.
    outputs["convergence-m3-h6"] = lambda out: _convergence(
        out, "convergence-m3-h6", 3, trajectories=300, horizon=6, seed=0)
    # A continuous renewal law: every pair coalesces within the horizon.
    outputs["convergence-m3-uniform"] = lambda out: _convergence(
        out, "convergence-m3-uniform", 3, trajectories=300, horizon=120,
        seed=0, renewal=uniform_perturbation(2, 0.2))
    outputs["bench-abstract-extreme-r50"] = lambda out: _bench_abstract(
        out, "bench-abstract-extreme-r50")
    outputs["bench-convergence-m2"] = lambda out: _convergence(
        out, "bench-convergence-m2", 2, trajectories=5000, horizon=100,
        seed=BENCH_SEED)
    return outputs


OUTPUTS = _outputs()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--only", nargs="+", metavar="NAME")
    args = parser.parse_args(argv)
    names = args.only or list(OUTPUTS)
    unknown = [name for name in names if name not in OUTPUTS]
    if unknown:
        parser.error(f"unknown outputs {unknown}; "
                     f"choose from {list(OUTPUTS)}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        OUTPUTS[name](out)
    print(f"wrote {len(names)} outputs to {args.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
