"""Benchmark of the intervalsig simulator: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ``src/``.
The run sets up the workload, then repeats one round of simulation calls
until ``--seconds`` would be exceeded (at least one round). Every round
does the same work from the same seed; its outputs are checked and must
hash to the same digest as the first round's, which is printed. The last
line is one JSON object. ``--trace 0`` reports the end-to-end metrics,
corrected for the machine's momentary speed (see pace.py), after a line
with their uncorrected values; ``--trace 1`` alternates untraced and
traced rounds and reports the per-layer metrics and the tracing
overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import pace as pacing
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 3
# The call every simulated period makes, where the pace may mark.
PER_PERIOD = ("period", "intervalsig.population", "sample_profile")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up the workload, print 'ready' and exit "
                             "(used to time set-up in a fresh process)")
    return parser.parse_args(argv)


def _import_package():
    """Import intervalsig from this checkout; returns the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    try:
        import intervalsig
    except ImportError as exc:
        sys.exit(f"cannot import intervalsig from {SRC}: {exc}")
    seconds = perf_counter() - start
    if SRC not in Path(intervalsig.__file__).resolve().parents:
        sys.exit(f"intervalsig was imported from {intervalsig.__file__}, "
                 f"not from {SRC}")
    return seconds


def _setup_seconds(args) -> list[tuple[float, dict]]:
    """Set-up time of fresh processes, from spawn until 'ready', each with
    the pace report the process prints after 'ready'."""
    samples = []
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as probe:
            line = probe.stdout.readline()
            seconds = perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=60)
        word, _, report = line.partition(" ")
        if word != "ready" or code != 0:
            sys.exit(f"set-up probe failed (exit {code}): {line!r}")
        samples.append((seconds, json.loads(report)))
    return samples


def _corrected_setup(seconds: float, report: dict, fastest: float) -> float:
    """A set-up probe's time without its pace probes, at full speed."""
    stretches = [pacing.Stretch(*s) for s in report["stretches"]]
    work = sum(s.seconds for s in stretches)
    return ((seconds - report["probe_s"])
            * pacing.scaled(stretches, fastest) / work)


@dataclass
class Round:
    """What one round measured and whether its calls passed."""

    traced: bool
    wall: float = 0.0
    periods: int = 0
    failed: int = 0
    digest: str = ""
    peak_rss_mib: float = 0.0


def _run_round(workload, traced, tracer, out_dir, pace) -> Round:
    outcome = Round(traced)
    sim = spans.SimCalls(pace)
    entries = spans.ENTRY_POINTS if traced else []
    periodic = [] if pace is None else [PER_PERIOD]
    error = None
    with spans.wrapped(entries, tracer.wrap) as missing, \
            spans.wrapped(periodic, lambda _n, fn: pace.wrap_period(fn)), \
            spans.wrapped([("sim",) + workload.entry], sim.wrap) as no_sim:
        if no_sim:
            sys.exit(f"simulation entry point {workload.entry} not found")
        if pace is not None:
            pace.start_round()
        start = perf_counter()
        try:
            workload.run_round(out_dir)
        except Exception:       # the call fails; the run goes on
            error = traceback.format_exc()
        outcome.wall = perf_counter() - start
        if pace is not None:
            pace.end_round()
    # Read before the checks run, so their memory is not counted.
    outcome.peak_rss_mib = (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0)
    for name in missing:
        print(f"trace: missing entry point {name}")
    results = sim.results
    outcome.periods = sum(workload.periods(r) for r in results)
    try:
        per_call = workload.check(results, out_dir)
        outcome.digest = hashlib.sha256(
            workload.digest(results, out_dir)).hexdigest()
    except Exception:           # a check that cannot run fails the round
        per_call = [[traceback.format_exc()]] * len(results)
    passed = sum(1 for failures in per_call if not failures)
    outcome.failed = workload.ops_per_round - min(passed,
                                                  workload.ops_per_round)
    for failures in per_call:
        for message in failures:
            print(f"check failed ({workload.name}): {message}",
                  file=sys.stderr)
    if error:
        print(f"{workload.name} round raised:\n{error}", file=sys.stderr)
    return outcome


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # A set-up probe paces itself; see pace.py.
    setup_pace = pacing.Pace() if args.setup_probe else None
    if setup_pace is not None:
        setup_pace.start_round()
    with (setup_pace.ticking() if setup_pace is not None
          else contextlib.nullcontext()):
        import_s = _import_package()
        import workloads        # imports numpy, so only after the pinning
        if args.workload not in workloads.WORKLOADS:
            sys.exit(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
        workload = workloads.WORKLOADS[args.workload]()
        workload.prepare(args.seed)
    if setup_pace is not None:
        setup_pace.end_round()
        print("ready", json.dumps({
            "stretches": [[s.seconds, s.before, s.after]
                          for s in setup_pace.rounds[0]],
            "probe_s": setup_pace.probe_seconds,
            "fastest": min(setup_pace.samples)}), flush=True)
        return 0

    setup = [] if args.trace else _setup_seconds(args)
    workload.references()
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    tracer = spans.Tracer()
    # Tracing has its own overhead to report, so only untraced runs pace.
    pace = None if args.trace else pacing.Pace()
    rounds: list[Round] = []
    start = perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        gc.collect()        # every round starts from a collected heap
        rounds.append(_run_round(workload, traced, tracer, out_dir, pace))
        done = len(rounds)
        projected = (perf_counter() - start) * (done + 1) / done
        need_traced = args.trace and done < 2
        if not need_traced and projected > args.seconds:
            break

    # Identical rounds must give identical outputs; a round that does not
    # fails all its calls.
    digest = rounds[0].digest
    for outcome in rounds[1:]:
        if outcome.digest != digest:
            print(f"round outputs differ from the first round's: "
                  f"{outcome.digest} != {digest}", file=sys.stderr)
            outcome.failed = workload.ops_per_round
    print(f"digest {args.workload} seed={args.seed} sha256={digest}")
    attempted = workload.ops_per_round * len(rounds)
    failed = sum(r.failed for r in rounds)

    plain = [r for r in rounds if not r.traced]
    if args.trace:
        wall = statistics.median(r.wall for r in plain)
        traced = [r for r in rounds if r.traced]
        traced_wall = statistics.median(r.wall for r in traced)
        metrics = {
            "package.import_s": (import_s, "s"),
            "instances.load_instance.s": (workload.load_instance_s, "s"),
            **spans.per_round(tracer, len(traced)),
            "trace.overhead_pct": (100.0 * (traced_wall - wall) / wall, "%"),
        }
    else:
        periods = rounds[0].periods
        indices = range(len(rounds))
        raw_wall = statistics.median(pace.raw(i) for i in indices)
        raw_sim = statistics.median(pace.raw(i, True) for i in indices)
        fastest = min(pace.samples + [r["fastest"] for _, r in setup])
        raw_setup = statistics.median(s for s, _ in setup)
        print(f"uncorrected setup_s={raw_setup:.6f} wall_s={raw_wall:.6f} "
              f"periods_per_s={periods / raw_sim:.6f}")
        metrics = {
            "setup_s": (statistics.median(_corrected_setup(s, r, fastest)
                                          for s, r in setup), "s"),
            "wall_s": (statistics.median(pace.corrected(i)
                                         for i in indices), "s"),
            "periods_per_s": (periods / statistics.median(
                pace.corrected(i, True) for i in indices), "1/s"),
            "peak_rss_mib": (rounds[0].peak_rss_mib, "MiB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
