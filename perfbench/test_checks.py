"""Each output check passes on real output and fails on a corrupted copy;
the tracer and the pace correction do what their docstrings say.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from intervalsig import abstract_model, engine, instances  # noqa: E402
from intervalsig.engine import RunConfig, records_to_csv  # noqa: E402
from intervalsig.signaling import extreme_scheme  # noqa: E402

LINKS = checks.read_links(instances.diamond_net_text())
TRIPS = checks.read_trips(instances.diamond_trips_text())
UPPER, LOWER = 1, 2          # the diamond's two middle links, 2->3 and 2->4


def _diamond(horizon=40, window=5):
    return engine.run(RunConfig(scheme=extreme_scheme(window),
                                horizon=horizon, seed=3, instance="diamond"))


@pytest.fixture(scope="module")
def diamond():
    return _diamond()


def _network_failures(records):
    return checks.check_network_run(records, LINKS, TRIPS, "extreme", 5,
                                    capped=True, type_count=5, epsilon=0.15)


def _changed(records, i, **fields):
    out = copy.deepcopy(records)
    for name, value in fields.items():
        setattr(out[i], name, value)
    return out


def test_network_checks_pass_on_real_output(diamond):
    assert _network_failures(diamond) == []


def test_flow_moved_between_parallel_links_fails(diamond):
    flows = diamond[10].flows.copy()
    moved = 0.5 * flows[UPPER]
    flows[UPPER] -= moved
    flows[LOWER] += moved
    failures = _network_failures(_changed(diamond, 10, flows=flows))
    assert any("conservation" in f for f in failures)


def test_shifted_signal_endpoint_fails(diamond):
    signal = diamond[12].signal.copy()
    signal[UPPER, 1] += 0.25
    failures = _network_failures(_changed(diamond, 12, signal=signal))
    assert any("extreme signal" in f for f in failures)


def test_scaled_cost_fails(diamond):
    costs = diamond[7].costs.copy()
    costs[LOWER] *= 1.001
    assert any("BPR" in f for f in
               _network_failures(_changed(diamond, 7, costs=costs)))


def test_social_cost_and_excess_are_recomputed(diamond):
    rec = diamond[5]
    assert any("social" in f for f in _network_failures(
        _changed(diamond, 5, social_cost=rec.social_cost * 1.0001)))
    assert any("excess" in f for f in _network_failures(
        _changed(diamond, 5, total_excess=rec.total_excess + 1.0)))


def test_type_weights_out_of_band_fail(diamond):
    weights = np.array([0.5, 0.2, 0.1, 0.1, 0.1])
    assert any("1/K" in f for f in
               _network_failures(_changed(diamond, 3, weights=weights)))


def test_flow_on_a_route_no_type_prefers_fails(diamond):
    # Every type sees the lower route as strictly longer, yet a whole
    # route's worth of flow sits on it; conservation still holds.
    i = 20
    signal = diamond[i].signal.copy()
    signal[LOWER] = signal[UPPER] + 100.0
    flows = np.array([30.0, 29.0, 1.0, 29.0, 1.0])
    failures = _network_failures(_changed(diamond, i, signal=signal,
                                          flows=flows))
    assert any("tight for no" in f for f in failures)


def test_warm_up_signal_must_be_zero(diamond):
    signal = diamond[1].signal.copy()
    signal[0, 0] = 1e-9
    assert _network_failures(_changed(diamond, 1, signal=signal))


def test_csv_round_trip(diamond):
    text = records_to_csv(diamond)
    assert checks.check_csv_round_trip(text, diamond) == []
    rows = text.splitlines()
    cells = rows[8].split(",")
    cells[2] = repr(float(cells[2]) + 1e-9)
    rows[8] = ",".join(cells)
    assert checks.check_csv_round_trip("\n".join(rows) + "\n", diamond)


def test_summary_must_match_tail_means(diamond):
    tail = diamond[-10:]
    cost = float(np.mean([r.social_cost for r in tail]))
    excess = float(np.mean([r.total_excess for r in tail]))
    good = (f"scheme,r,mean_cost,mean_excess,regret\n"
            f"extreme,5,{cost!r},{excess!r},\n")
    assert checks.check_summary(good, [("extreme", 5, diamond)], 10) == []
    bad = good.replace(repr(cost), repr(cost * 1.001))
    assert checks.check_summary(bad, [("extreme", 5, diamond)], 10)


def test_tail_tolerance():
    assert checks.check_near("x", 100.05, 100.0, 1e-3) == []
    assert checks.check_near("x", 100.2, 100.0, 1e-3)


@pytest.fixture(scope="module")
def abstract():
    work = workloads.AbstractModel()
    work.actions, work.agents, work.window = 8, 50, 6
    work.prepare(4)
    records = abstract_model.run_abstract(work.config, 40)
    return work, records


def _abstract_failures(work, records):
    omegas = np.arange(work.type_count) / (work.type_count - 1)
    return checks.check_abstract_run(records, work.coeffs, work.initial,
                                     work.window, work.agents, omegas)


def test_abstract_checks_pass_on_real_output(abstract):
    assert _abstract_failures(*abstract) == []


def test_abstract_shifted_signal_endpoint_fails(abstract):
    work, records = abstract
    for i in (2, 30):    # before and after the window fills
        signal = records[i].signal.copy()
        signal[3, 0] -= 0.01
        assert any("envelope" in f for f in _abstract_failures(
            work, _changed(records, i, signal=signal)))


def test_abstract_scaled_cost_fails(abstract):
    work, records = abstract
    costs = records[9].costs.copy()
    costs[0] *= 1.001
    assert any("action costs" in f for f in _abstract_failures(
        work, _changed(records, 9, costs=costs)))


def test_abstract_mass_on_a_non_minimizer_fails(abstract):
    work, records = abstract
    i = 15
    counts = records[i].counts.copy()
    used = int(np.flatnonzero(counts)[0])
    weights = np.array([w * records[i].signal[:, 0]
                        + (1 - w) * records[i].signal[:, 1]
                        for w in np.linspace(0, 1, work.type_count)])
    spare = int(np.flatnonzero(
        ~(weights == weights.min(axis=1, keepdims=True)).any(axis=0))[0])
    counts[spare], counts[used] = counts[used], 0.0
    assert any("minimizes" in f for f in _abstract_failures(
        work, _changed(records, i, counts=counts)))


@pytest.fixture(scope="module")
def convergence():
    config, inits = abstract_model.convergence_demo_config(20, 2)
    return abstract_model.convergence_check(config, 200, 100, inits, seed=1)


def test_convergence_checks_pass_on_real_output(convergence):
    assert checks.check_convergence(convergence) == []


def test_distance_series_that_rises_once_fails(convergence):
    d = np.array(convergence.distance_series)
    d[3] = d[2] + 0.1
    report = dataclasses.replace(convergence, distance_series=d)
    assert any("rises" in f for f in checks.check_convergence(report))


def test_unequal_arms_and_wrong_ks_fail(convergence):
    sample_b = np.array(convergence.sample_b)
    sample_b[0] = 0.5
    report = dataclasses.replace(convergence, sample_b=sample_b)
    failures = checks.check_convergence(report)
    assert any("differ" in f for f in failures)
    assert any("off {0" in f for f in failures)
    assert any("KS" in f for f in failures)


def test_ks_statistic_matches_scipy():
    from scipy.stats import ks_2samp
    rng = np.random.default_rng(0)
    a, b = rng.choice([0, 0.2, 0.8, 1], 300), rng.choice([0, 0.2, 1], 200)
    assert checks.ks_statistic(a, b) == pytest.approx(
        ks_2samp(a, b).statistic, abs=1e-12)


def test_spans_self_time_and_missing_entry_points():
    tracer = spans.Tracer()
    entries = spans.ENTRY_POINTS + [("gone", "intervalsig.engine", "nope")]
    original = engine.assign
    with spans.wrapped(entries, tracer.wrap) as missing:
        assert engine.assign is not original
        _diamond(horizon=5)
    assert engine.assign is original
    assert missing == ["gone"]
    assert tracer.calls["engine.run"] == 1
    assert tracer.calls["assignment.assign"] == 5
    # One forward and one reverse search per type and period.
    assert tracer.calls["network.dijkstra"] == 50
    assert tracer.counters["network.dijkstra.reverse_calls"] == 25
    assert 0 < tracer.self_seconds["engine.run"] < tracer.seconds["engine.run"]


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = ({m for m, *_ in spans.PER_ROUND}
                | {"package.import_s", "instances.load_instance.s",
                   "trace.overhead_pct"})
    assert {m["name"] for m in spec["per_layer"]} == reported
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS)


def _busy(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_pace_scales_each_stretch_by_its_probe_times():
    stretches = [pace.Stretch(2.0, 0.2, 0.2), pace.Stretch(1.0, 0.1, 0.3)]
    assert pace.scaled(stretches, 0.1) == pytest.approx(2.0 / 2 + 1.0 / 2)


def test_pace_splits_rounds_at_marks_and_leaves_probes_out():
    paced = pace.Pace()
    paced.start_round()
    _busy(0.01)
    paced.enter_sim()
    _busy(0.02)
    paced.exit_sim()
    paced.end_round()
    outside, inside, after = paced.rounds[0]
    assert [s.in_sim for s in paced.rounds[0]] == [False, True, False]
    assert 0.02 <= inside.seconds < 0.02 + paced.probe_seconds
    assert paced.raw(0, sim_only=True) == inside.seconds
    assert 0 < paced.corrected(0) <= paced.raw(0)
    assert paced.probe_seconds > 0


def test_pace_ticking_marks_by_timer():
    paced = pace.Pace()
    paced.start_round()
    with paced.ticking():
        _busy(5 * pace.INTERVAL)
    paced.end_round()
    assert len(paced.rounds[0]) >= 4
