"""Period loop: signal -> flows -> costs -> history, plus summaries,
CSV emission, and the diamond closed-form reference point."""

import copy
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import intervalsig
from intervalsig import assignment, engine
from intervalsig.abstract_model import convergence_demo_config, run_abstract
from intervalsig.cli import main
from intervalsig.costs import edge_costs
from intervalsig.engine import (
    RunConfig,
    RunResult,
    ValidationError,
    diamond_system_optimum,
    records_to_csv,
    run,
    summarize,
    write_csv,
)
from intervalsig.instances import (
    diamond_net_text,
    diamond_trips_text,
    load_instance,
    sioux_falls_net_text,
    sioux_falls_trips_text,
)
from intervalsig.network import NoPathError, parse_network
from intervalsig.population import uniform_type_set
from intervalsig.signaling import (
    Scheme,
    extreme_scheme,
    full_extreme_scheme,
    mean_scheme,
    now_scheme,
    subinterval_scheme,
)


def diamond_config(**overrides):
    base = dict(scheme=now_scheme(), horizon=4, seed=0, capped=True,
                instance="diamond")
    base.update(overrides)
    return RunConfig(**base)


class TestRunBasics:
    def test_single_period_uses_warm_up_signal(self):
        records = run(diamond_config(horizon=1))
        assert len(records) == 1
        rec = records[0]
        assert rec.t == 1
        assert np.array_equal(rec.signal, np.zeros((5, 2)))
        assert rec.flows == pytest.approx([30.0, 15.0, 15.0, 15.0, 15.0])
        net = parse_network(diamond_net_text())
        assert rec.costs == pytest.approx(
            edge_costs(net, rec.flows, capped=True))
        assert rec.social_cost == pytest.approx(rec.flows @ rec.costs)
        assert rec.total_excess == pytest.approx(0.0)
        assert rec.weights.sum() == pytest.approx(1.0)
        assert len(rec.weights) == 5

    def test_point_signal_flip_flops_on_diamond(self):
        records = run(diamond_config(horizon=8))
        middle = [(rec.flows[1], rec.flows[2]) for rec in records]
        # warm-up splits equally, then the whole population chases last
        # period's cheaper middle link
        assert middle[0] == pytest.approx((15.0, 15.0))
        assert middle[1] == pytest.approx((30.0, 0.0))
        for t in range(2, 8):
            assert middle[t] == pytest.approx(
                (0.0, 30.0) if t % 2 == 0 else (30.0, 0.0))

    def test_degenerate_jitter_gives_flat_weights(self):
        records = run(diamond_config(horizon=2, epsilon=0.0))
        for rec in records:
            assert rec.weights == pytest.approx([0.2] * 5)

    def test_run_is_deterministic(self):
        a = run(diamond_config(horizon=12, seed=7,
                               scheme=extreme_scheme(3)))
        b = run(diamond_config(horizon=12, seed=7,
                               scheme=extreme_scheme(3)))
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.flows, rb.flows)
            assert np.array_equal(ra.costs, rb.costs)
            assert np.array_equal(ra.weights, rb.weights)
            assert np.array_equal(ra.signal, rb.signal)
            assert ra.social_cost == rb.social_cost

    def test_seed_changes_weights(self):
        a = run(diamond_config(horizon=5, seed=1))
        b = run(diamond_config(horizon=5, seed=2))
        assert not all(np.array_equal(ra.weights, rb.weights)
                       for ra, rb in zip(a, b))

    def test_capped_costs_stay_in_band(self):
        records = run(diamond_config(horizon=20, scheme=extreme_scheme(5)))
        net = parse_network(diamond_net_text())
        lo = np.array([e.free_flow for e in net.edges])
        hi = np.array([e.free_flow * (1 + e.b_coeff) for e in net.edges])
        for rec in records:
            assert np.all(rec.costs >= lo - 1e-12)
            assert np.all(rec.costs <= hi + 1e-12)

    def test_signal_reflects_only_past_costs(self):
        records = run(diamond_config(horizon=10, scheme=extreme_scheme(2)))
        for t in range(2, 10):   # full two-period history from t=2 on
            prev = np.stack([records[t - 1].costs, records[t - 2].costs])
            assert records[t].signal[:, 0] == pytest.approx(prev.min(axis=0))
            assert records[t].signal[:, 1] == pytest.approx(prev.max(axis=0))

    def test_point_signal_equals_previous_costs(self):
        records = run(diamond_config(horizon=6))
        for t in range(1, 6):
            assert records[t].signal[:, 0] == pytest.approx(
                records[t - 1].costs)
            assert records[t].signal[:, 1] == pytest.approx(
                records[t - 1].costs)

    def test_running_mean_signal_is_point(self):
        records = run(diamond_config(horizon=5, scheme=mean_scheme()))
        for rec in records[1:]:
            assert rec.signal[:, 0] == pytest.approx(rec.signal[:, 1])

    def test_builtin_instance_by_name(self):
        records = run(RunConfig(scheme=now_scheme(), horizon=1, seed=0,
                                capped=True, instance="diamond"))
        assert len(records[0].flows) == 5

    def test_sioux_falls_single_period(self):
        records = run(RunConfig(scheme=now_scheme(), horizon=1, seed=0,
                                capped=True, instance="sioux-falls"))
        rec = records[0]
        assert len(rec.flows) == 76
        assert rec.total_excess >= 0.0
        assert rec.social_cost > 0.0


    def test_social_cost_is_fsum_of_flows_times_costs(self):
        # the correctly rounded sum, not BLAS's dot product, whose last
        # bit depends on the kernel the CPU picks
        records = run(diamond_config(horizon=40, scheme=extreme_scheme(5)))
        for rec in records:
            assert rec.social_cost == math.fsum(rec.flows * rec.costs)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            run(diamond_config(horizon=2, seed=1.7))

    def test_unreachable_pair_fails_before_first_period(self, monkeypatch,
                                                        tmp_path):
        # two components, 1 -> 2 and 3 -> 4; origin 1 also wants node 4
        simulated = []
        monkeypatch.setattr(engine, "assign",
                            lambda *args: simulated.append(args))
        net_path, trips_path = tmp_path / "net.txt", tmp_path / "trips.txt"
        net_path.write_text("1 2 5 0 1 1 1 0 0 1 ;\n3 4 5 0 1 1 1 0 0 1 ;\n")
        trips_path.write_text("Origin 1\n2 : 5; 4 : 3;\nOrigin 3\n4 : 2;\n")
        config = diamond_config(instance=None, net_path=net_path,
                                trips_path=trips_path)
        with pytest.raises(NoPathError,
                           match="destination 4 unreachable from origin 1"):
            run(config)
        assert simulated == []


class TestConfigValidation:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ValidationError):
            diamond_config(horizon=0)

    @pytest.mark.parametrize("value", [2.5, 3.0])
    @pytest.mark.parametrize("name", ["horizon", "type_count"])
    def test_fractional_count_rejected_at_construction(self, name, value):
        # a float, even a whole one, is refused rather than truncated
        with pytest.raises(ValidationError,
                           match=f"must be an integer, got {value}"):
            diamond_config(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        config = diamond_config(horizon=np.int64(3), type_count=np.int32(4))
        assert (config.horizon, config.type_count) == (3, 4)
        assert len(run(config)) == 3

    @pytest.mark.parametrize("name", ["seed", "horizon", "type_count"])
    def test_bool_rejected_at_construction(self, name):
        # True is an int to Python, but it is no seed or count
        with pytest.raises(ValidationError,
                           match="must be an integer, got True"):
            diamond_config(**{name: True})

    def test_seed_checked_at_construction(self):
        config = diamond_config(seed=np.int64(3))
        assert config.seed == 3 and type(config.seed) is int
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            diamond_config(seed=-1)

    def test_type_count_below_two_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="type count must be >= 2"):
            diamond_config(type_count=1)

    def test_scheme_must_be_a_scheme(self):
        # a scheme name used to build and fail in ``run`` with an
        # AttributeError
        with pytest.raises(ValidationError,
                           match="scheme must be a Scheme, got 'now'"):
            diamond_config(scheme="now")

    @pytest.mark.parametrize("capped", ["no", None, 1])
    def test_capped_must_be_a_bool(self, capped):
        # "no" used to run capped and None uncapped, with no error
        with pytest.raises(ValidationError, match="capped must be a bool"):
            diamond_config(capped=capped)

    def test_numpy_bool_capped_accepted(self):
        assert diamond_config(capped=np.False_).capped is False

    def test_epsilon_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            diamond_config(epsilon=-0.1)

    @pytest.mark.parametrize("type_count, epsilon",
                             [(5, 0.5), (5, 0.2), (2, 0.5), (5, math.nan)])
    def test_epsilon_below_one_over_k_at_construction(self, type_count,
                                                      epsilon):
        # refused with the renewal's own message before any instance is
        # loaded, not by ``run`` after loading it
        message = rf"epsilon must lie in \[0, 1/{type_count}\)"
        with pytest.raises(ValidationError, match=message):
            diamond_config(type_count=type_count, epsilon=epsilon)

    def test_epsilon_just_below_one_over_k_accepted(self):
        epsilon = np.nextafter(0.2, 0.0)
        assert len(run(diamond_config(horizon=2, epsilon=epsilon))) == 2

    def test_exactly_one_source(self):
        with pytest.raises(ValidationError):
            diamond_config(net_path="net.txt", trips_path="trips.txt")
        with pytest.raises(ValidationError):
            RunConfig(scheme=now_scheme(), horizon=1, seed=0, capped=True)

    def test_path_source_needs_both_parts(self):
        with pytest.raises(ValidationError):
            RunConfig(scheme=now_scheme(), horizon=1, seed=0, capped=True,
                      net_path="net.txt")

    @pytest.mark.parametrize("instance", [["diamond"], 3, b"diamond"])
    def test_instance_must_be_a_str(self, instance):
        # a list used to build, then fail in ``run`` as unhashable
        with pytest.raises(ValidationError, match="instance must be a str"):
            diamond_config(instance=instance)

    @pytest.mark.parametrize("net_path, trips_path", [
        (3, 3), ("net.txt", 3), (["net.txt"], "trips.txt")])
    def test_paths_must_be_str_or_path_like(self, net_path, trips_path):
        # ints used to build, then fail in ``run`` with a bare TypeError
        with pytest.raises(ValidationError,
                           match="_path must be a str or os.PathLike"):
            RunConfig(scheme=now_scheme(), horizon=1, seed=0,
                      net_path=net_path, trips_path=trips_path)


def fake_records(social_costs, excesses=None):
    n = len(social_costs)
    excesses = excesses if excesses is not None else [0.0] * n
    return RunResult(t=np.arange(1, n + 1), flows=np.zeros((n, 1)),
                     costs=np.zeros((n, 1)),
                     social_cost=np.array(social_costs, dtype=float),
                     total_excess=np.array(excesses, dtype=float),
                     weights=np.ones((n, 1)), signal=np.zeros((n, 1, 2)))


class TestSummarize:
    def test_constant_series_zero_regret(self):
        summary = summarize(fake_records([5.0] * 10), reference_cost=5.0)
        assert summary.mean_cost == pytest.approx(5.0)
        assert summary.mean_excess == pytest.approx(0.0)
        assert summary.regret == pytest.approx(0.0)

    def test_default_window_is_last_fifty(self):
        costs = list(range(1, 101))
        summary = summarize(fake_records(costs))
        assert summary.window == 50
        assert summary.mean_cost == pytest.approx(np.mean(costs[-50:]))

    def test_short_series_uses_whole_series(self):
        summary = summarize(fake_records([1.0, 3.0]))
        assert summary.window == 2
        assert summary.mean_cost == pytest.approx(2.0)

    def test_explicit_window(self):
        summary = summarize(fake_records([1, 2, 3, 4, 5, 6],
                                         [0, 0, 0, 1, 2, 3]), window=3)
        assert summary.mean_cost == pytest.approx(5.0)
        assert summary.mean_excess == pytest.approx(2.0)

    def test_no_reference_no_regret(self):
        assert summarize(fake_records([1.0])).regret is None

    def test_regret_may_be_negative(self):
        summary = summarize(fake_records([4.0] * 5), reference_cost=6.0)
        assert summary.regret == pytest.approx(-2.0)

    @pytest.mark.parametrize("reference", [np.nan, np.inf, -np.inf])
    def test_nonfinite_reference_refused(self, reference):
        with pytest.raises(ValidationError,
                           match="reference cost must be finite"):
            summarize(fake_records([1.0]), reference_cost=reference)

    @pytest.mark.parametrize("reference", [True, "5", [5.0]],
                             ids=["bool", "string", "list"])
    def test_non_real_reference_refused(self, reference):
        # True used to be read as 1.0, and "5" to escape as a bare
        # TypeError from ``math.isfinite``
        with pytest.raises(ValidationError,
                           match="reference cost must be a real number"):
            summarize(fake_records([1.0]), reference_cost=reference)

    def test_numpy_reference_read_as_float(self):
        summary = summarize(fake_records([4.0] * 5),
                            reference_cost=np.float32(6.0))
        assert type(summary.regret) is float and summary.regret == -2.0

    def test_window_must_fit(self):
        with pytest.raises(ValidationError):
            summarize(fake_records([1.0]), window=2)
        with pytest.raises(ValidationError):
            summarize(fake_records([1.0]), window=0)
        with pytest.raises(ValidationError):
            summarize(fake_records([]))

    @pytest.mark.parametrize("window", [2.0, 1.5, "2"])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ValidationError, match="window must be an integer"):
            summarize(fake_records([1.0, 2.0, 3.0]), window=window)

    def test_abstract_result_refused(self):
        # an abstract run has no excess column to average
        config, _ = convergence_demo_config()
        with pytest.raises(ValidationError, match="must be a RunResult"):
            summarize(run_abstract(config, 3))

    def test_long_refused_value_named_by_its_type(self):
        # the result's repr would hold every column
        config, _ = convergence_demo_config()
        with pytest.raises(ValidationError) as caught:
            summarize(run_abstract(config, 300))
        assert str(caught.value) == ("result must be a RunResult, got "
                                     "type AbstractResult")


def rows_digest(rows) -> str:
    """sha256 prefix of every row's values, read by attribute the way the
    benchmark checks and ``scripts/dump_outputs.py`` read them."""
    h = hashlib.sha256()
    for r in rows:
        assert type(r.t) is int
        assert type(r.social_cost) is float
        assert type(r.total_excess) is float
        for block in ([r.t, r.social_cost, r.total_excess], r.weights,
                      r.flows, r.costs, r.signal):
            h.update(np.ascontiguousarray(block, dtype=float).tobytes())
    return h.hexdigest()[:16]


class TestRunResultContract:
    """A ``RunResult`` reads as the list of per-period records ``run`` used
    to return.  The digests are those of that list (``len``, iteration,
    ``[-1]``, ``[30:]``, ``[-20:]``, ``[5]``), taken before the result
    became columnar; so are the ``summarize`` bits, as float hex."""

    CASES = {
        "diamond": (
            RunConfig(scheme=extreme_scheme(5), horizon=300, seed=0,
                      instance="diamond"),
            ["6bf964568d0204ef", "1cdf5871994d0a71", "fc001189e4955bb6",
             "e1d2631cd39f8b97", "036c4d3d22d8523b"],
            [("0x1.96542e192a7d0p+8", "0x1.92dd35aee0b22p+3"),
             ("0x1.9b35bb274ceeap+8", "0x1.88fd927b8ee11p+3")]),
        "sioux-falls": (
            RunConfig(scheme=extreme_scheme(20), horizon=50, seed=0,
                      instance="sioux-falls"),
            ["917fc7f2f78b485b", "1898c726aad67d55", "b648190ce7de1e88",
             "b648190ce7de1e88", "cd3fd4f923286b28"],
            [("0x1.b295ffbc3765ap+21", "0x1.4c92669649e30p+18"),
             ("0x1.cfd52c77b7f5dp+21", "0x1.7770ba977134ap+18")]),
    }

    @pytest.fixture(scope="class", params=list(CASES))
    def case(self, request):
        config, digests, summaries = self.CASES[request.param]
        return run(config), config.horizon, digests, summaries

    def test_sequence_reads_as_the_record_list(self, case):
        result, horizon, digests, _ = case
        assert isinstance(result, RunResult)
        assert len(result) == horizon
        assert [rows_digest(result), rows_digest([result[-1]]),
                rows_digest(result[30:]), rows_digest(result[-20:]),
                rows_digest([result[5]])] == digests
        assert len(result[30:]) == horizon - 30
        assert len(result[-20:]) == 20

    def test_rows_are_the_columns(self, case):
        result, horizon, _, _ = case
        names = ["t", "flows", "costs", "social_cost", "total_excess",
                 "weights", "signal"]
        for i in (0, 7, horizon - 1, -1, -horizon):
            row = result[i]
            for name in names:
                assert np.array_equal(getattr(row, name),
                                      getattr(result, name)[i])
        assert [r.t for r in result] == list(range(1, horizon + 1))
        assert result[-1].t == horizon
        for i in (horizon, -horizon - 1):
            with pytest.raises(IndexError):
                result[i]
        with pytest.raises(AttributeError):
            result[0].profile

    def test_summarize_is_the_list_mean(self, case):
        result, _, _, summaries = case
        for window, (cost, excess) in zip((20, None), summaries):
            summary = summarize(result, window=window)
            assert (summary.mean_cost.hex(),
                    summary.mean_excess.hex()) == (cost, excess)
            tail = list(result)[-summary.window:]
            assert summary.mean_cost == float(
                np.mean([r.social_cost for r in tail]))
            assert summary.mean_excess == float(
                np.mean([r.total_excess for r in tail]))

    def test_sealed_but_a_deep_copy_writes_through(self, case):
        result, _, _, _ = case
        with pytest.raises(ValueError, match="read-only"):
            result[3].social_cost = 0.0
        with pytest.raises(ValueError, match="read-only"):
            result.flows[3] = 0.0
        edited = copy.deepcopy(result)
        flows = edited[3].flows + 1.0
        edited[3].flows = flows
        edited[3].social_cost = 2.5
        assert np.array_equal(edited.flows[3], flows)
        assert [r.social_cost for r in edited][3] == 2.5
        assert result[3].social_cost != 2.5


class TestCsv:
    def test_header_and_shape(self):
        records = run(diamond_config(horizon=3))
        text = records_to_csv(records)
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        assert header[:3] == ["t", "social_cost", "total_excess"]
        assert header[3:8] == [f"w_omega_{k}" for k in range(1, 6)]
        assert header[8:13] == [f"flow_e{e}" for e in range(1, 6)]
        assert header[13:18] == [f"cost_e{e}" for e in range(1, 6)]
        assert header[18:23] == [f"ulo_e{e}" for e in range(1, 6)]
        assert header[23:28] == [f"uhi_e{e}" for e in range(1, 6)]
        assert len(header) == 28
        assert len(rows) == 4

    def test_values_round_trip_exactly(self):
        records = run(diamond_config(horizon=3, seed=5))
        rows = list(csv.reader(io.StringIO(records_to_csv(records))))
        for rec, row in zip(records, rows[1:]):
            assert int(row[0]) == rec.t
            assert float(row[1]) == rec.social_cost
            assert float(row[2]) == rec.total_excess
            assert [float(v) for v in row[3:8]] == list(rec.weights)
            assert [float(v) for v in row[8:13]] == list(rec.flows)
            assert [float(v) for v in row[13:18]] == list(rec.costs)
            assert [float(v) for v in row[18:23]] == list(rec.signal[:, 0])
            assert [float(v) for v in row[23:28]] == list(rec.signal[:, 1])

    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = diamond_config(horizon=6, seed=9, scheme=extreme_scheme(2))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run(cfg), p1)
        write_csv(run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().startswith(b"t,social_cost")

    def test_abstract_result_refused(self):
        config, _ = convergence_demo_config()
        with pytest.raises(ValidationError, match="must be a RunResult"):
            records_to_csv(run_abstract(config, 3))


class TestDiamondOracle:
    def test_frozen_reference_point(self):
        # closed form: the root in [0, 2] of
        # d/dx[(2-x)(1+(2-x)^2) + x(1+10x^6)] is x = 0.65327604, which
        # leaves 20.20086 agents on the upper link.  The feeder links'
        # slight load dependence moves the network argmin ~3e-7 higher,
        # which the capped cost's slope turns into ~4e-5.
        oracle = diamond_system_optimum()
        assert oracle["split"] == pytest.approx(0.65327604, abs=1e-6)
        assert oracle["uncapped_cost"] == pytest.approx(358.50941, abs=1e-5)
        assert oracle["capped_cost"] == pytest.approx(325.63593, abs=1e-4)
        assert oracle["excess"] == pytest.approx(5.20086, abs=1e-4)

    def test_objective_agrees_with_edge_costs(self):
        # the oracle must minimize the instance's own social cost: no
        # split of the middle links priced with edge_costs does better
        net = parse_network(diamond_net_text())
        oracle = diamond_system_optimum()
        for x in (0.0, 0.2677013, 0.5, 0.64, 0.66, 0.8, 1.0, 1.5, 2.0):
            upper, lower = 15.0 * (2.0 - x), 15.0 * x
            f = np.array([30.0, upper, lower, upper, lower])
            assert f @ edge_costs(net, f, capped=False) > \
                oracle["uncapped_cost"]


RUN_COLUMNS = ["flows", "signal", "costs", "social_cost", "total_excess",
               "weights"]

# Each config run by itself in a fresh process, from cold caches: the
# columns' sha256, one line per config.
COLD_RUNS = """
import hashlib, json, sys
from intervalsig import engine, instances
from intervalsig.signaling import Scheme
for instance, kind, window, shrink, horizon, types in json.loads(
        sys.argv[1]):
    engine._instance_plan.cache_clear()
    instances.load_instance.cache_clear()
    result = engine.run(engine.RunConfig(
        scheme=Scheme(kind, window=window, shrink=shrink), horizon=horizon,
        seed=1, instance=instance, type_count=types))
    print(hashlib.sha256(b"".join(getattr(result, name).tobytes()
                                  for name in sys.argv[2:])).hexdigest())
"""


def columns_sha256(result) -> str:
    return hashlib.sha256(b"".join(getattr(result, name).tobytes()
                                   for name in RUN_COLUMNS)).hexdigest()


class TestSharedInstancePlan:
    """A built-in instance and its loading plan are built once per
    process, on inputs that cannot change, and only read after that:
    every run takes a shallow copy of the plan, which owns its memo and
    its row-DAG cache, both starting at the zero warm-up signal's DAGs."""

    FIVE_TYPES = uniform_type_set(5)

    def test_load_instance_returns_the_same_frozen_objects(self):
        for name in ("diamond", "sioux-falls"):
            net, demand = load_instance(name)
            again = load_instance(name)
            assert again[0] is net and again[1] is demand
            with pytest.raises(dataclasses.FrozenInstanceError):
                net.edges = ()
            assert not net.capacities.flags.writeable
            with pytest.raises(TypeError):
                demand.entries[(1, 2)] = 1.0

    @pytest.mark.parametrize("scheme", [
        now_scheme(), mean_scheme(), extreme_scheme(5), extreme_scheme(10),
        extreme_scheme(20)], ids=lambda scheme: scheme.label())
    def test_file_configs_read_their_files_on_every_run(self, tmp_path,
                                                         scheme):
        net_path, trips_path = tmp_path / "net.tntp", tmp_path / "trips.tntp"
        net_path.write_text(diamond_net_text())
        trips_path.write_text(diamond_trips_text())
        config = diamond_config(scheme=scheme, instance=None,
                                net_path=net_path, trips_path=trips_path,
                                horizon=20)
        first = columns_sha256(run(config))
        assert first == columns_sha256(run(diamond_config(scheme=scheme,
                                                          horizon=20)))
        # the upper middle link's capacity doubled
        rewritten = diamond_net_text().replace("2 3 15 0 2", "2 3 30 0 2")
        assert rewritten != diamond_net_text()
        net_path.write_text(rewritten)
        assert columns_sha256(run(config)) != first

    def test_shared_arrays_are_read_only(self):
        plan = engine._instance_plan("sioux-falls", self.FIVE_TYPES)
        assert plan.batched
        dags = plan._memo
        assert dags.key == np.zeros((plan.net.edge_count, 2)).tobytes()
        arrays = [value for value in vars(dags).values()
                  if isinstance(value, np.ndarray)]
        assert len(arrays) == 5
        arrays += list(vars(plan._layout).values()) + [plan.omegas]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dags.key = b""
        with pytest.raises(TypeError):
            plan.by_origin[1] = ()

    def test_run_copies_share_neither_the_row_dag_cache_nor_the_memo(
            self, monkeypatch):
        shared = engine._instance_plan("sioux-falls", self.FIVE_TYPES)
        zero_key = np.zeros((shared.net.edge_count, 2)).tobytes()
        zero_weights = np.zeros(shared.net.edge_count).tobytes()
        zero_dags = dict(shared._row_dags[zero_weights])
        plans = []

        def recorded(plan, signal, shares):
            plans.append(plan)
            return assignment.assign(plan, signal, shares)

        monkeypatch.setattr(engine, "assign", recorded)
        run(RunConfig(scheme=extreme_scheme(5), horizon=5, seed=0,
                      instance="sioux-falls"))
        copied = plans[0]
        assert all(plan is copied for plan in plans)
        assert copied is not shared
        assert copied._layout is shared._layout
        assert copied._row_dags is not shared._row_dags
        assert (copied._row_dags[zero_weights]
                is not shared._row_dags[zero_weights])
        # the run's memo moved on; the shared plan's stays at the zero
        # warm-up signal
        assert copied._memo.key != zero_key
        assert shared._memo.key == zero_key
        # runs that fill and evict their own caches read the shared plan
        # and write nothing into it
        monkeypatch.undo()
        for scheme in (now_scheme(), mean_scheme(), extreme_scheme(5)):
            run(RunConfig(scheme=scheme, horizon=100, seed=1,
                          instance="sioux-falls"))
            run(diamond_config(scheme=scheme, horizon=100))
        assert list(shared._row_dags) == [zero_weights]
        assert shared._row_dags[zero_weights] == zero_dags
        assert all(dag is zero_dags[origin] for origin, dag
                   in shared._row_dags[zero_weights].items())
        assert shared._memo.key == zero_key

    def test_period_one_of_a_built_in_run_calls_no_dijkstra(
            self, monkeypatch):
        # the shared plan's construction built the zero warm-up's DAG,
        # and every run's cache starts from it
        engine._instance_plan("diamond", self.FIVE_TYPES)
        calls = []
        original = assignment.dijkstra

        def counted(*args):
            calls.append(args)
            return original(*args)

        periods = []

        def first_period(plan, signal, shares):
            flows = assignment.assign(plan, signal, shares)
            if not periods:
                periods.append(len(calls))
            return flows

        monkeypatch.setattr(assignment, "dijkstra", counted)
        monkeypatch.setattr(engine, "assign", first_period)
        records = run(diamond_config(horizon=5))
        assert periods == [0]
        assert not records.signal[0].any()
        # later periods build their own DAGs
        assert calls

    def test_concurrent_runs_match_their_solo_runs(self):
        # Threads run on one built-in instance's shared plan; a small
        # switch interval passes the interpreter lock between them about
        # every microsecond, inside any read-modify-write they share.
        configs = [[diamond_config(scheme=scheme, horizon=400, seed=seed)
                    for scheme in (now_scheme(), mean_scheme(),
                                   extreme_scheme(5))]
                   for seed in (0, 1)]
        solo = {config: columns_sha256(run(config))
                for seed_configs in configs for config in seed_configs}
        threads = 6
        barrier = threading.Barrier(threads)

        def runs(thread):
            barrier.wait(timeout=60)
            return {config: columns_sha256(run(config))
                    for config in configs[thread % 2]}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                results = [future.result(timeout=120) for future in [
                    pool.submit(runs, thread) for thread in range(threads)]]
        finally:
            sys.setswitchinterval(interval)
        for thread, digests in enumerate(results):
            assert digests == {config: solo[config]
                               for config in configs[thread % 2]}, thread

    def test_long_run_keeps_the_warm_up_dags(self, monkeypatch):
        # 500 periods under a short window cache far more than
        # ROW_DAG_CACHE weight vectors; the zero warm-up's stays
        engine._instance_plan.cache_clear()
        config = RunConfig(scheme=extreme_scheme(5), horizon=500, seed=1,
                           instance="diamond")
        run(config)
        calls = []
        original = assignment.dijkstra

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(assignment, "dijkstra", counted)
        one = run(dataclasses.replace(config, horizon=1))
        assert calls == []
        assert not one.signal.any()

    @pytest.mark.parametrize("instance", [
        ("diamond", diamond_net_text, diamond_trips_text),
        ("sioux-falls", sioux_falls_net_text, sioux_falls_trips_text)],
        ids=lambda instance: instance[0])
    def test_file_run_builds_nothing_in_period_one(self, monkeypatch,
                                                   tmp_path, instance):
        # the plan built from the files starts at the zero warm-up
        # signal's DAGs, as the shared plan of a built-in instance does
        name, net_text, trips_text = instance
        net_path, trips_path = tmp_path / "net.tntp", tmp_path / "trips.tntp"
        net_path.write_text(net_text())
        trips_path.write_text(trips_text())
        calls = {"dijkstra": 0, "dags": 0, "distances": 0}
        period_one = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(assignment, fn.__name__, wrapper)

        counted("dijkstra", assignment.dijkstra)
        counted("dags", assignment._dags)
        counted("distances", assignment._distances)

        def first_period(plan, signal, shares):
            before = dict(calls)
            flows = assignment.assign(plan, signal, shares)
            if not period_one:
                period_one.append({key: calls[key] - before[key]
                                   for key in calls})
            return flows

        monkeypatch.setattr(engine, "assign", first_period)
        config = RunConfig(scheme=extreme_scheme(5), horizon=3, seed=0,
                           net_path=net_path, trips_path=trips_path)
        records = run(config)
        assert period_one == [dict.fromkeys(calls, 0)]
        assert not records.signal[0].any()
        # the construction built the zero DAGs before period 1, and only
        # the batched plan the batched loader's
        assert calls["dijkstra"] > 0
        assert (calls["dags"] > 0) is (name == "sioux-falls")
        assert columns_sha256(records) == columns_sha256(
            run(dataclasses.replace(config, net_path=None, trips_path=None,
                                    instance=name)))

    @pytest.mark.parametrize("source", ["diamond", "gen-diamond"])
    def test_per_row_plan_builds_no_layout_or_memo(self, monkeypatch,
                                                   tmp_path, source):
        # the diamond's plan loads row by row: its construction builds
        # each origin's zero-weight DAG, for the reachability check and
        # the row-DAG cache, and nothing that only the batched loader
        # reads
        engine._instance_plan.cache_clear()
        calls = {"layout": 0, "dijkstra": 0, "dags": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(assignment, fn.__name__, wrapper)

        counted("layout", assignment._Layout)
        counted("dijkstra", assignment.dijkstra)
        counted("dags", assignment._dags)
        plans = []

        def recorded(plan, signal, shares):
            plans.append(plan)
            return assignment.assign(plan, signal, shares)

        monkeypatch.setattr(engine, "assign", recorded)
        if source == "gen-diamond":
            assert main(["gen-diamond", "--dir", str(tmp_path)]) == 0
            config = RunConfig(scheme=now_scheme(), horizon=1, seed=0,
                               net_path=tmp_path / "net.txt",
                               trips_path=tmp_path / "trips.txt")
        else:
            config = diamond_config(horizon=1)
        run(config)
        # one origin; period 1 reads the zero DAG from the cache
        assert calls == {"layout": 0, "dijkstra": 1, "dags": 0}
        plan = plans[0]
        assert not plan.batched
        assert "_layout" not in vars(plan) and "_memo" not in vars(plan)

    def test_second_run_builds_nothing_in_period_one(self, monkeypatch):
        engine._instance_plan.cache_clear()
        calls = {"layout": 0, "dijkstra": 0, "dags": 0, "distances": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(assignment, fn.__name__, wrapper)

        counted("layout", assignment._Layout)
        counted("dijkstra", assignment.dijkstra)
        counted("dags", assignment._dags)
        counted("distances", assignment._distances)
        config = RunConfig(scheme=extreme_scheme(5), horizon=1, seed=0,
                           instance="sioux-falls")
        cold = run(config)
        # the plan's construction: one Dijkstra per origin, since the
        # zero signal gives every type the same weights, and the zero
        # memo, built from those DAGs with no relaxation
        assert calls == {"layout": 1, "dijkstra": 24, "dags": 1,
                         "distances": 0}
        # a longer run moves its own memo on, not the shared plan's
        run(dataclasses.replace(config, horizon=8))
        assert calls["distances"] > 1
        calls.update(dict.fromkeys(calls, 0))
        warm = run(config)
        assert calls == dict.fromkeys(calls, 0)
        assert columns_sha256(warm) == columns_sha256(cold)


class TestWarmRunEqualsCold:
    """Runs in this process, on warm caches, give the bytes of the same
    configs run one by one in a fresh process from cold caches."""

    CONFIGS = (
        [("sioux-falls", "extreme", 5, None, 5, 5),
         ("sioux-falls", "now", None, None, 5, 5),
         ("sioux-falls", "extreme", 5, None, 5, 3)]
        + [("diamond", s.kind, s.window, s.shrink, 50, 5)
           for s in (now_scheme(), mean_scheme(), extreme_scheme(5),
                     full_extreme_scheme(), subinterval_scheme(5, 0.5))])

    def test_warm_runs_match_a_fresh_process(self):
        src = Path(intervalsig.__file__).resolve().parents[1]
        cold = subprocess.run(
            [sys.executable, "-c", COLD_RUNS, json.dumps(self.CONFIGS),
             *RUN_COLUMNS],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, check=True, timeout=120).stdout.split()
        assert len(cold) == len(self.CONFIGS)
        hits = engine._instance_plan.cache_info().hits
        for repeat in range(2):
            warm = [columns_sha256(run(RunConfig(
                        scheme=Scheme(kind, window=window, shrink=shrink),
                        horizon=horizon, seed=1, instance=instance,
                        type_count=types)))
                    for instance, kind, window, shrink, horizon, types
                    in self.CONFIGS]
            assert warm == cold, repeat
        # every run of the second round, at least, read the shared plan
        assert (engine._instance_plan.cache_info().hits
                >= hits + len(self.CONFIGS))
