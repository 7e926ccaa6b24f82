"""End-to-end acceptance gate.

One test per release check, run at fixed tolerances and runtime budgets.
Every test prints a PASS/FAIL line per clause with the measured numbers,
then asserts, so a red check carries its evidence in the report. Target
constants live next to the clause that uses them; they are external
contract values, not quantities re-derived from this codebase.
"""

from __future__ import annotations

import filecmp
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from intervalsig.abstract_model import (
    FlappingSpec,
    convergence_check,
    convergence_demo_config,
    flapping_demo,
)
from intervalsig.cli import main
from intervalsig.costs import (
    edge_costs,
    polynomial_cost_fn,
)
from intervalsig.engine import RunConfig, diamond_system_optimum, run, summarize
from intervalsig.network import (
    DemandTable,
    Edge,
    Network,
    parse_network,
    parse_trips,
)
from intervalsig.population import (
    sample_profile,
    uniform_perturbation,
    uniform_type_set,
)
from intervalsig.signaling import (
    CostHistory,
    emit_signal,
    extreme_scheme,
    full_extreme_scheme,
    now_scheme,
)
from intervalsig.instances import load_instance

from .oracle import (
    assign_per_pair,
    demand_to_tntp,
    minimize_two_action_cost,
    network_to_tntp,
)

MULTI_OD_NET = """\
<END OF METADATA>
1 2 10 0 1 1 2 0 0 1 ;
2 3 10 0 1 1 2 0 0 1 ;
1 3 10 0 2 1 2 0 0 1 ;
3 4 10 0 1 1 2 0 0 1 ;
2 4 10 0 3 1 2 0 0 1 ;
"""

MULTI_OD_TRIPS = "Origin 1\n3 : 6; 4 : 9;\nOrigin 2\n4 : 5;\n"


def _report(label: str, clauses: list[tuple[str, bool, str]]) -> None:
    """Print one PASS/FAIL line per clause, then fail on any FAIL."""
    lines = [f"{'PASS' if ok else 'FAIL'} {label}/{name}: {detail}"
             for name, ok, detail in clauses]
    print("\n".join(lines))
    failed = [line for line in lines if line.startswith("FAIL")]
    assert not failed, " | ".join(failed)


def _diamond_reference_triple() -> dict[str, float]:
    """Uncapped social optimum of the diamond, from its link parameters.

    A link with BPR parameters (F, B, p, chi) carrying v agents costs
    v F(1 + B (v/chi)^p) in total, with marginal cost
    F(1 + B (p+1) (v/chi)^p).  The optimum splits the demand between the
    upper route 1-2-3-5 and the lower route 1-2-4-5 where the two routes'
    marginal costs agree (the shared feeder 1-2 cancels).  Returns the
    uncapped and capped social costs and the capacity excess there.
    """
    net, demand = load_instance("diamond")
    link = {(e.src, e.dst): e for e in net.edges}
    total = demand.total

    def marginal(key, v):
        e = link[key]
        return e.free_flow * (1 + e.b_coeff * (e.power + 1)
                              * (v / e.capacity) ** e.power)

    def route_gap(upper):
        lower = total - upper
        return (marginal((2, 3), upper) + marginal((3, 5), upper)
                - marginal((2, 4), lower) - marginal((4, 5), lower))

    upper = brentq(route_gap, 0.0, total, xtol=1e-12)
    loads = {(1, 2): total, (2, 3): upper, (3, 5): upper,
             (2, 4): total - upper, (4, 5): total - upper}

    def social_cost(capped):
        cost = 0.0
        for key, v in loads.items():
            e = link[key]
            ratio = v / e.capacity
            if capped:
                ratio = min(ratio, 1.0)
            cost += v * e.free_flow * (1 + e.b_coeff * ratio ** e.power)
        return cost

    return {"uncapped_cost": social_cost(capped=False),
            "capped_cost": social_cost(capped=True),
            "excess": sum(max(v - link[key].capacity, 0.0)
                          for key, v in loads.items())}


# Uncapped social optimum of the diamond: the upper middle link carries
# 20.20086 agents (closed form: the root in [0, 2] of
# d/dx[(2-x)(1+(2-x)^2) + x(1+10x^6)], x = 0.6532760).
DIAMOND_REFERENCE = {"uncapped_cost": 358.509, "capped_cost": 325.636,
                     "excess": 5.201}


def test_a1_diamond_reference_point():
    """Diamond one-dimensional oracle lands on the reference triple."""
    start = time.perf_counter()
    oracle = diamond_system_optimum()
    elapsed = time.perf_counter() - start
    derived = _diamond_reference_triple()
    clauses = []
    for name, want in DIAMOND_REFERENCE.items():
        clauses.append((name, abs(oracle[name] - want) <= 0.01,
                        f"got {oracle[name]:.6f}, want {want:.3f} +-0.01"))
        # the pinned triple must still be the optimum of the instance as
        # bundled, derived by hand from its link parameters
        clauses.append((f"{name}_derived", abs(derived[name] - want) <= 0.01,
                        f"link parameters give {derived[name]:.6f}, "
                        f"want {want:.3f} +-0.01"))
    clauses.append(("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"))
    _report("a1", clauses)


def test_a2_diamond_interval_regret():
    """EXTREME(20) on diamond: last-50 mean near the reference, below NOW."""
    ref = DIAMOND_REFERENCE["capped_cost"]
    start = time.perf_counter()
    ext = run(RunConfig(scheme=extreme_scheme(20), horizon=500, seed=0,
                        instance="diamond"))
    now = run(RunConfig(scheme=now_scheme(), horizon=500, seed=0,
                        instance="diamond"))
    elapsed = time.perf_counter() - start
    mean_ext = summarize(ext).mean_cost
    mean_now = summarize(now).mean_cost
    clauses = [
        ("within_5pct", abs(mean_ext - ref) <= 0.05 * ref,
         f"last-50 mean {mean_ext:.3f}, want within 5% of {ref:.3f} "
         f"([{0.95 * ref:.2f}, {1.05 * ref:.2f}])"),
        ("below_now", mean_ext < mean_now,
         f"extreme {mean_ext:.3f} vs now {mean_now:.3f} (same seed)"),
        ("runtime", elapsed < 5.0, f"{elapsed:.3f}s < 5s"),
    ]
    _report("a2", clauses)


def test_a3_diamond_flapping_signature():
    """NOW oscillates the middle link hard; EXTREME(20) calms it."""
    start = time.perf_counter()
    now = run(RunConfig(scheme=now_scheme(), horizon=500, seed=0,
                        instance="diamond"))
    ext = run(RunConfig(scheme=extreme_scheme(20), horizon=500, seed=0,
                        instance="diamond"))
    elapsed = time.perf_counter() - start
    # Edge 1 is the congestible upper branch (node 2 -> node 3); warm-up is
    # one zero-signal period for NOW, two for windowed interval schemes.
    f_now = np.array([r.flows[1] for r in now])[1:]
    f_ext = np.array([r.flows[1] for r in ext])[2:]
    d_now = np.abs(np.diff(f_now))
    d_ext = np.abs(np.diff(f_ext))
    frac_big = float(np.mean(d_now >= 25.0))
    clauses = [
        ("now_alternates", frac_big >= 0.8,
         f"|delta flow| >= 25 in {frac_big:.1%} of periods, want >= 80%"),
        ("extreme_calms", d_ext.mean() <= 0.5 * d_now.mean(),
         f"mean |delta| extreme {d_ext.mean():.3f} vs half of NOW's "
         f"{0.5 * d_now.mean():.3f}"),
        ("runtime", elapsed < 5.0, f"{elapsed:.3f}s < 5s"),
    ]
    _report("a3", clauses)


def test_a4_sioux_falls_interval_dynamics():
    """Sioux Falls capped EXTREME(r): last-100 cost near the capped
    equilibrium, excess below its threshold."""
    # Social cost and total excess of the capped-cost user equilibrium of
    # the bundled instance, as printed by scripts/sioux_falls_reference.py:
    # Frank-Wolfe on capped BPR costs from the all-or-nothing free-flow
    # loading, exact line search, stopped at relative gap <= 1e-7 (9.8e-8,
    # 220 iterations).  Capped costs are flat above capacity, so this is
    # the equilibrium reached by that method from that start.
    cost_reference = 3_560_514.823
    cost_tolerance = 1e-3
    excess_bound = 340_977.562
    clauses = []
    for r in (5, 10, 20):
        start = time.perf_counter()
        records = run(RunConfig(scheme=extreme_scheme(r), horizon=300,
                                seed=0, instance="sioux-falls"))
        elapsed = time.perf_counter() - start
        summary = summarize(records, window=100)
        clauses.extend([
            (f"r{r}_cost",
             abs(summary.mean_cost - cost_reference)
             <= cost_tolerance * cost_reference,
             f"mean cost {summary.mean_cost:,.1f}, want within 0.1% of "
             f"{cost_reference:,.3f}"),
            (f"r{r}_excess", summary.mean_excess < excess_bound,
             f"mean excess {summary.mean_excess:,.1f}, "
             f"want < {excess_bound:,.3f}"),
            (f"r{r}_runtime", elapsed < 120.0, f"{elapsed:.1f}s < 120s"),
        ])
    _report("a4", clauses)


def test_a5_two_action_minimizer():
    """Continuous two-action social cost has its minimum near 0.86."""
    start = time.perf_counter()
    curve_a = polynomial_cost_fn([2.0, 0.0, 0.0, 0.0, 7.2])  # 2(1+3.6x^4)
    curve_b = polynomial_cost_fn([5.0, 0.0, 4.0])            # 5(1+0.8y^2)
    argmin, value = minimize_two_action_cost(curve_a, curve_b, 2)
    elapsed = time.perf_counter() - start
    clauses = [
        ("minimizer", abs(argmin - 0.86) <= 0.01,
         f"argmin {argmin:.6f} (cost {value:.6f}), want 0.86 +-0.01"),
        ("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"),
    ]
    _report("a5", clauses)


def test_a6_flapping_gap():
    """Scalar-vs-interval steady cost gap: exact small case, large-N band."""
    start = time.perf_counter()
    small = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=3),
                          horizon=40)
    large = flapping_demo(FlappingSpec(gap_target=7.0, agent_count=101),
                          horizon=40)
    elapsed = time.perf_counter() - start
    orbit = {(0.0, 3.0), (3.0, 0.0)}
    counts_ok = all(tuple(rec.counts) in orbit
                    for rec in small.scalar_records if rec.t >= 2)
    clauses = [
        ("small_gap_exact", small.gap == 19.0 / 3.0,
         f"gap {small.gap!r}, want exactly {19.0 / 3.0!r}"),
        ("large_gap_band", 6.85 <= large.gap <= 7.0,
         f"gap {large.gap:.6f}, want in [6.85, 7.0]"),
        ("scalar_all_or_nothing", counts_ok,
         "scalar counts stay in {(0,N),(N,0)} for t >= 2"),
        ("runtime", elapsed < 1.0, f"{elapsed:.3f}s < 1s"),
    ]
    _report("a6", clauses)


def test_a7_coupled_convergence():
    """Coupled trajectories contract; terminal samples are KS-close."""
    start = time.perf_counter()
    config, inits = convergence_demo_config(agent_count=20, action_count=2)
    report = convergence_check(config, trajectories=2000, horizon=200,
                               initial_signals=inits, seed=0)
    elapsed = time.perf_counter() - start
    d0 = report.distance_series[0]
    d_end = report.distance_series[-1]
    clauses = [
        ("initial_separation", d0 > 0.0, f"initial distance {d0:.3f}"),
        ("contraction", d_end < 1e-6 * d0,
         f"final distance {d_end:.3e}, want < 1e-6 x initial {d0:.3f}"),
        ("ks_close", report.ks_statistic < 0.05,
         f"KS statistic {report.ks_statistic:.4f}, want < 0.05"),
        ("runtime", elapsed < 30.0, f"{elapsed:.3f}s < 30s"),
    ]
    _report("a7", clauses)


def _run_cli(argv: list[str]) -> None:
    code = main(argv)
    assert code == 0, f"cli {argv} exited {code}"


def test_a8_csv_determinism(tmp_path):
    """Identical flags produce byte-identical CSV outputs."""
    start = time.perf_counter()
    clauses = []

    run_flags = ["run", "--instance", "diamond", "--scheme", "extreme",
                 "--r", "5", "--horizon", "30", "--seed", "3"]
    a, b = tmp_path / "run_a.csv", tmp_path / "run_b.csv"
    _run_cli(run_flags + ["--out", str(a)])
    _run_cli(run_flags + ["--out", str(b)])
    clauses.append(("run", filecmp.cmp(a, b, shallow=False),
                    "two `run` invocations, same flags"))

    for i in ("a", "b"):
        _run_cli(["sweep", "--instance", "diamond", "--horizon", "20",
                  "--seed", "1", "--out-dir", str(tmp_path / f"sweep_{i}")])
    sweep_names = sorted(p.name for p in (tmp_path / "sweep_a").iterdir())
    sweep_same = all(
        filecmp.cmp(tmp_path / "sweep_a" / name, tmp_path / "sweep_b" / name,
                    shallow=False)
        for name in sweep_names)
    clauses.append(("sweep", sweep_same,
                    f"{len(sweep_names)} files per sweep directory"))

    for i in ("a", "b"):
        _run_cli(["flapping-demo", "--J", "7", "--N", "3", "--horizon", "10",
                  "--out", str(tmp_path / f"flap_{i}")])
    flap_same = all(
        filecmp.cmp(tmp_path / f"flap_a_{arm}.csv",
                    tmp_path / f"flap_b_{arm}.csv", shallow=False)
        for arm in ("scalar", "interval"))
    clauses.append(("flapping_demo", flap_same, "both arm CSVs"))

    elapsed = time.perf_counter() - start
    clauses.append(("runtime", elapsed < 30.0, f"{elapsed:.3f}s < 30s"))
    _report("a8", clauses)


def _random_network(rng) -> Network:
    node_count = int(rng.integers(2, 9))
    edge_count = int(rng.integers(1, 13))
    edges = []
    for eid in range(edge_count):
        src = int(rng.integers(1, node_count + 1))
        dst = int(rng.integers(1, node_count))
        if dst >= src:
            dst += 1
        edges.append(Edge(
            id=eid, src=src, dst=dst,
            capacity=float(rng.uniform(1.0, 1000.0)),
            length=float(rng.uniform(0.0, 10.0)),
            free_flow=float(rng.uniform(0.1, 20.0)),
            b_coeff=float(rng.uniform(0.0, 1.0)),
            power=float(rng.choice([0.0, 1.0, 2.0, 4.0])),
        ))
    return Network(node_count=node_count, edges=edges)


def _random_demand(rng) -> DemandTable:
    entries = {}
    for _ in range(int(rng.integers(1, 8))):
        origin = int(rng.integers(1, 9))
        dest = int(rng.integers(1, 8))
        if dest >= origin:
            dest += 1
        entries[(origin, dest)] = float(rng.uniform(0.5, 50.0))
    return DemandTable(entries=entries)


def test_a9_property_suites():
    """Serialization round-trips, conservation, cap order, signal nesting."""
    start = time.perf_counter()
    rng = np.random.default_rng(20260814)
    clauses = []

    round_trips = 0
    for _ in range(200):
        net = _random_network(rng)
        round_trips += parse_network(network_to_tntp(net)) == net
        table = _random_demand(rng)
        round_trips += parse_trips(demand_to_tntp(table)).entries == \
            pytest.approx(table.entries)
    clauses.append(("serialization_round_trip", round_trips == 400,
                    f"{round_trips}/400 round-trips exact"))

    instances = [(parse_network(MULTI_OD_NET), parse_trips(MULTI_OD_TRIPS)),
                 load_instance("diamond")]
    types = uniform_type_set(5)
    renewal = uniform_perturbation(5, 0.15)
    conserved = 0
    for case in range(1000):
        net, demand = instances[case % 2]
        lo = rng.uniform(0.0, 10.0, net.edge_count)
        signal = np.column_stack(
            [lo, lo + rng.uniform(0.0, 5.0, net.edge_count)])
        mix = sample_profile(renewal, rng, 1)[0]
        state = assign_per_pair(net, demand, signal, mix, types)
        ok = True
        for load, shares in zip(state.path_loads, state.group_shares):
            divergence = np.zeros(net.node_count + 1)
            np.add.at(divergence, net.srcs, shares)
            np.subtract.at(divergence, net.dsts, shares)
            expected = np.zeros(net.node_count + 1)
            expected[load.origin] += 1.0
            expected[load.dest] -= 1.0
            ok &= bool(np.allclose(divergence, expected, atol=1e-9))
        conserved += ok
    clauses.append(("flow_conservation_1000", conserved == 1000,
                    f"{conserved}/1000 random signals conserve flow "
                    "group-by-group at every node"))

    diamond_net, _ = load_instance("diamond")
    cap_ok = 0
    for _ in range(1000):
        flows = rng.uniform(0.0, 60.0, diamond_net.edge_count)
        capped = edge_costs(diamond_net, flows, capped=True)
        uncapped = edge_costs(diamond_net, flows, capped=False)
        cap_ok += bool(np.all(capped <= uncapped + 1e-12))
    clauses.append(("capped_le_uncapped", cap_ok == 1000,
                    f"{cap_ok}/1000 random flow vectors keep "
                    "capped <= uncapped"))

    nested = equivalent = checked_nest = checked_eq = 0
    for _ in range(200):
        r = int(rng.integers(1, 6))
        m_count = int(rng.integers(1, 4))
        # each clause compares two histories fed identical costs
        window_hist = CostHistory(m_count, extreme_scheme(r))
        full_hist = CostHistory(m_count, full_extreme_scheme())
        one_hist = CostHistory(m_count, extreme_scheme(1))
        now_hist = CostHistory(m_count, now_scheme())
        hists = (window_hist, full_hist, one_hist, now_hist)
        for t in range(25):
            costs = rng.uniform(0.0, 10.0, m_count)
            for hist in hists:
                hist.record_period(costs)
            if window_hist.periods >= 2:
                sig_r = emit_signal(window_hist)
                sig_full = emit_signal(full_hist)
                checked_nest += 1
                nested += bool(
                    np.all(sig_full[:, 0] <= sig_r[:, 0] + 1e-12)
                    and np.all(sig_r[:, 1] <= sig_full[:, 1] + 1e-12))
            if now_hist.periods >= 2:
                sig_one = emit_signal(one_hist)
                sig_now = emit_signal(now_hist)
                checked_eq += 1
                equivalent += bool(np.array_equal(sig_one, sig_now))
    clauses.append(("window_nested_in_full",
                    checked_nest > 0 and nested == checked_nest,
                    f"{nested}/{checked_nest} emissions nest the r-window "
                    "inside the full envelope"))
    clauses.append(("extreme1_equals_now",
                    checked_eq > 0 and equivalent == checked_eq,
                    f"{equivalent}/{checked_eq} post-warm-up emissions "
                    "identical"))

    elapsed = time.perf_counter() - start
    clauses.append(("runtime", elapsed < 30.0, f"{elapsed:.3f}s < 30s"))
    _report("a9", clauses)
