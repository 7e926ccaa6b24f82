"""Signal-to-flow mapping: demand loading over each type's tight
routes."""

import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intervalsig import assignment, engine
from intervalsig.assignment import (
    BATCH_CROSSOVER,
    ROW_DAG_CACHE,
    TIE_TOL,
    TIE_TOL_ABS,
    LoadPlan,
    ValidationError,
    _dags,
    _load_batched,
    _distances,
    _kept_edges,
    _load_per_row,
    assign,
)
from intervalsig.network import (
    DemandTable,
    NoPathError,
    dijkstra,
    parse_network,
    parse_trips,
)
from intervalsig.costs import edge_costs
from intervalsig.engine import RunConfig, run
from intervalsig.instances import load_instance
from intervalsig.population import TypeSet, uniform_type_set
from intervalsig.signaling import (
    edge_weight, extreme_scheme, mean_scheme, now_scheme)

from .oracle import assign_per_pair, dijkstra as frozen_dijkstra
from .test_network import DIAMOND_NET, DIAMOND_TRIPS

FIVE_TYPES = uniform_type_set(5)
FLAT = np.full(5, 0.2)


def diamond():
    return parse_network(DIAMOND_NET)


def diamond_demand():
    return parse_trips(DIAMOND_TRIPS)


def batched_plan(net, demand, types=FIVE_TYPES):
    """A plan that holds the batched loader's layout and memo whatever
    its size: ``BATCH_CROSSOVER`` is 0 while it is built.  A context,
    not the ``monkeypatch`` fixture, so Hypothesis examples can call
    it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assignment, "BATCH_CROSSOVER", 0)
        return LoadPlan(net, demand, types)


def memo_of(plan):
    """The plan's memo, None for a per-row plan, which holds none."""
    return vars(plan).get("_memo")


def interval_signal(rows):
    sig = np.array(rows, dtype=float)
    assert np.all(sig[:, 0] <= sig[:, 1])
    return sig


class TestAssign:
    def test_warm_up_signal_splits_equally(self):
        net = diamond()
        flows = assign(LoadPlan(net, diamond_demand(), FIVE_TYPES),
                       np.zeros((5, 2)), FLAT)
        assert flows == pytest.approx([30.0, 15.0, 15.0, 15.0, 15.0])

    def test_lopsided_signal_routes_everyone_one_way(self):
        net = diamond()
        sig = interval_signal(
            [[0.0, 0.0], [1.0, 1.0], [5.0, 9.0], [0.0, 0.0], [0.0, 0.0]])
        flows = assign(LoadPlan(net, diamond_demand(), FIVE_TYPES), sig,
                       FLAT)
        assert flows == pytest.approx([30.0, 30.0, 0.0, 30.0, 0.0])

    def test_zero_demand_zero_flows(self):
        net = diamond()
        empty = parse_trips("Origin 1\n")
        plan = LoadPlan(net, empty, FIVE_TYPES)
        assert plan.row_count == 0
        flows = assign(plan, np.zeros((5, 2)), FLAT)
        assert flows.tobytes() == np.zeros(5).tobytes()
        state = assign_per_pair(net, empty, np.zeros((5, 2)), FLAT,
                                FIVE_TYPES)
        assert state.path_loads == []

    def test_path_loads_cover_demand_by_type(self):
        net = diamond()
        state = assign_per_pair(net, diamond_demand(), np.zeros((5, 2)),
                                FLAT, FIVE_TYPES)
        assert len(state.path_loads) == 5
        for load in state.path_loads:
            assert (load.origin, load.dest) == (1, 5)
            assert load.agents == pytest.approx(6.0)
            assert load.cost == pytest.approx(0.0)
        total = sum(load.agents for load in state.path_loads)
        assert total == pytest.approx(30.0)

    def test_reported_cost_is_weighted_shortest_distance(self):
        net = diamond()
        sig = interval_signal(
            [[6.0, 6.0], [2.0, 4.0], [2.0, 4.0], [1.0, 1.0], [1.0, 1.0]])
        state = assign_per_pair(net, diamond_demand(), sig, FLAT, FIVE_TYPES)
        by_omega = {load.omega: load.cost for load in state.path_loads}
        assert by_omega[0.0] == pytest.approx(11.0)   # 6 + 4 + 1
        assert by_omega[1.0] == pytest.approx(9.0)    # 6 + 2 + 1
        assert by_omega[0.5] == pytest.approx(10.0)

    def test_demand_scale_multiplies_flows(self):
        net = diamond()
        base = assign(LoadPlan(net, diamond_demand(), FIVE_TYPES),
                      np.zeros((5, 2)), FLAT)
        twice = DemandTable({pair: 2.0 * flow for pair, flow
                             in diamond_demand().entries.items()})
        doubled = assign(LoadPlan(net, twice, FIVE_TYPES), np.zeros((5, 2)),
                         FLAT)
        assert doubled == pytest.approx(2 * base)

    def test_unreachable_pair_is_identified(self):
        # the plan checks every pair once, before any signal is loaded
        net = parse_network("1 2 5 0 1 1 1 0 0 1 ;\n4 3 5 0 1 1 1 0 0 1 ;\n")
        demand = parse_trips("Origin 1\n3 : 4;\n")
        with pytest.raises(NoPathError, match="3"):
            LoadPlan(net, demand, FIVE_TYPES)

    @pytest.mark.parametrize("loader", [assign_per_pair])
    @pytest.mark.parametrize("pair", [(1, 9), (0, 5)])
    def test_demand_node_outside_network_rejected(self, loader, pair):
        demand = DemandTable({pair: 5.0})
        with pytest.raises(ValidationError,
                           match=rf"\({pair[0]}, {pair[1]}\)"):
            loader(diamond(), demand, np.zeros((5, 2)), FLAT, FIVE_TYPES)

    def test_profile_must_match_type_set(self):
        # two shares for five types, and blocks of one and two periods
        plan = LoadPlan(diamond(), diamond_demand(), FIVE_TYPES)
        for shares in ([0.5, 0.5], np.full((1, 5), 0.2),
                       np.full((2, 5), 0.1)):
            with pytest.raises(ValidationError):
                assign(plan, np.zeros((5, 2)), shares)

    def test_signal_must_cover_every_edge(self):
        with pytest.raises(ValidationError, match=r"\(4, 2\)"):
            assign(LoadPlan(diamond(), diamond_demand(), FIVE_TYPES),
                   np.zeros((4, 2)), FLAT)

    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan])
    def test_negative_or_nonfinite_signal_rejected(self, bad):
        # on a batched plan and on a per-row one, before any DAG is built:
        # the plan is left as construction made it
        for instance, batched in (("sioux-falls", True), ("diamond", False)):
            net, demand = load_instance(instance)
            plan = LoadPlan(net, demand, FIVE_TYPES)
            assert plan.batched is batched
            memo, built = memo_of(plan), row_dag_snapshot(plan)
            # only a batched plan holds a memo
            assert (memo is not None) is batched
            signal = np.tile(net.free_flows[:, None], 2)
            signal[3, 1] = bad
            with pytest.raises(ValidationError, match="finite and >= 0"):
                assign(plan, signal, FLAT)
            assert memo_of(plan) is memo
            assert row_dag_snapshot(plan) == built

    @pytest.mark.parametrize("shares", [
        [np.nan, 0.25, 0.25, 0.25, 0.25], [-1.0, 1.0, 0.5, 0.25, 0.25],
        [0.25, 0.25, np.inf, 0.25, 0.25]])
    def test_negative_or_nonfinite_shares_rejected(self, shares):
        # without the check a NaN share loads NaN flows and a negative
        # one finite flows, on either kind of plan
        for instance, batched in (("sioux-falls", True), ("diamond", False)):
            net, demand = load_instance(instance)
            plan = LoadPlan(net, demand, FIVE_TYPES)
            assert plan.batched is batched
            with pytest.raises(ValidationError, match="finite and >= 0"):
                assign(plan, np.zeros((net.edge_count, 2)), shares)

    def test_group_shares_reproduce_edge_flows(self):
        net = diamond()
        sig = interval_signal(
            [[1.0, 2.0], [0.5, 3.0], [0.5, 2.5], [0.0, 1.0], [0.2, 0.8]])
        state = assign_per_pair(net, diamond_demand(), sig, FLAT, FIVE_TYPES)
        agents = np.array([load.agents for load in state.path_loads])
        rebuilt = agents @ state.group_shares
        assert rebuilt == pytest.approx(state.edge_flows)


def random_interval_signal(draw, edges):
    lows = draw(st.lists(st.floats(0, 50, allow_nan=False),
                         min_size=edges, max_size=edges))
    spans = draw(st.lists(st.floats(0, 50, allow_nan=False),
                          min_size=edges, max_size=edges))
    sig = np.empty((edges, 2))
    sig[:, 0] = lows
    sig[:, 1] = np.array(lows) + np.array(spans)
    return sig


@st.composite
def interval_signals(draw, edges):
    """``random_interval_signal`` as a strategy, so a test can pin draws
    with ``@example``."""
    return random_interval_signal(draw, edges)


# Lows of 0 and a tiny upper endpoint on the diamond's edge 2 -> 4:
# unshifted, every type but the optimist avoids that route; shifted by
# 1.0 the endpoint rounds away and all five types tie.
TINY_SPAN_SIGNAL = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 5.43e-28],
                             [0.0, 0.0], [0.0, 0.0]])


MULTI_OD_NET = """\
<END OF METADATA>
1 2 10 0 1 1 2 0 0 1 ;
2 3 10 0 1 1 2 0 0 1 ;
1 3 10 0 2 1 2 0 0 1 ;
3 4 10 0 1 1 2 0 0 1 ;
2 4 10 0 3 1 2 0 0 1 ;
"""

MULTI_OD_TRIPS = "Origin 1\n3 : 6; 4 : 9;\nOrigin 2\n4 : 5;\n"


class TestConservationProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_flow_conserved_at_every_node(self, data):
        net = parse_network(MULTI_OD_NET)
        demand = parse_trips(MULTI_OD_TRIPS)
        sig = random_interval_signal(data.draw, len(net.edges))
        flows = assign(LoadPlan(net, demand, FIVE_TYPES), sig, FLAT)
        balance = np.zeros(net.node_count + 1)
        for e in net.edges:
            balance[e.src] -= flows[e.id]
            balance[e.dst] += flows[e.id]
        expected = np.zeros(net.node_count + 1)
        for (o, d), flow in demand.entries.items():
            expected[o] -= flow
            expected[d] += flow
        assert balance == pytest.approx(expected, abs=1e-9)
        state = assign_per_pair(net, demand, sig, FLAT, FIVE_TYPES)
        total_loaded = sum(l.agents for l in state.path_loads)
        assert total_loaded == pytest.approx(demand.total)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_positive_scaling_leaves_flows_unchanged(self, data):
        net = diamond()
        demand = diamond_demand()
        sig = random_interval_signal(data.draw, 5)
        scale = data.draw(st.floats(0.01, 100, allow_nan=False))
        plan = LoadPlan(net, demand, FIVE_TYPES)
        a = assign(plan, sig, FLAT)
        b = assign(plan, sig * scale, FLAT)
        assert b == pytest.approx(a, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(interval_signals(5), st.floats(0, 50, allow_nan=False))
    @example(TINY_SPAN_SIGNAL, 1.0)
    def test_constant_shift_invariant_on_equal_hop_routes(self, sig, shift):
        # Both diamond routes have three edges, so adding a constant to
        # every interval cannot reorder them.  The float route sums can
        # still change which routes tie: a tiny difference rounds away
        # and the relative tie tolerance grows with the shift.  Where the
        # per-pair oracle's tight routes move, the shifted flows must
        # still be the oracle's.
        net = diamond()
        demand = diamond_demand()
        plan = LoadPlan(net, demand, FIVE_TYPES)
        a = assign(plan, sig, FLAT)
        b = assign(plan, sig + shift, FLAT)
        tight = [assign_per_pair(net, demand, s, FLAT, FIVE_TYPES)
                 .group_shares > 0 for s in (sig, sig + shift)]
        if np.array_equal(*tight):
            assert b == pytest.approx(a, abs=1e-9)
        else:
            assert b == pytest.approx(
                oracle_flows(net, demand, sig + shift, FLAT, FIVE_TYPES),
                abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_raising_one_route_never_attracts_load(self, data):
        net = diamond()
        demand = diamond_demand()
        sig = random_interval_signal(data.draw, 5)
        bump = data.draw(st.floats(0, 20, allow_nan=False))
        raised = sig.copy()
        raised[2] += bump   # second route's middle edge
        raised[4] += bump   # second route's closing edge
        plan = LoadPlan(net, demand, FIVE_TYPES)
        before = assign(plan, sig, FLAT)
        after = assign(plan, raised, FLAT)
        assert after[2] <= before[2] + 1e-9


def oracle_flows(net, demand, signal, shares, types):
    """Edge flows rebuilt from the per-pair oracle's groups."""
    state = assign_per_pair(net, demand, signal, shares, types)
    agents = np.array([load.agents for load in state.path_loads])
    return agents @ state.group_shares


@st.composite
def small_cases(draw):
    """A random network with a spine 1 -> 2 -> ... -> n, so every pair
    (i, j) with i < j is connected, extra random edges (parallel and
    backward ones included, which close cycles), random demand on
    forward pairs, a random type mix and one of three signal kinds:
    all zero (the warm-up signal), small integers (exact ties and
    zero-weight plateaus, where Dijkstra's finalization order decides
    which edges are kept), or continuous."""
    n = draw(st.integers(2, 7))
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=12))
    links = [(i, i + 1) for i in range(1, n)] + \
        [(u, v) for u, v in extra if u != v]
    links = draw(st.permutations(links))
    net = parse_network("".join(f"{u} {v} 10 0 1 1 2 0 0 1 ;\n"
                                for u, v in links))
    pairs = draw(st.lists(
        st.tuples(st.integers(1, n - 1), st.integers(1, n - 1))
        .map(lambda p: (min(p), max(p) + 1)), min_size=1, max_size=8))
    demand = DemandTable({pair: float(draw(st.integers(1, 50)))
                          for pair in pairs})
    mix = np.array(draw(st.lists(st.integers(0, 4), min_size=5,
                                 max_size=5)), dtype=float) + 0.5
    shares = mix / mix.sum()
    kind = draw(st.sampled_from(["zero", "integer", "continuous"]))
    m = len(links)
    if kind == "zero":
        signal = np.zeros((m, 2))
    elif kind == "integer":
        lows = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        spans = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        signal = np.column_stack([lows, np.add(lows, spans)]).astype(float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        lows = rng.uniform(0.0, 10.0, m)
        signal = np.column_stack([lows, lows + rng.uniform(0.0, 5.0, m)])
    return net, demand, signal, shares


def grid_instance(n):
    """An ``n`` x ``n`` grid of two-way BPR links (free-flow times 2 to 4
    by a fixed pattern, so routes tie now and then) with demand from the
    four corners to every other boundary node."""
    def node(row, col):
        return row * n + col + 1

    links = []
    for row in range(n):
        for col in range(n):
            for down, right in ((1, 0), (0, 1)):
                if row + down < n and col + right < n:
                    u, v = node(row, col), node(row + down, col + right)
                    links += [(u, v), (v, u)]
    net = parse_network("".join(
        f"{u} {v} 50 0 {1 + (3 * u + 5 * v) % 4} 0.15 4 0 0 1 ;\n"
        for u, v in links))
    boundary = [node(row, col) for row in range(n) for col in range(n)
                if row in (0, n - 1) or col in (0, n - 1)]
    corners = [node(0, 0), node(0, n - 1), node(n - 1, 0), node(n - 1, n - 1)]
    demand = DemandTable({(o, d): float(5 + (o * d) % 7)
                          for o in corners for d in boundary if d != o})
    return net, demand


class TestAgainstPerPairOracle:
    """``assign`` loads per origin; the per-pair oracle splits each pair
    on its own.  Both must give the same edge flows to rel 1e-12."""

    @settings(max_examples=300, deadline=None)
    @given(small_cases())
    def test_random_networks_match_oracle(self, case):
        net, demand, signal, shares = case
        np.testing.assert_allclose(
            assign(LoadPlan(net, demand, FIVE_TYPES), signal, shares),
            oracle_flows(net, demand, signal, shares, FIVE_TYPES),
            rtol=1e-12, atol=0.0)

    def test_zero_signal_on_sioux_falls_matches_oracle(self):
        net, demand = load_instance("sioux-falls")
        signal = np.zeros((net.edge_count, 2))
        np.testing.assert_allclose(
            assign(LoadPlan(net, demand, FIVE_TYPES), signal, FLAT),
            oracle_flows(net, demand, signal, FLAT, FIVE_TYPES),
            rtol=1e-12, atol=0.0)

    def test_pinned_sioux_falls_trajectory_matches_oracle(self):
        records = run(RunConfig(scheme=extreme_scheme(20), horizon=30,
                                seed=0, instance="sioux-falls"))
        net, demand = load_instance("sioux-falls")
        for rec in records:
            state = assign_per_pair(net, demand, rec.signal, rec.weights,
                                    FIVE_TYPES)
            agents = np.array([load.agents for load in state.path_loads])
            flows = agents @ state.group_shares
            np.testing.assert_allclose(rec.flows, flows, rtol=1e-12,
                                       atol=0.0)
            costs = edge_costs(net, flows, capped=True)
            social = float(agents @ (state.group_shares @ costs))
            assert rec.social_cost == pytest.approx(social, rel=1e-12,
                                                    abs=0.0)


class TestLoadPlan:
    @pytest.mark.parametrize("pair", [(1, 9), (0, 5)])
    def test_demand_node_outside_network_rejected(self, pair):
        with pytest.raises(ValidationError,
                           match=rf"\({pair[0]}, {pair[1]}\)"):
            LoadPlan(diamond(), DemandTable({pair: 5.0}), FIVE_TYPES)

    def test_connected_instances_pass(self):
        LoadPlan(parse_network(DIAMOND_NET), parse_trips(DIAMOND_TRIPS),
                 FIVE_TYPES)

    def test_edges_are_followed_forwards_only(self):
        net = parse_network(DIAMOND_NET)
        with pytest.raises(NoPathError,
                           match="destination 1 unreachable from origin 5"):
            LoadPlan(net, DemandTable({(1, 5): 3.0, (5, 1): 2.0}),
                     FIVE_TYPES)

    def test_types_must_be_a_type_set(self):
        # a bare tuple of weights used to fail later, reading ``omegas``
        with pytest.raises(ValidationError, match="types must be a TypeSet"):
            LoadPlan(diamond(), diamond_demand(), (0.5,))

    def test_rows_are_types_times_origins(self):
        net, demand = load_instance("sioux-falls")
        plan = LoadPlan(net, demand, FIVE_TYPES)
        assert plan.row_count == 5 * 24
        assert list(plan.by_origin) == list(range(1, 25))

    def test_batches_from_the_crossover(self):
        # the diamond has 5 rows x 5 edges, Sioux Falls 120 x 76
        assert 25 < BATCH_CROSSOVER <= 120 * 76
        assert not LoadPlan(diamond(), diamond_demand(), FIVE_TYPES).batched
        net, demand = load_instance("sioux-falls")
        assert LoadPlan(net, demand, FIVE_TYPES).batched


def assert_rows_are_frozen_dijkstra(plan, signal, dist):
    """``dist``, node-major like ``_distances``' result, holds every
    row's frozen-Dijkstra distances under ``signal``, bit for bit."""
    weights = np.array([edge_weight(signal, omega)
                        for omega in plan.types.omegas])
    origins = list(plan.by_origin)
    for row in range(plan.row_count):
        kind, at = divmod(row, len(origins))
        want, _ = frozen_dijkstra(plan.net, weights[kind], origins[at])
        assert dist[:, row].tobytes() == want.tobytes(), row


def plateau_rows(plan, signal):
    """The rows with a tight edge between equal finite distances, by the
    frozen Dijkstra: the rows whose kept edges the batched loader takes
    from ``_row_dag``."""
    weights = [edge_weight(signal, omega) for omega in plan.types.omegas]
    origins = list(plan.by_origin)
    rows = []
    for row in range(plan.row_count):
        kind, at = divmod(row, len(origins))
        dist, _ = frozen_dijkstra(plan.net, weights[kind], origins[at])
        tail, head = dist[plan.net.srcs], dist[plan.net.dsts]
        tight = (tail + weights[kind]
                 <= head * (1.0 + TIE_TOL) + TIE_TOL_ABS)
        if (tight & (head == tail) & (tail < np.inf)).any():
            rows.append(row)
    return rows


def cold_start(layout):
    """The relaxation's reference start: 0.0 at the origins, inf
    elsewhere."""
    return np.where(layout.start > 0.0, 0.0, np.inf)


def assert_distances_match_frozen_dijkstra(plan, signal):
    # the cold start, from inf
    layout = plan._layout
    by_edge = edge_weight(signal[None], plan.omegas).T[:, layout.row_type]
    assert_rows_are_frozen_dijkstra(
        plan, signal, _distances(layout, by_edge, cold_start(layout)))


def count_dag_builds(monkeypatch):
    """The kept-edge masks the batched loader builds DAGs from, from now
    on."""
    builds = []
    original = assignment._dags

    def counted(plan, kept):
        builds.append(kept.tobytes())
        return original(plan, kept)

    monkeypatch.setattr(assignment, "_dags", counted)
    return builds


def sequential_sum(rows):
    total = rows[0].tolist()
    for row in rows[1:]:
        total = [a + b for a, b in zip(total, row.tolist())]
    return np.array(total)


class TestBatchedMatchesPerRow:
    """``_load_batched`` gives the per-row loop's flows bit for bit.  The
    crossover sends small networks to the per-row loop, so these tests
    build their batched side with ``batched_plan`` and call both loaders
    directly, each on its own plan: the reference never reads a DAG that
    the batched side cached."""

    def test_random_networks(self):
        # each draw also checks the batched distances against the frozen
        # Dijkstra (see TestRelaxationMatchesFrozenDijkstra)
        rows = {"batched": 0, "plateau": 0}

        @settings(max_examples=1000, deadline=None)
        @given(small_cases())
        def check(case):
            net, demand, signal, shares = case
            plan = batched_plan(net, demand)
            assert_distances_match_frozen_dijkstra(plan, signal)
            want = _load_per_row(LoadPlan(net, demand, FIVE_TYPES), signal,
                                 shares)
            got = _load_batched(plan, signal, shares)
            assert got.tobytes() == want.tobytes()
            plateau = len(plateau_rows(plan, signal))
            rows["plateau"] += plateau
            rows["batched"] += plan.row_count - plateau

        check()
        assert rows["batched"] > 0 and rows["plateau"] > 0

    def test_pinned_sioux_falls_trajectory(self):
        # periods 1 and 2 read the zero warm-up signal, whose rows are
        # all plateau rows; later signals repeat now and then
        records = run(RunConfig(scheme=extreme_scheme(20), horizon=30,
                                seed=0, instance="sioux-falls"))
        net, demand = load_instance("sioux-falls")
        plan = LoadPlan(net, demand, FIVE_TYPES)
        for rec in records:
            want = _load_per_row(plan, rec.signal, rec.weights)
            assert rec.flows.tobytes() == want.tobytes()
            # a row of the run's own column, no view into a loader buffer
            assert rec.flows.base is records.flows
        assert records.flows.flags.owndata

    def test_memo_hit_matches_fresh_plan(self):
        records = run(RunConfig(scheme=extreme_scheme(20), horizon=12,
                                seed=3, instance="sioux-falls"))
        net, demand = load_instance("sioux-falls")
        plan = LoadPlan(net, demand, FIVE_TYPES)
        other = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        for rec in records[2:]:
            assign(plan, rec.signal, FLAT)
            dags = plan._memo
            again = assign(plan, rec.signal.copy(), other)
            assert plan._memo is dags
            fresh = assign(LoadPlan(net, demand, FIVE_TYPES), rec.signal,
                           other)
            assert again.tobytes() == fresh.tobytes()

    def test_signal_that_keeps_the_kept_edges_reuses_the_dags(
            self, monkeypatch):
        builds = count_dag_builds(monkeypatch)
        net, demand = load_instance("sioux-falls")
        plan = LoadPlan(net, demand, FIVE_TYPES)
        signal = np.tile(net.free_flows[:, None], 2)
        assign(plan, signal, FLAT)
        kept = _kept_edges(plan, signal)
        assert not plateau_rows(plan, signal)
        slack = ~kept[:-1].any(axis=1)
        assert slack.any()
        signal[slack] *= 1.5
        flows = assign(plan, signal, FLAT)
        # the construction's zero build and the first signal's
        assert len(builds) == 2
        assert plan._memo.key == signal.tobytes()
        want = _load_per_row(LoadPlan(net, demand, FIVE_TYPES), signal, FLAT)
        assert flows.tobytes() == want.tobytes()

    def test_signal_that_changes_a_kept_edge_rebuilds(self, monkeypatch):
        builds = count_dag_builds(monkeypatch)
        net, demand = load_instance("sioux-falls")
        plan = LoadPlan(net, demand, FIVE_TYPES)
        signal = np.tile(net.free_flows[:, None], 2)
        assign(plan, signal, FLAT)
        kept = _kept_edges(plan, signal)
        edge = int(np.flatnonzero(kept[:-1].any(axis=1))[0])
        signal[edge] += 100.0
        flows = assign(plan, signal, FLAT)
        # the construction's zero build and one per signal
        assert len(builds) == 3
        assert _kept_edges(plan, signal).tobytes() != kept.tobytes()
        want = _load_per_row(LoadPlan(net, demand, FIVE_TYPES), signal, FLAT)
        assert flows.tobytes() == want.tobytes()

    def test_memo_carried_across_signals(self, monkeypatch):
        # one plan loads a short run of signals: the case's own, again
        # with every edge that no row keeps raised (the kept edges
        # usually stay), the same bytes, a new signal, and the first
        builds = count_dag_builds(monkeypatch)
        hits = {"kept": 0, "rebuilt": 0}

        @settings(max_examples=150, deadline=None)
        @given(small_cases(), st.integers(0, 2**32 - 1))
        def check(case, seed):
            net, demand, signal, shares = case
            plan = batched_plan(net, demand)
            kept = _kept_edges(batched_plan(net, demand), signal)
            raised = signal.copy()
            raised[~kept[:-1].any(axis=1)] += 1.0
            rng = np.random.default_rng(seed)
            lows = rng.uniform(0.0, 10.0, net.edge_count)
            other = np.column_stack([lows, lows + rng.uniform(0.0, 5.0,
                                                            net.edge_count)])
            last = None
            for period in (signal, raised, raised.copy(), other, signal):
                # built before counting: a case at or above the
                # crossover builds the zero signal's DAGs
                reference = LoadPlan(net, demand, FIVE_TYPES)
                before = len(builds)
                got = _load_batched(plan, period, shares)
                want = _load_per_row(reference, period, shares)
                assert got.tobytes() == want.tobytes()
                if last is not None and period.tobytes() != last:
                    key = "kept" if len(builds) == before else "rebuilt"
                    hits[key] += 1
                last = period.tobytes()

        check()
        assert hits["kept"] > 0 and hits["rebuilt"] > 0

    def test_grid_warm_up_and_after(self, monkeypatch):
        # one plan through the zero warm-up signal (every row a plateau
        # row), free-flow intervals, the same with every edge that no
        # row keeps raised, congested costs, and back
        net, demand = grid_instance(10)
        reference = LoadPlan(net, demand, FIVE_TYPES)
        zero = np.zeros((net.edge_count, 2))
        free = np.column_stack([net.free_flows, 1.5 * net.free_flows])
        kept = _kept_edges(reference, free)
        raised = free.copy()
        raised[~kept[:-1].any(axis=1)] *= 2.0
        builds = count_dag_builds(monkeypatch)
        plan = LoadPlan(net, demand, FIVE_TYPES)
        assert plan.batched
        depths = []
        flows = None
        for period, signal in enumerate([zero, free, raised, None, free,
                                         zero]):
            if signal is None:
                costs = edge_costs(net, flows, capped=True)
                signal = np.column_stack([costs, 1.2 * costs])
            flows = _load_batched(plan, signal, FLAT)
            want = _load_per_row(reference, signal, FLAT)
            assert flows.tobytes() == want.tobytes(), period
            depths.append(len(plan._memo.levels))
            if period == 0:
                # the construction's zero build serves it
                assert len(builds) == 1
                assert (len(plateau_rows(plan, signal))
                        == plan.row_count)
        # the construction's, then ``free``, the costs, ``free`` and
        # ``zero``: ``raised`` kept ``free``'s DAGs
        assert len(builds) == 5
        assert min(depths[1:-1]) >= 15

    def test_path_counts_above_2_53(self):
        # Whole numbers stop being exact in float above 2**53, so the two
        # loaders' path counts, added in different orders, could round
        # apart: on a 30 x 30 grid under the zero warm-up signal they do
        # not, and the flows agree bit for bit
        net, demand = grid_instance(30)
        zero = np.zeros((net.edge_count, 2))
        reference = LoadPlan(net, demand, FIVE_TYPES)
        want = _load_per_row(reference, zero, FLAT)
        got = _load_batched(LoadPlan(net, demand, FIVE_TYPES), zero, FLAT)
        assert got.tobytes() == want.tobytes()
        assert max(max(count) for by_origin in reference._row_dags.values()
                   for _, count in by_origin.values()) > 2**53

    def test_demand_from_a_node_to_itself_loads_no_edge(self):
        net, demand = load_instance("sioux-falls")
        signal = np.tile(net.free_flows[:, None], 2)
        want = _load_per_row(LoadPlan(net, demand, FIVE_TYPES), signal, FLAT)
        demand = DemandTable(demand.entries | {(3, 3): 500.0})
        got = _load_batched(LoadPlan(net, demand, FIVE_TYPES), signal, FLAT)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("chain", [1, 2])
    def test_lone_levels_add_in_order(self, chain):
        # a chain 1 -> 2 (-> 3) of slots alone on their levels, the last
        # fanning out to ten destinations: its eleven onward terms give
        # other bits when numpy adds them pairwise, while in order each
        # 1.0 is lost against the leading 1e16
        fan = chain + 1
        heads = range(fan + 1, fan + 11)
        net = parse_network("".join(
            f"{u} {v} 10 0 1 1 2 0 0 1 ;\n"
            for u, v in [*((u, u + 1) for u in range(1, fan)),
                         *((fan, v) for v in heads)]))
        demand = DemandTable({(1, v): 1.0 for v in heads}
                             | {(1, heads[-1]): 1e16})
        types = TypeSet((0.5,))
        signal = np.ones((net.edge_count, 2))
        plan = batched_plan(net, demand, types)
        got = _load_batched(plan, signal, np.ones(1))
        assert len(plan._memo.levels) == chain + 1
        want = _load_per_row(LoadPlan(net, demand, types), signal,
                             np.ones(1))
        assert got.tobytes() == want.tobytes()
        assert got[:chain].tolist() == [1e16] * chain

    def test_axis0_sum_adds_rows_in_order(self):
        # the flows rely on it: a pairwise or reordered sum of these
        # columns gives other bits
        rng = np.random.default_rng(5)
        terms = rng.uniform(0.0, 1.0, (120, 9)) * 10.0 ** rng.integers(
            -8, 9, (120, 9))
        terms[0] = 1.0
        terms[1:40, 0] = 1e-16
        want = sequential_sum(terms).tobytes()
        assert terms.sum(axis=0).tobytes() == want
        out = np.zeros(10)
        terms.sum(axis=0, out=out[:9])
        assert out[:9].tobytes() == want
        # so does a run of two columns out of a wider block
        terms[:, :2].sum(axis=0, out=out[:2])
        assert out[:2].tobytes() == sequential_sum(terms[:, :2]).tobytes()
        # the first column is order-sensitive: in order, each 1e-16 is
        # lost against the leading 1.0
        assert sequential_sum(terms[:40])[0] == 1.0
        assert math.fsum(terms[:40, 0]) > 1.0

    def test_add_at_adds_repeated_indices_in_order(self):
        # the onward pass relies on it: each node's terms are added in
        # the per-row loop's order, which the reverse order would not give
        a = np.zeros(2)
        np.add.at(a, [0, 0, 0, 1], [1.0, 1e16, -1e16, 2.0])
        assert a.tolist() == [0.0, 2.0]
        assert (-1e16 + 1e16) + 1.0 == 1.0      # the reverse order
        # so do slices of a longer index run, as one level of a DAG
        rng = np.random.default_rng(7)
        index = rng.integers(0, 5, 200)
        terms = rng.uniform(0.0, 1.0, 200) * 10.0 ** rng.integers(-8, 9, 200)
        got = np.zeros(5)
        np.add.at(got, index[50:150], terms[50:150])
        want = [0.0] * 5
        for at, term in zip(index[50:150].tolist(), terms[50:150].tolist()):
            want[at] += term
        assert got.tobytes() == np.array(want).tobytes()


def row_dag_snapshot(plan):
    """Copies of every cached row DAG's lists, by weight bytes and origin."""
    return {key: {origin: tuple(list(part) for part in dag)
                  for origin, dag in by_origin.items()}
            for key, by_origin in plan._row_dags.items()}


class TestRowDagCache:
    """The per-row loader builds each (weight vector, origin) DAG once
    and then reads it from the plan's cache, with the bytes a fresh plan
    gives."""

    def test_one_dijkstra_per_distinct_signal(self, monkeypatch):
        # under now every type reads the same weights, and the diamond
        # has one origin; the run builds the shared plan, whose
        # construction builds period 1's zero weights' DAG
        engine._instance_plan.cache_clear()
        calls = []
        original = assignment.dijkstra

        def counted(net, weights, source):
            calls.append(weights.tobytes())
            return original(net, weights, source)

        monkeypatch.setattr(assignment, "dijkstra", counted)
        records = run(RunConfig(scheme=now_scheme(), horizon=5, seed=0,
                                instance="diamond"))
        signals = {rec.signal.tobytes() for rec in records}
        assert len(calls) == len(set(calls)) == len(signals) < 5

    @pytest.mark.parametrize("scheme", [
        now_scheme(), mean_scheme(), extreme_scheme(5), extreme_scheme(10),
        extreme_scheme(20)], ids=lambda scheme: scheme.label())
    def test_cached_run_matches_fresh_plan_per_period(self, scheme):
        records = run(RunConfig(scheme=scheme, horizon=300, seed=0,
                                instance="diamond"))
        net, demand = load_instance("diamond")
        for rec in records:
            fresh = assign(LoadPlan(net, demand, FIVE_TYPES), rec.signal,
                           rec.weights)
            assert rec.flows.tobytes() == fresh.tobytes()

    def test_bounded_drops_the_oldest(self):
        plan = LoadPlan(diamond(), diamond_demand(), FIVE_TYPES)
        rng = np.random.default_rng(2)
        # the construction's zero weights come first
        keys = [np.zeros(5).tobytes()]
        assert list(plan._row_dags) == keys
        for _ in range(ROW_DAG_CACHE // 5 + 4):
            lows = rng.uniform(0.0, 10.0, 5)
            signal = np.column_stack([lows, lows + rng.uniform(1.0, 5.0, 5)])
            assign(plan, signal, FLAT)
            keys += [edge_weight(signal, omega).tobytes()
                     for omega in FIVE_TYPES.omegas]
            assert len(plan._row_dags) <= ROW_DAG_CACHE
        assert len(set(keys)) == len(keys) > ROW_DAG_CACHE
        assert list(plan._row_dags) == keys[-ROW_DAG_CACHE:]

    def test_loading_leaves_cached_dags_unchanged(self):
        plan = LoadPlan(diamond(), diamond_demand(), FIVE_TYPES)
        signal = interval_signal(
            [[1.0, 2.0], [0.5, 3.0], [0.5, 2.5], [0.0, 1.0], [0.2, 0.8]])
        first = assign(plan, signal, FLAT)
        dags = {key: dict(by_origin)
                for key, by_origin in plan._row_dags.items()}
        before = row_dag_snapshot(plan)
        other = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        assign(plan, signal, other)
        again = assign(plan, signal, FLAT)
        assert again.tobytes() == first.tobytes()
        assert row_dag_snapshot(plan) == before
        for key, by_origin in plan._row_dags.items():
            for origin, dag in by_origin.items():
                assert dag is dags[key][origin]

    def test_copy_owns_its_cache_and_memo(self):
        # a copy starts from the plan's memo and cache, and loading it,
        # evictions included, leaves the plan as it was
        rng = np.random.default_rng(3)
        for net, demand in ((diamond(), diamond_demand()),
                            load_instance("sioux-falls")):
            plan = LoadPlan(net, demand, FIVE_TYPES)
            signal = np.tile(net.free_flows[:, None], 2) * [1.0, 1.5]
            flows = assign(plan, signal, FLAT)
            memo, built = memo_of(plan), row_dag_snapshot(plan)
            # only a batched plan holds a memo
            assert (memo is not None) == plan.batched
            copied = copy.copy(plan)
            assert memo_of(copied) is memo
            assert row_dag_snapshot(copied) == built
            for key, by_origin in plan._row_dags.items():
                assert copied._row_dags[key] is not by_origin
            for _ in range(ROW_DAG_CACHE // 5 + 4):
                lows = rng.uniform(0.0, 10.0, net.edge_count)
                assign(copied, np.column_stack([lows, 1.5 * lows]), FLAT)
            # only the batched loader moves a memo on
            assert (memo_of(copied) is not memo) == plan.batched
            assert memo_of(plan) is memo
            assert row_dag_snapshot(plan) == built
            assert assign(copied, signal, FLAT).tobytes() == flows.tobytes()


def record_distances(monkeypatch):
    """Every ``_distances`` call from now on, as copies of its weights,
    of the bounds it starts from and of its result."""
    calls = []
    original = assignment._distances

    def recorded(layout, by_edge, dist):
        start = dist.copy()
        got = original(layout, by_edge, dist)
        calls.append((by_edge.copy(), start, got.copy()))
        return got

    monkeypatch.setattr(assignment, "_distances", recorded)
    return calls


def warm_branch(start, got):
    """Which way a warm ``_distances`` call went: its bounds were the
    distances already, or it relaxed from them."""
    return "exact" if got.tobytes() == start.tobytes() else "relaxed"


class TestWarmStart:
    """A batched plan starts the relaxation from its memo's route sums
    under the new weights, the zero signal's DAGs' on its first new
    signal; its distances stay the frozen Dijkstra's and the cold start's
    bit for bit."""

    def test_random_networks_across_signals(self, monkeypatch):
        # one plan loads a run of signals: the case's own (from the
        # construction's zero DAGs), again with every edge that no row
        # keeps raised (the bounds hold), a new continuous signal, the
        # zero warm-up signal (every row a plateau row), a new integer
        # one (ties and plateaus) and the first again
        calls = record_distances(monkeypatch)
        branches = {"exact": 0, "relaxed": 0}

        @settings(max_examples=150, deadline=None)
        @given(small_cases(), st.integers(0, 2**32 - 1))
        def check(case, seed):
            net, demand, signal, shares = case
            plan = batched_plan(net, demand)
            kept = _kept_edges(batched_plan(net, demand), signal)
            raised = signal.copy()
            raised[~kept[:-1].any(axis=1)] += 1.0
            rng = np.random.default_rng(seed)
            m = net.edge_count
            lows = rng.uniform(0.0, 10.0, m)
            other = np.column_stack([lows, lows + rng.uniform(0.0, 5.0, m)])
            lows = rng.integers(0, 3, m)
            ties = np.column_stack([lows, lows + rng.integers(0, 2, m)])
            calls.clear()
            periods = [signal, raised, other, np.zeros((m, 2)),
                       ties.astype(float), signal]
            for period in periods:
                before = len(calls)
                got = _load_batched(plan, period, shares)
                want = _load_per_row(LoadPlan(net, demand, FIVE_TYPES),
                                     period, shares)
                assert got.tobytes() == want.tobytes()
                for by_edge, start, dist in calls[before:]:
                    assert_rows_are_frozen_dijkstra(plan, period, dist)
                    cold = _distances(plan._layout, by_edge,
                                      cold_start(plan._layout))
                    assert dist.tobytes() == cold.tobytes()
                    branches[warm_branch(start, dist)] += 1

        check()
        assert branches["exact"] > 0 and branches["relaxed"] > 0

    def test_sioux_falls_trajectory_matches_cold_start(self, monkeypatch):
        # under extreme r = 5 most new signals relax from their bounds;
        # each one's distances are the cold start's
        calls = record_distances(monkeypatch)
        run(RunConfig(scheme=extreme_scheme(5), horizon=150, seed=0,
                      instance="sioux-falls"))
        net, demand = load_instance("sioux-falls")
        layout = LoadPlan(net, demand, FIVE_TYPES)._layout
        branches = {"exact": 0, "relaxed": 0}
        assert calls
        for by_edge, start, dist in calls:
            cold = _distances(layout, by_edge, cold_start(layout))
            assert dist.tobytes() == cold.tobytes()
            branches[warm_branch(start, dist)] += 1
        assert branches["exact"] > 0
        assert branches["relaxed"] > branches["exact"]


class TestZeroMemo:
    """A batched plan starts with the zero warm-up signal's DAGs as its
    memo: those ``_dags`` builds from the mask ``_kept_edges`` gives that
    signal from the cold start."""

    @staticmethod
    def cold_bounds(monkeypatch):
        """Make ``_kept_edges`` relax from the cold start, not from the
        memo's route sums; return the calls it makes."""
        calls = []

        def cold(layout, dags, by_edge):
            calls.append(dags)
            return cold_start(layout)

        monkeypatch.setattr(assignment, "_bounds", cold)
        return calls

    @staticmethod
    def assert_zero_memo(plan):
        zero = np.zeros((plan.net.edge_count, 2))
        memo = plan._memo
        kept = _kept_edges(plan, zero)
        want = _dags(plan, kept)
        assert memo.key == zero.tobytes()
        assert memo.kept_key == want.kept_key == kept.tobytes()
        assert memo.levels == want.levels
        for name in ("tail", "head", "kept_at", "tail_count", "entry_count"):
            got, built = getattr(memo, name), getattr(want, name)
            assert got.dtype == built.dtype, name
            assert got.tobytes() == built.tobytes(), name

    def test_sioux_falls_and_grid(self, monkeypatch):
        calls = self.cold_bounds(monkeypatch)
        for net, demand in (load_instance("sioux-falls"), grid_instance(10)):
            plan = LoadPlan(net, demand, FIVE_TYPES)
            assert plan.batched
            self.assert_zero_memo(plan)
        assert len(calls) == 2

    def test_random_networks(self, monkeypatch):
        # zero weights everywhere, parallel edges and zero-weight cycles
        calls = self.cold_bounds(monkeypatch)

        @settings(max_examples=200, deadline=None)
        @given(small_cases())
        def check(case):
            net, demand, _, _ = case
            self.assert_zero_memo(batched_plan(net, demand))

        check()
        assert calls


class TestRelaxationMatchesFrozenDijkstra:
    """The batched loader's min-plus distances are the frozen heapq
    Dijkstra's, bit for bit, on every row; on random networks
    ``TestBatchedMatchesPerRow.test_random_networks`` checks this too."""

    def test_sioux_falls(self):
        net, demand = load_instance("sioux-falls")
        plan = LoadPlan(net, demand, FIVE_TYPES)
        rng = np.random.default_rng(11)
        assert_distances_match_frozen_dijkstra(
            plan, np.zeros((net.edge_count, 2)))
        for _ in range(3):
            lows = rng.uniform(0.0, 10.0, net.edge_count)
            assert_distances_match_frozen_dijkstra(plan, np.column_stack(
                [lows, lows + rng.uniform(0.0, 5.0, net.edge_count)]))


class TestDijkstraMatchesFrozenCopy:
    """``network.dijkstra`` returns the oracle's frozen copy's distances
    and finalization order bit for bit, from every source, and the
    reached nodes in that order: the loader walks the nodes in that
    order and selects tight edges by the distances and ranks, so a
    faster Dijkstra must keep all three."""

    @staticmethod
    def assert_same(net, weights):
        for source in range(1, net.node_count + 1):
            dist, order, finalized = dijkstra(net, weights, source)
            want_dist, want_order = frozen_dijkstra(net, weights, source)
            assert np.array(dist).tobytes() == want_dist.tobytes()
            assert order == want_order.tolist()
            unreached = int((want_order < 0).sum())
            assert finalized == \
                np.argsort(want_order, kind="stable")[unreached:].tolist()

    @settings(max_examples=200, deadline=None)
    @given(small_cases())
    def test_random_networks(self, case):
        net, _, signal, _ = case
        for omega in FIVE_TYPES.omegas:
            self.assert_same(net, edge_weight(signal, omega))

    def test_sioux_falls_zero_and_random_weights(self):
        net, _ = load_instance("sioux-falls")
        self.assert_same(net, np.zeros(net.edge_count))
        rng = np.random.default_rng(7)
        for _ in range(5):
            self.assert_same(net, rng.uniform(0.0, 10.0, net.edge_count))
