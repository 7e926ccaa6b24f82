"""Per-edge travel times, capacity excess, and social-cost aggregation."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalsig.costs import (
    AbstractCostFn,
    CostTable,
    ValidationError,
    edge_costs,
    flapping_cost_fn,
    linear_cost_fn,
    minimize_scalar_on_interval,
    polynomial_cost_fn,
    social_cost_abstract,
    social_cost_network,
    total_excess,
)
from intervalsig.engine import RunConfig, run
from intervalsig.network import Edge, Network, parse_network
from intervalsig.signaling import now_scheme

from .oracle import minimize_two_action_cost
from .test_network import DIAMOND_NET

# One-edge networks: a mild link and a steep one (B = 10, p = 6).
NET_23 = parse_network("2 3 15 0 2 1 2 0 0 1 ;\n")
NET_24 = parse_network("2 4 15 0 2 10 6 0 0 1 ;\n")
EDGE_23 = NET_23.edges[0]
EDGE_24 = NET_24.edges[0]


def bpr_time(net, flow):
    """Uncapped BPR time of a one-edge network's edge at ``flow``."""
    return float(edge_costs(net, np.array([flow]), capped=False)[0])


def bpr_time_capped(net, flow):
    """Capped BPR time of a one-edge network's edge at ``flow``."""
    return float(edge_costs(net, np.array([flow]), capped=True)[0])


def excess(net, flow):
    """Capacity excess of a one-edge network's edge at ``flow``."""
    return total_excess(net, np.array([flow]))

# Two convex single-variable response curves with an interior optimum
# around 0.85 when two agents split between them.
CURVE_A = polynomial_cost_fn([2.0, 0.0, 0.0, 0.0, 7.2])     # 2(1+3.6x^4)
CURVE_B = polynomial_cost_fn([5.0, 0.0, 4.0])               # 5(1+0.8y^2)


class TestBprTime:
    def test_free_flow(self):
        assert bpr_time(NET_23, 0.0) == 2.0

    def test_at_capacity(self):
        assert bpr_time(NET_23, 15.0) == pytest.approx(4.0)

    def test_heavy_overload(self):
        assert bpr_time(NET_24, 30.0) == pytest.approx(1282.0)

    def test_power_zero_is_constant(self):
        net = parse_network("1 2 15 0 2 0.5 0 0 0 1 ;\n")
        assert bpr_time(net, 0.0) == pytest.approx(3.0)
        assert bpr_time(net, 99.0) == pytest.approx(3.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1e4), st.floats(0, 1e4))
    def test_nondecreasing_in_flow(self, a, b):
        lo, hi = sorted((a, b))
        assert bpr_time(NET_24, lo) <= bpr_time(NET_24, hi)


class TestBprTimeCapped:
    def test_clamped_at_capacity_ratio(self):
        assert bpr_time_capped(NET_23, 30.0) == pytest.approx(4.0)

    def test_below_capacity_matches_uncapped(self):
        expected = 2 * (1 + (10 / 15) ** 2)
        assert bpr_time_capped(NET_23, 10.0) == pytest.approx(expected)
        assert bpr_time_capped(NET_23, 10.0) == bpr_time(NET_23, 10.0)

    def test_free_flow(self):
        assert bpr_time_capped(NET_24, 0.0) == 2.0

    def test_constant_above_capacity(self):
        assert bpr_time_capped(NET_24, 16.0) == bpr_time_capped(NET_24, 400.0)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0, 1e5, allow_nan=False))
    def test_capped_never_exceeds_uncapped(self, flow):
        assert bpr_time_capped(NET_24, flow) <= bpr_time(NET_24, flow) + 1e-12
        if flow <= EDGE_24.capacity:
            assert bpr_time_capped(NET_24, flow) == pytest.approx(
                bpr_time(NET_24, flow))

    def test_capped_bounds(self):
        for flow in (0.0, 7.5, 15.0, 300.0):
            c = bpr_time_capped(NET_24, flow)
            assert EDGE_24.free_flow <= c
            assert c <= EDGE_24.free_flow * (1 + EDGE_24.b_coeff) + 1e-12


class TestEdgeCostsVector:
    def test_matches_scalar_functions(self):
        """Each diamond edge costs the same in the whole network as in a
        network of its own."""
        net = parse_network(DIAMOND_NET)
        flows = np.array([30.0, 20.0, 10.0, 20.0, 10.0])
        capped = edge_costs(net, flows, capped=True)
        uncapped = edge_costs(net, flows, capped=False)
        for i, e in enumerate(net.edges):
            alone = Network(net.node_count, [dataclasses.replace(e, id=0)])
            assert capped[i] == pytest.approx(bpr_time_capped(alone, flows[i]))
            assert uncapped[i] == pytest.approx(bpr_time(alone, flows[i]))

    @pytest.mark.parametrize("flows", [
        np.zeros(4), np.zeros(6), np.zeros((5, 1)), np.float64(1.0)])
    def test_one_flow_per_edge_required(self, flows):
        # a wrong length is no numpy broadcast error, and a column or a
        # scalar does not broadcast into a table of costs
        net = parse_network(DIAMOND_NET)
        for capped in (False, True):
            with pytest.raises(ValidationError, match="5 edge flows"):
                edge_costs(net, flows, capped=capped)
        with pytest.raises(ValidationError, match="5 edge flows"):
            total_excess(net, flows)


class TestCPower:
    """Every power is C's ``pow`` taken element by element, so the bits
    do not depend on whether numpy's array power is vectorized."""

    # At p = 4 and 6 numpy's AVX-512 array power differs from pow in
    # the last bit on about 5% of such bases.
    BASES = np.random.default_rng(0).uniform(0.0, 2.0, 2000)

    def test_edge_costs_take_c_pow(self):
        powers = [4.0, 6.0, 1.0, 2.5] * (len(self.BASES) // 4)
        net = Network(2, [
            Edge(id=i, src=1, dst=2, capacity=1.0, length=0.0,
                 free_flow=1.0, b_coeff=1.0, power=p)
            for i, p in enumerate(powers)])
        got = edge_costs(net, self.BASES, capped=False)
        expected = [1.0 + math.pow(b, p)
                    for b, p in zip(self.BASES.tolist(), powers)]
        assert got.tolist() == expected

    def test_flapping_takes_c_pow(self):
        total = 29
        counts = np.arange(total + 1, dtype=float)
        for j in self.BASES[:200].tolist():
            expected = [1.0 if n < (total + 1) / 2.0
                        else math.pow(j + 1.0, (2.0 * n - total) / total)
                        for n in counts.tolist()]
            fn = flapping_cost_fn(j, total)
            assert fn(counts).tolist() == expected
            assert CostTable([fn])(counts[:, None])[:, 0].tolist() == \
                expected

    def test_overflow_gives_inf(self):
        # (30 / 0.001)^300 is beyond the largest float
        net = parse_network("1 2 0.001 0 9 1 300 0 0 1 ;\n")
        assert edge_costs(net, np.array([30.0]), capped=False).tolist() \
            == [math.inf]
        assert edge_costs(net, np.array([30.0]), capped=True).tolist() \
            == [18.0]


class TestExcess:
    def test_under_capacity(self):
        assert excess(NET_23, 10.0) == 0.0

    def test_over_capacity(self):
        assert excess(NET_23, 30.0) == 15.0

    def test_boundary(self):
        assert excess(NET_23, 15.0) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0, 1e4, allow_nan=False))
    def test_positive_iff_above_capacity(self, flow):
        assert (excess(NET_23, flow) > 0) == (flow > EDGE_23.capacity)


def parallel_links(edges: int, seed: int) -> Network:
    """``edges`` parallel links from node 1 to node 2 with random
    capacities."""
    capacities = np.random.default_rng(seed).uniform(1.0, 100.0, edges)
    return parse_network("".join(f"1 2 {c!r} 0 2 0.15 4 0 0 1 ;\n"
                                 for c in capacities.tolist()))


class TestRunColumns:
    """A run's ``(T, E)`` flows and costs, priced in one call each, give
    every period the bytes of that period's own call."""

    @pytest.mark.parametrize("edges", [5, 76, 200, 1000, 4097])
    def test_each_row_is_its_own_call(self, edges):
        net = parallel_links(edges, edges)
        rng = np.random.default_rng(edges)
        flows = rng.uniform(0.0, 200.0, (300, edges))
        flows[rng.random(flows.shape) < 0.3] = 0.0
        costs = edge_costs(net, flows[0], capped=False) * rng.random(
            (300, edges))
        excesses = total_excess(net, flows)
        social = social_cost_network(flows, costs)
        assert excesses.shape == social.shape == (300,)
        assert excesses.tobytes() == np.array(
            [total_excess(net, row) for row in flows]).tobytes()
        assert social.tobytes() == np.array(
            [social_cost_network(f, c) for f, c in zip(flows, costs)
             ]).tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 5), (5, 3)])
    def test_excess_columns_need_one_flow_per_edge(self, shape):
        with pytest.raises(ValidationError, match="5 edge flows"):
            total_excess(parse_network(DIAMOND_NET), np.zeros(shape))

    def test_social_cost_columns_need_one_cost_per_flow(self):
        with pytest.raises(ValidationError, match="one flow per cost"):
            social_cost_network(np.ones((3, 5)), np.ones((3, 4)))


class TestAbstractCostFn:
    def test_polynomial_eval(self):
        assert CURVE_A(1.0) == pytest.approx(9.2)
        assert CURVE_B(1.0) == pytest.approx(9.0)
        assert CURVE_A(2.0) == pytest.approx(117.2)

    def test_linear_eval(self):
        fn = linear_cost_fn(20, offset=0.05)
        assert fn(0) == pytest.approx(0.05)
        assert fn(10) == pytest.approx(0.55)

    def test_flapping_eval(self):
        fn = flapping_cost_fn(7.0, 3)
        assert fn(0) == 1.0
        assert fn(1) == 1.0
        assert fn(2) == pytest.approx(2.0)
        assert fn(3) == pytest.approx(8.0)

    def test_vectorized_eval_matches_scalar(self):
        ns = np.array([0.0, 1.0, 2.0, 3.0])
        for fn in (CURVE_A, linear_cost_fn(3), flapping_cost_fn(7.0, 3)):
            vec = fn(ns)
            assert vec.shape == ns.shape
            for n, v in zip(ns, vec):
                assert v == pytest.approx(fn(float(n)))


class TestAbstractCostFnValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown cost kind"):
            AbstractCostFn("cubic", ())

    @pytest.mark.parametrize("kind", ["flapping", "linear_over_N"])
    @pytest.mark.parametrize("params", [(), (7.0,), (7.0, 3, 1.0)])
    def test_two_parameter_kinds_need_two(self, kind, params):
        with pytest.raises(ValidationError, match="takes 2 parameters"):
            AbstractCostFn(kind, params)

    @pytest.mark.parametrize("kind, params", [
        ("polynomial", (1.0, math.nan)),
        ("polynomial", (math.inf,)),
        ("flapping", (math.inf, 3)),
        ("flapping", (7.0, math.nan)),
        ("linear_over_N", (10, -math.inf)),
    ])
    def test_non_finite_parameters(self, kind, params):
        with pytest.raises(ValidationError, match="finite"):
            AbstractCostFn(kind, params)

    @pytest.mark.parametrize("kind, params", [
        ("polynomial", ("one",)),
        # the next three used to build: a string was parsed, so the
        # table priced an action its own call could not, and a bool was
        # read as 1
        ("polynomial", ("1.5", "2")),
        ("polynomial", (True, 1.0)),
        ("flapping", (7.0, "3")),
        ("linear_over_N", (10, None)),
        ("polynomial", 3.0),
    ], ids=["word", "numeric_strings", "bool", "string_agent_count",
            "none_offset", "not_a_sequence"])
    def test_non_numeric_parameters(self, kind, params):
        with pytest.raises(ValidationError, match="numbers"):
            AbstractCostFn(kind, params)

    def test_constructors_check_too(self):
        with pytest.raises(ValidationError):
            polynomial_cost_fn([1.0, math.nan])
        with pytest.raises(ValidationError):
            linear_cost_fn(10, offset=math.inf)
        # a string coefficient used to be parsed
        with pytest.raises(ValidationError, match="numbers"):
            polynomial_cost_fn(["1.5"])

    def test_constructors_keep_fractional_agent_counts(self):
        # N used to go through ``int()``: 20.7 was stored as 20 and 3.9
        # as 3
        assert linear_cost_fn(20.7).params == (20.7, 0.0)
        assert flapping_cost_fn(7.0, 3.9).params == (7.0, 3.9)

    def test_parameters_stored_as_floats(self):
        for fn in (linear_cost_fn(20), flapping_cost_fn(np.int64(7), 3),
                   AbstractCostFn("polynomial", (np.float32(0.5), 2))):
            assert all(type(p) is float for p in fn.params)
        assert linear_cost_fn(20).params == (20.0, 0.0)

    @pytest.mark.parametrize("kind, params", [
        ("flapping", (-3.0, 5)),
        ("flapping", (0.0, 5)),
        ("flapping", (2.0, 0)),
        ("flapping", (2.0, -4)),
        ("linear_over_N", (0, 1.0)),
        ("linear_over_N", (-2, 1.0)),
    ])
    def test_out_of_range_parameters(self, kind, params):
        # each of these evaluated to NaN or inf at n = 4 or 0
        with pytest.raises(ValidationError):
            AbstractCostFn(kind, params)

    def test_constant_polynomials_allowed(self):
        assert AbstractCostFn("polynomial", ())(3.0) == 0.0
        assert polynomial_cost_fn([2.5])(3.0) == 2.5


_COEFF = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def cost_fn(draw, degree=None):
    kind = "polynomial" if degree is not None else draw(
        st.sampled_from(["polynomial", "flapping", "linear_over_N"]))
    if kind == "flapping":
        return flapping_cost_fn(draw(st.floats(0.01, 20.0)),
                                draw(st.integers(20, 2000)))
    if kind == "linear_over_N":
        return linear_cost_fn(draw(st.integers(1, 2000)), draw(_COEFF))
    if degree is None:
        degree = draw(st.integers(0, 5))
    return polynomial_cost_fn(draw(st.lists(_COEFF, min_size=degree + 1,
                                            max_size=degree + 1)))


@st.composite
def cost_table_case(draw):
    """A mixed list of cost functions that always holds polynomials of
    degrees 0 to 5, and counts of shape (M,) or (k, M) with zeros."""
    fns = [draw(cost_fn(degree=d)) for d in range(6)]
    fns += draw(st.lists(cost_fn(), max_size=6))
    fns = draw(st.permutations(fns))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    count = st.one_of(st.just(0.0), st.integers(0, 2000).map(float),
                      st.floats(0.0, 2000.0))
    size = int(np.prod(batch, dtype=int)) * len(fns)
    counts = np.array(draw(st.lists(count, min_size=size, max_size=size)),
                      dtype=float).reshape(batch + (len(fns),))
    return fns, counts


class TestCostTable:
    @settings(max_examples=100, deadline=None)
    @given(cost_table_case())
    def test_bitwise_equal_to_each_actions_call(self, case):
        fns, counts = case
        got = CostTable(fns)(counts)
        want = np.array([fn(float(n)) for row in counts.reshape(-1, len(fns))
                         for n, fn in zip(row, fns)]).reshape(counts.shape)
        assert got.shape == counts.shape
        assert got.tobytes() == want.tobytes()
        for m, fn in enumerate(fns):          # one call per action column
            column = np.asarray(fn(counts[..., m]), dtype=float)
            assert column.tobytes() == got[..., m].tobytes()

    def test_padded_degrees_and_zero_counts(self):
        fns = [polynomial_cost_fn([1.0 + d] * (d + 1)) for d in range(6)]
        fns.append(flapping_cost_fn(7.0, 3))
        fns.append(linear_cost_fn(4, offset=0.5))
        counts = np.array([[0.0] * 8, [2.0] * 8])
        got = CostTable(fns)(counts)
        assert got[0].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 1.0, 0.5]
        assert got[1].tolist() == [fn(2.0) for fn in fns]

    def test_counts_must_cover_every_action(self):
        table = CostTable([linear_cost_fn(4)] * 3)
        for bad in (np.zeros(2), np.zeros((4, 2)), np.float64(1.0)):
            with pytest.raises(ValidationError, match="shape"):
                table(bad)


def evaluated(counts, fns):
    """Each action's cost at its count, as ``social_cost_abstract``
    takes them."""
    return [fn(n) for n, fn in zip(counts, fns)]


class TestSocialCostAbstract:
    def test_even_split(self):
        got = social_cost_abstract(
            (1, 1), evaluated((1, 1), [CURVE_A, CURVE_B]), 2)
        assert got == pytest.approx(9.1)

    def test_all_on_first(self):
        got = social_cost_abstract(
            (2, 0), evaluated((2, 0), [CURVE_A, CURVE_B]), 2)
        assert got == pytest.approx(117.2)

    def test_single_action(self):
        fn = linear_cost_fn(4)
        assert social_cost_abstract((4,), evaluated((4,), [fn]), 4) == \
            pytest.approx(fn(4))

    def test_count_sum_validated(self):
        with pytest.raises(ValidationError):
            social_cost_abstract(
                (1, 2), evaluated((1, 2), [CURVE_A, CURVE_B]), 2)

    @pytest.mark.parametrize("counts, costs", [((2, 0), [1.0]),
                                               ((2,), [1.0, 1.0])])
    def test_one_count_per_cost_required(self, counts, costs):
        with pytest.raises(ValidationError,
                           match="one count per cost required"):
            social_cost_abstract(counts, costs, 2)

    @pytest.mark.parametrize("total", [math.nan, math.inf, -math.inf, 0.0,
                                       -3.0, "3", None, True])
    def test_total_must_be_a_positive_finite_number(self, total):
        # a NaN total used to give NaN, an infinite one 0.0 and a string
        # a bare TypeError
        with pytest.raises(ValidationError, match="total agent count"):
            social_cost_abstract(np.array([1.0, 2.0]), np.array([1.0, 1.0]),
                                 total)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 2, allow_nan=False))
    def test_permutation_invariant_with_equal_costs(self, x):
        fns = [CURVE_A, CURVE_A]
        a = social_cost_abstract((x, 2 - x), evaluated((x, 2 - x), fns), 2)
        b = social_cost_abstract((2 - x, x), evaluated((2 - x, x), fns), 2)
        assert a == pytest.approx(b)

    @pytest.mark.parametrize("actions", [1, 2, 200])
    def test_columns_give_each_periods_cost(self, actions):
        rng = np.random.default_rng(actions)
        counts = rng.dirichlet(np.ones(actions), 300) * 1000.0
        costs = rng.uniform(1.0, 5.0, (300, actions))
        got = social_cost_abstract(counts, costs, 1000)
        assert got.shape == (300,)
        assert got.tobytes() == np.array(
            [social_cost_abstract(n, c, 1000) for n, c in zip(counts, costs)
             ]).tobytes()

    def test_columns_name_the_first_period_off_the_total(self):
        counts = np.array([[1.0, 1.0], [1.0, 2.0], [0.5, 0.0], [2.0, 0.0]])
        with pytest.raises(ValidationError,
                           match=r"counts sum to 3\.0, expected 2"):
            social_cost_abstract(counts, np.ones((4, 2)), 2)

    @pytest.mark.parametrize("counts, costs", [
        (np.ones((3, 2)), np.ones((3, 3))), (np.ones((3, 2)), np.ones(2)),
        (np.ones((2, 3, 2)), np.ones((2, 3, 2)))])
    def test_columns_need_one_count_per_cost(self, counts, costs):
        with pytest.raises(ValidationError,
                           match="one count per cost required"):
            social_cost_abstract(counts, costs, 2)

    def test_sum_is_correctly_rounded(self):
        # The terms are 1, 1e-16 and 1e-16 exactly; adding them left to
        # right rounds back to 1.0 twice, while their exact sum is nearer
        # to the next float up.
        costs = [4.0, 4e-16, 4e-16, 0.0]
        got = social_cost_abstract((1, 1, 1, 1), costs, 4)
        assert got == math.fsum([1.0, 1e-16, 1e-16]) == 1.0000000000000002


# A link with B = 0 costs its free-flow time, here 9, at any load.
FLAT_LINK = "1 2 10 0 9 0 1 0 0 1 ;\n"


@pytest.fixture
def period_social_cost(tmp_path):
    """Social cost that ``run`` reports for one period of the instance in
    two TNTP texts: route cost times agents, summed over routes
    (``social_cost_network``, a ``math.fsum`` of flow times cost)."""
    def social_cost(net_text: str, trips_text: str) -> float:
        net_path, trips_path = tmp_path / "net.txt", tmp_path / "trips.txt"
        net_path.write_text(net_text)
        trips_path.write_text(trips_text)
        result = run(RunConfig(scheme=now_scheme(), horizon=1, seed=0,
                               net_path=net_path, trips_path=trips_path))
        return result.social_cost.item()
    return social_cost


class TestSocialCostNetwork:
    def test_single_path(self, period_social_cost):
        assert period_social_cost(FLAT_LINK, "Origin 1\n2 : 30;\n") == \
            pytest.approx(270.0)

    def test_two_paths(self, period_social_cost):
        # two parallel links, 15 agents each
        got = period_social_cost(FLAT_LINK * 2, "Origin 1\n2 : 30;\n")
        assert got == pytest.approx(270.0)

    def test_no_demand(self, period_social_cost):
        assert period_social_cost(FLAT_LINK, "Origin 1\n") == 0.0

    def test_negative_load_rejected(self, period_social_cost):
        with pytest.raises(ValidationError):
            period_social_cost(FLAT_LINK, "Origin 1\n2 : -1;\n")

    @pytest.mark.parametrize("flows, costs", [([1.0, 2.0], [1.0]),
                                              ([1.0], [1.0, 2.0])])
    def test_one_flow_per_cost_required(self, flows, costs):
        # neither input broadcasts against the other
        with pytest.raises(ValidationError, match="one flow per cost"):
            social_cost_network(np.array(flows), np.array(costs))


class TestTwoActionMinimizer:
    def test_interior_optimum(self):
        argmin, value = minimize_two_action_cost(CURVE_A, CURVE_B, 2)
        assert argmin == pytest.approx(0.8506697, abs=1e-3)
        assert value == pytest.approx(8.364076, abs=1e-4)

    def test_linear_corner(self):
        # strictly cheaper first action pushes everyone onto it
        cheap = linear_cost_fn(2, offset=0.0)
        dear = linear_cost_fn(2, offset=10.0)
        argmin, _ = minimize_two_action_cost(cheap, dear, 2)
        assert argmin == pytest.approx(2.0, abs=1e-9)

    def test_linear_corner_at_lo(self):
        # the same actions swapped: everyone takes the second action
        cheap = linear_cost_fn(2, offset=0.0)
        dear = linear_cost_fn(2, offset=10.0)
        argmin, _ = minimize_two_action_cost(dear, cheap, 2)
        assert argmin == pytest.approx(0.0, abs=1e-9)

    def test_interior_minimum_to_1e9(self):
        # the two-action cost is too flat at its minimum to place it to
        # 1e-9 in floats; a parabola around 0 is not
        argmin, value = minimize_scalar_on_interval(
            lambda x: (x - 0.3) ** 2, 0.0, 2.0)
        assert argmin == pytest.approx(0.3, abs=1e-9)
        assert value == pytest.approx(0.0, abs=1e-18)
