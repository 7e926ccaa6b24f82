"""TNTP ingestion, serialization round-trips, and shortest-path splitting."""

import dataclasses
import importlib.resources
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalsig.network import (
    DemandTable,
    Network,
    NoPathError,
    ParseError,
    ValidationError,
    parse_network,
    parse_trips,
    require_int,
)

from .oracle import demand_to_tntp, network_to_tntp, shortest_path_dag

DIAMOND_NET = """\
<NUMBER OF ZONES> 5
<NUMBER OF NODES> 5
<FIRST THRU NODE> 1
<NUMBER OF LINKS> 5
<END OF METADATA>

~ Init node Term node Capacity Length Free Flow Time B Power Speed limit Toll Type ;
1 2 25900 6 6 0.15 4 0 0 1 ;
2 3 15 0 2 1 2 0 0 1 ;
2 4 15 0 2 10 6 0 0 1 ;
3 5 99900 6 1 0.15 1 0 0 1 ;
4 5 99900 6 1 0.15 1 0 0 1 ;
"""

DIAMOND_TRIPS = """\
<NUMBER OF ZONES> 5
<TOTAL OD FLOW> 30
<END OF METADATA>

Origin 1
5 : 30;
"""


def diamond():
    return parse_network(DIAMOND_NET)


class TestParseNetwork:
    @pytest.mark.parametrize("row", ["2 3 15 0 2 1 2 0 0 1 ;\n",
                                     "2 3 15 0 2 1 2 0 0 1;\n"],
                             ids=["spaced", "attached"])
    def test_single_row_fields(self, row):
        # the ';' may stand apart or end the last field
        net = parse_network(row)
        assert len(net.edges) == 1
        e = net.edges[0]
        assert (e.src, e.dst) == (2, 3)
        assert e.capacity == 15.0
        assert e.length == 0.0
        assert e.free_flow == 2.0
        assert e.b_coeff == 1.0
        assert e.power == 2.0
        assert (e.speed, e.toll, e.link_type) == (0.0, 0.0, 1.0)

    def test_edge_parameter_arrays_follow_file_order(self):
        net = diamond()
        assert net.capacities.tolist() == [e.capacity for e in net.edges]
        assert net.free_flows.tolist() == [e.free_flow for e in net.edges]
        assert net.b_coeffs.tolist() == [e.b_coeff for e in net.edges]
        assert net.powers.tolist() == [e.power for e in net.edges]

    def test_diamond_shape(self):
        net = diamond()
        assert len(net.edges) == 5
        assert net.node_count == 5
        assert [(e.src, e.dst) for e in net.edges] == [
            (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]
        assert [e.id for e in net.edges] == [0, 1, 2, 3, 4]

    def test_empty_edge_section(self):
        net = parse_network(
            "<NUMBER OF NODES> 3\n<END OF METADATA>\n")
        assert net.edges == ()
        assert net.node_count == 3

    def test_node_count_is_max_of_metadata_and_ids(self):
        net = parse_network(
            "<NUMBER OF NODES> 9\n<END OF METADATA>\n1 2 5 0 1 1 1 0 0 1 ;\n")
        assert net.node_count == 9
        net = parse_network(
            "<NUMBER OF NODES> 2\n<END OF METADATA>\n1 7 5 0 1 1 1 0 0 1 ;\n")
        assert net.node_count == 7

    def test_short_row_reports_line_number(self):
        bad = "<END OF METADATA>\n1 2 5 0 1 ;\n"
        with pytest.raises(ParseError, match="line 2"):
            parse_network(bad)

    def test_non_numeric_field_reports_line_number(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_network("1 2 five 0 1 1 1 0 0 1 ;\n")

    def test_missing_terminator_rejected(self):
        with pytest.raises(ParseError):
            parse_network("1 2 5 0 1 1 1 0 0 1\n")

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValidationError):
            parse_network("1 2 0 0 1 1 1 0 0 1 ;\n")
        with pytest.raises(ValidationError):
            parse_network("1 2 -3 0 1 1 1 0 0 1 ;\n")

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            parse_network("2 2 5 0 1 1 1 0 0 1 ;\n")

    @pytest.mark.parametrize("row", ["0 2 5 0 1 1 1 0 0 1 ;\n",
                                     "1 0 5 0 1 1 1 0 0 1 ;\n"],
                             ids=["init", "term"])
    def test_node_id_below_one_rejected(self, row):
        with pytest.raises(ValidationError,
                           match="line 1: node ids must be >= 1"):
            parse_network(row)

    @pytest.mark.parametrize("row", ["1 2 5 0 -1 1 1 0 0 1 ;\n",
                                     "1 2 5 0 1 -1 1 0 0 1 ;\n",
                                     "1 2 5 0 1 1 -1 0 0 1 ;\n"],
                             ids=["free-flow", "B", "power"])
    def test_negative_cost_parameter_rejected(self, row):
        with pytest.raises(ValidationError,
                           match="free-flow time, B and power must be >= 0"):
            parse_network(row)

    @pytest.mark.parametrize("text, message", [
        ("<NUMBER OF NODES> 3\n1 2 5 0 1 1 1 0 0 1 ;\n",
         "line 2: data row before <END OF METADATA>"),
        ("<NUMBER OF NODES 3\n<END OF METADATA>\n",
         "line 1: unterminated metadata tag"),
        ("<END OF METADATA>\n<NUMBER OF NODES> 3\n",
         "line 2: metadata after <END OF METADATA>"),
    ], ids=["unclosed", "unterminated-tag", "after-end"])
    def test_malformed_metadata(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_network(text)

    def test_extra_trailing_fields_accepted(self):
        net = parse_network("1 2 5 0 1 1 1 0 0 1 99 ;\n")
        assert net.edges[0].capacity == 5.0


class TestParseTrips:
    def test_diamond_trips(self):
        table = parse_trips(DIAMOND_TRIPS)
        assert table.entries == {(1, 5): 30.0}
        assert table.total == 30.0

    def test_multiple_entries_per_line(self):
        table = parse_trips(
            "Origin 1\n2 : 5; 3 : 7;\nOrigin 2\n3 : 1;\n")
        assert table.entries == {(1, 2): 5.0, (1, 3): 7.0, (2, 3): 1.0}
        assert table.total == 13.0

    def test_zero_flow_dropped(self):
        table = parse_trips("Origin 1\n2 : 0.0; 3 : 4;\n")
        assert table.entries == {(1, 3): 4.0}

    def test_empty_origin_block(self):
        table = parse_trips("Origin 1\nOrigin 2\n3 : 4;\n")
        assert table.entries == {(2, 3): 4.0}

    def test_negative_flow_rejected(self):
        with pytest.raises(ValidationError):
            parse_trips("Origin 1\n2 : -4;\n")

    def test_origin_without_id_rejected(self):
        with pytest.raises(ParseError):
            parse_trips("Origin\n2 : 4;\n")

    def test_entry_before_any_origin_rejected(self):
        with pytest.raises(ParseError):
            parse_trips("2 : 4;\n")

    def test_entry_without_colon_rejected(self):
        with pytest.raises(ParseError,
                           match="line 2: expected 'dest : flow'"):
            parse_trips("Origin 1\n2 4;\n")

    def test_self_demand_dropped_only_when_zero(self):
        assert parse_trips("Origin 1\n1 : 0; 2 : 4;\n").entries == {
            (1, 2): 4.0}
        with pytest.raises(ValidationError,
                           match="line 2: nonzero self-demand at node 1"):
            parse_trips("Origin 1\n1 : 3;\n")

    def test_total_mismatch_warns_but_parses(self):
        text = "<TOTAL OD FLOW> 100\n<END OF METADATA>\nOrigin 1\n2 : 30;\n"
        with pytest.warns(UserWarning):
            table = parse_trips(text)
        assert table.total == 30.0

    def test_matching_total_does_not_warn(self):
        import warnings
        text = "<TOTAL OD FLOW> 30\n<END OF METADATA>\nOrigin 1\n2 : 30;\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_trips(text)


class TestDemandTable:
    @pytest.mark.parametrize("flow", [-3.0, float("nan"), float("inf"),
                                      "3", None, True])
    def test_bad_entry_rejected_at_construction(self, flow):
        # a table built directly is checked as parse_trips checks a file
        with pytest.raises(ValidationError, match=r"demand \(1, 5\)"):
            DemandTable({(1, 2): 4.0, (1, 5): flow})

    def test_numbers_of_any_real_type_pass(self):
        table = DemandTable({(1, 2): 0.0, (1, 3): 2, (2, 3): np.float32(1.5)})
        assert table.total == 3.5


DERIVED_ARRAYS = ["srcs", "dsts", "capacities", "free_flows", "b_coeffs",
                  "powers"]


class TestFrozenInputs:
    """A network and a demand table cannot change once built, so every
    plan and run built on one sees the inputs that were checked."""

    def test_network_fields_cannot_be_rebound(self):
        net = diamond()
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.edges = net.edges[:2]
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.node_count = 9

    def test_edges_are_a_tuple(self):
        edges = list(diamond().edges)
        net = Network(5, edges)
        assert type(net.edges) is tuple
        edges.pop()
        assert net.edge_count == len(net.srcs) == 5
        with pytest.raises(AttributeError):
            net.edges.append(net.edges[0])

    @pytest.mark.parametrize("name", DERIVED_ARRAYS)
    def test_derived_arrays_are_read_only(self, name):
        array = getattr(diamond(), name)
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1

    @pytest.mark.parametrize("name", DERIVED_ARRAYS)
    def test_derived_arrays_are_the_networks_own(self, name):
        one, two = diamond(), diamond()
        assert getattr(one, name) is not getattr(two, name)
        assert getattr(one, name).base is None

    def test_network_metadata_is_read_only(self):
        net = diamond()
        assert net.metadata["NUMBER OF NODES"] == "5"
        with pytest.raises(TypeError):
            net.metadata["NUMBER OF NODES"] = "6"

    def test_demand_entries_are_read_only(self):
        table = parse_trips(DIAMOND_TRIPS)
        with pytest.raises(TypeError):
            table.entries[(1, 5)] = 99.0
        with pytest.raises(TypeError):
            table.metadata["TOTAL OD FLOW"] = "99"
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.total = 99.0

    def test_demand_table_holds_its_own_copy(self):
        # editing the caller's dict cannot unsettle the checked total
        entries = {(1, 5): 30.0}
        table = DemandTable(entries)
        entries[(1, 5)] = -1.0
        entries[(1, 2)] = 4.0
        assert dict(table.entries) == {(1, 5): 30.0}
        assert table.total == 30.0

    def test_pickle_round_trip(self):
        net, table = diamond(), parse_trips(DIAMOND_TRIPS)
        again = pickle.loads(pickle.dumps((net, table)))
        assert again == (net, table)
        assert again[0].metadata == net.metadata
        assert again[1].metadata == table.metadata
        assert not again[0].srcs.flags.writeable


class TestRequireInt:
    @pytest.mark.parametrize("value", [True, False, np.True_, 2.0, "2"])
    def test_bools_and_non_integers_rejected(self, value):
        with pytest.raises(ValidationError,
                           match="count must be an integer"):
            require_int(value, "count", 0)

    def test_integers_of_any_integer_type_pass(self):
        for value in (3, np.int64(3), np.uint8(3)):
            got = require_int(value, "count", 0)
            assert got == 3 and type(got) is int


class TestBundledSiouxFalls:
    def _read(self, name):
        root = importlib.resources.files("intervalsig")
        return (root / "data" / name).read_text()

    def test_network_shape(self):
        net = parse_network(self._read("siouxfalls_net.tntp"))
        assert len(net.edges) == 76
        assert net.node_count == 24
        assert all(e.capacity > 0 for e in net.edges)
        assert all(e.b_coeff == 0.15 and e.power == 4 for e in net.edges)
        # every link is paired with its reverse at identical parameters
        by_pair = {(e.src, e.dst): e for e in net.edges}
        for (a, b), e in by_pair.items():
            assert (b, a) in by_pair
            assert by_pair[(b, a)].capacity == e.capacity
            assert by_pair[(b, a)].free_flow == e.free_flow

    def test_demand_shape(self):
        table = parse_trips(self._read("siouxfalls_trips.tntp"))
        assert len(table.entries) == 528
        assert table.total == pytest.approx(360600.0, rel=1e-6)
        assert all(o != d for (o, d) in table.entries)
        assert all(v > 0 for v in table.entries.values())


class TestSerialization:
    def test_diamond_round_trip(self):
        net = diamond()
        again = parse_network(network_to_tntp(net))
        assert again.node_count == net.node_count
        assert again.edges == net.edges

    def test_trips_round_trip(self):
        table = parse_trips(DIAMOND_TRIPS)
        again = parse_trips(demand_to_tntp(table))
        assert again.entries == table.entries

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(1, 8), st.integers(1, 8),
            st.floats(0.001, 1e6, allow_nan=False),
            st.floats(0, 1e3, allow_nan=False),
            st.floats(0, 1e3, allow_nan=False),
            st.floats(0, 50, allow_nan=False),
            st.floats(0, 12, allow_nan=False),
        ).filter(lambda t: t[0] != t[1]),
        min_size=0, max_size=12))
    def test_round_trip_any_network(self, rows):
        text = "<END OF METADATA>\n" + "".join(
            f"{s} {d} {c!r} {ln!r} {f!r} {b!r} {p!r} 0 0 1 ;\n"
            for s, d, c, ln, f, b, p in rows)
        net = parse_network(text)
        again = parse_network(network_to_tntp(net))
        assert again.edges == net.edges
        assert again.node_count == net.node_count


class TestShortestPathDag:
    def test_single_edge(self):
        net = parse_network("1 2 5 0 1 1 1 0 0 1 ;\n")
        dag = shortest_path_dag(net, np.array([3.5]), 1, 2)
        assert dag.dist[2] == 3.5
        assert dag.tight_edges == [0]
        assert dag.total_paths == 1.0
        assert dag.path_count_from[2] == 1.0
        assert dag.path_count_to[1] == 1.0

    def test_diamond_zero_weights_two_paths(self):
        net = diamond()
        dag = shortest_path_dag(net, np.zeros(5), 1, 5)
        assert dag.total_paths == 2.0
        assert sorted(dag.tight_edges) == [0, 1, 2, 3, 4]
        # half the demand crosses each middle edge
        assert dag.edge_share(1) == pytest.approx(0.5)
        assert dag.edge_share(2) == pytest.approx(0.5)
        assert dag.edge_share(0) == pytest.approx(1.0)

    def test_diamond_free_flow_weights(self):
        net = diamond()
        w = np.array([6.0, 2.0, 2.0, 1.0, 1.0])
        dag = shortest_path_dag(net, w, 1, 5)
        assert dag.dist[5] == pytest.approx(9.0)
        assert dag.total_paths == 2.0

    def test_near_tie_within_tolerance_still_splits(self):
        net = diamond()
        w = np.array([6.0, 2.0, 2.0 * (1 + 1e-13), 1.0, 1.0])
        dag = shortest_path_dag(net, w, 1, 5)
        assert dag.total_paths == 2.0

    def test_clear_winner_single_path(self):
        net = diamond()
        w = np.array([6.0, 2.0, 2.1, 1.0, 1.0])
        dag = shortest_path_dag(net, w, 1, 5)
        assert dag.total_paths == 1.0
        assert 2 not in dag.tight_edges
        assert dag.edge_share(1) == pytest.approx(1.0)

    def test_unreachable_dest_raises(self):
        net = parse_network("1 2 5 0 1 1 1 0 0 1 ;\n3 4 5 0 1 1 1 0 0 1 ;\n")
        with pytest.raises(NoPathError):
            shortest_path_dag(net, np.zeros(2), 1, 4)

    def test_zero_weight_bridge_survives_cycle_breaking(self):
        # 1->3->2->5 is the only route; 2->3 closes a zero-weight cycle.
        text = ("<END OF METADATA>\n"
                "1 3 5 0 1 1 1 0 0 1 ;\n"
                "3 2 5 0 1 1 1 0 0 1 ;\n"
                "2 3 5 0 1 1 1 0 0 1 ;\n"
                "2 5 5 0 1 1 1 0 0 1 ;\n")
        net = parse_network(text)
        dag = shortest_path_dag(net, np.zeros(4), 1, 5)
        assert dag.total_paths == 1.0
        assert sorted(dag.tight_edges) == [0, 1, 3]
        for eid in (0, 1, 3):
            assert dag.edge_share(eid) == pytest.approx(1.0)

    def test_two_node_zero_cycle_both_directions(self):
        text = ("<END OF METADATA>\n"
                "1 2 5 0 1 1 1 0 0 1 ;\n"
                "2 1 5 0 1 1 1 0 0 1 ;\n"
                "2 3 5 0 1 1 1 0 0 1 ;\n")
        net = parse_network(text)
        dag = shortest_path_dag(net, np.zeros(3), 1, 3)
        assert dag.total_paths == 1.0
        assert 1 not in dag.tight_edges

    def test_sioux_falls_zero_weights_every_od_connected(self):
        root = importlib.resources.files("intervalsig")
        net = parse_network((root / "data" / "siouxfalls_net.tntp").read_text())
        w = np.zeros(len(net.edges))
        for origin in (1, 12, 24):
            for dest in (1, 10, 24):
                if origin == dest:
                    continue
                dag = shortest_path_dag(net, w, origin, dest)
                assert dag.total_paths >= 1.0
                self._assert_share_conservation(net, dag, origin, dest)

    @staticmethod
    def _assert_share_conservation(net, dag, origin, dest):
        balance = np.zeros(net.node_count + 1)
        for eid in dag.tight_edges:
            share = dag.edge_share(eid)
            balance[net.edges[eid].src] -= share
            balance[net.edges[eid].dst] += share
        assert balance[origin] == pytest.approx(-1.0, abs=1e-9)
        assert balance[dest] == pytest.approx(1.0, abs=1e-9)
        interior = [n for n in range(1, net.node_count + 1)
                    if n not in (origin, dest)]
        assert np.allclose(balance[interior], 0.0, atol=1e-9)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.floats(0, 10, allow_nan=False), min_size=5, max_size=5))
    def test_diamond_share_conservation_random_weights(self, wlist):
        net = diamond()
        dag = shortest_path_dag(net, np.array(wlist), 1, 5)
        assert dag.total_paths >= 1.0
        assert dag.path_count_from[5] == pytest.approx(dag.total_paths)
        assert dag.path_count_to[1] == pytest.approx(dag.total_paths)
        self._assert_share_conservation(net, dag, 1, 5)
