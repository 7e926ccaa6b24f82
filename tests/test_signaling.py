"""Cost-history bookkeeping, signal emission under each scheme, and the
weights a traveller type reads from a signal."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from intervalsig.signaling import (
    CostHistory,
    Scheme,
    ValidationError,
    edge_weight,
    emit_signal,
    extreme_scheme,
    full_extreme_scheme,
    mean_scheme,
    now_scheme,
    scheme_from_name,
    subinterval_scheme,
)

from .oracle import signal_sequence


def history_of(costs, scheme, initial=None):
    """A one-resource history under ``scheme`` that has recorded ``costs``."""
    h = CostHistory(1, scheme, initial)
    for c in costs:
        h.record_period([c])
    return h


def signal_of(costs, scheme, initial=None):
    return emit_signal(history_of(costs, scheme, initial))


def validate_subinterval(signal, costs, r):
    """True iff every interval sits inside the min/max envelope of the
    last ``r`` entries of the one-resource cost list ``costs``."""
    recent = np.asarray(costs[-r:], dtype=float)
    lo, hi = recent.min(), recent.max()
    slack = 1e-12 * max(1.0, abs(lo), abs(hi))
    return bool(np.all((lo - slack <= signal[:, 0])
                       & (signal[:, 0] <= signal[:, 1])
                       & (signal[:, 1] <= hi + slack)))


class TestEdgeWeight:
    SIG = np.array([[1.0, 3.0], [2.0, 2.0], [0.0, 4.0]])

    def test_pessimist_reads_upper_endpoints(self):
        assert edge_weight(self.SIG, 0.0) == pytest.approx([3.0, 2.0, 4.0])

    def test_optimist_reads_lower_endpoints(self):
        assert edge_weight(self.SIG, 1.0) == pytest.approx([1.0, 2.0, 0.0])

    def test_midpoint_reader(self):
        assert edge_weight(self.SIG, 0.5) == pytest.approx([2.0, 2.0, 2.0])

    def test_leading_axes_are_batch_axes(self):
        batch = np.stack([self.SIG, self.SIG[::-1]])
        assert edge_weight(batch, 0.0).tolist() == [[3.0, 2.0, 4.0],
                                                   [4.0, 2.0, 3.0]]

    def test_flat_signal_rejected(self):
        with pytest.raises(ValidationError):
            edge_weight(np.zeros(4), 0.5)


class TestRecord:
    def test_fractional_resource_count_rejected(self):
        # used to fail in ``np.zeros`` with a bare TypeError
        with pytest.raises(
                ValidationError,
                match="resource count must be an integer, got 2.5"):
            CostHistory(2.5, mean_scheme())

    def test_scheme_must_be_a_scheme(self):
        # a scheme name used to fail with an AttributeError
        with pytest.raises(ValidationError,
                           match="scheme must be a Scheme, got 'now'"):
            CostHistory(3, "now")

    def test_first_record_sets_aggregates(self):
        h = history_of([4.0], extreme_scheme(4))
        assert h.periods == 1
        assert h.window_extremes() == (pytest.approx([4.0]),
                                       pytest.approx([4.0]))
        assert signal_of([4.0], now_scheme())[0] == pytest.approx((4.0, 4.0))
        assert signal_of([4.0], mean_scheme())[0] == pytest.approx(
            (4.0, 4.0))

    def test_window_eviction(self):
        h = history_of([4.0, 7.0, 5.0], extreme_scheme(2))
        assert h.window_extremes() == (pytest.approx([5.0]),
                                       pytest.approx([7.0]))
        # running aggregates still cover the full stream
        assert signal_of([4.0, 7.0, 5.0], full_extreme_scheme())[0] == \
            pytest.approx((4.0, 7.0))

    def test_window_extremes_need_a_recorded_period(self):
        h = CostHistory(2, extreme_scheme(3))
        with pytest.raises(ValidationError, match="no period recorded yet"):
            h.window_extremes()

    @pytest.mark.parametrize("scheme", [now_scheme(), mean_scheme(),
                                        full_extreme_scheme()])
    def test_window_extremes_only_on_windowed_schemes(self, scheme):
        # these histories record no window, so there is none to read
        h = history_of([4.0, 7.0], scheme)
        with pytest.raises(ValidationError, match="keeps no window"):
            h.window_extremes()

    def test_period_width_checked(self):
        h = CostHistory(2, now_scheme())
        with pytest.raises(ValidationError):
            h.record_period([1.0, 2.0, 3.0])

    def test_negative_cost_rejected(self):
        h = CostHistory(1, now_scheme())
        with pytest.raises(ValidationError):
            h.record_period([-1.0])

    def test_non_finite_cost_rejected(self):
        h = CostHistory(2, now_scheme())
        with pytest.raises(ValidationError):
            h.record_period([1.0, math.inf])
        with pytest.raises(ValidationError):
            h.record_period([math.nan, 1.0])
        assert h.periods == 0


class TestEmitSignal:
    def test_windowed_extremes_use_most_recent(self):
        sig = signal_of([4.0, 7.0, 5.0], extreme_scheme(2))
        assert sig[0] == pytest.approx((5.0, 7.0))

    def test_full_extremes_use_everything(self):
        sig = signal_of([4.0, 7.0, 5.0], full_extreme_scheme())
        assert sig[0] == pytest.approx((4.0, 7.0))

    def test_mean_is_scalar(self):
        sig = signal_of([2.0, 4.0], mean_scheme())
        assert sig[0] == pytest.approx((3.0, 3.0))

    def test_now_is_most_recent(self):
        sig = signal_of([4.0, 7.0, 5.0], now_scheme())
        assert sig[0] == pytest.approx((5.0, 5.0))

    def test_interval_warm_up_needs_two_periods(self):
        for scheme in (extreme_scheme(5), full_extreme_scheme(),
                       subinterval_scheme(5, 0.5)):
            sig = signal_of([9.0], scheme)
            assert sig[0] == pytest.approx((0.0, 0.0))

    def test_scalar_warm_up_needs_one_period(self):
        now, mean = CostHistory(2, now_scheme()), CostHistory(2, mean_scheme())
        assert emit_signal(now)[1] == pytest.approx((0.0, 0.0))
        now.record_period([5.0, 3.0])
        mean.record_period([5.0, 3.0])
        assert emit_signal(now)[1] == pytest.approx((3.0, 3.0))
        assert emit_signal(mean)[0] == pytest.approx((5.0, 5.0))

    def test_subinterval_shrinks_about_midpoint(self):
        sig = signal_of([4.0, 7.0, 5.0], subinterval_scheme(2, 0.5))
        assert sig[0] == pytest.approx((5.5, 6.5))

    def test_subinterval_alpha_one_is_extreme(self):
        a = signal_of([4.0, 7.0, 5.0], subinterval_scheme(2, 1.0))
        b = signal_of([4.0, 7.0, 5.0], extreme_scheme(2))
        assert np.array_equal(a, b)

    def test_subinterval_alpha_zero_is_midpoint(self):
        sig = signal_of([4.0, 7.0, 5.0], subinterval_scheme(2, 0.0))
        assert sig[0] == pytest.approx((6.0, 6.0))


class TestInitialSignal:
    INIT = np.array([[2.0, 6.0]])

    def test_is_the_signal_before_any_cost(self):
        for scheme in (now_scheme(), mean_scheme(), extreme_scheme(3),
                       full_extreme_scheme(), subinterval_scheme(3, 0.5)):
            assert np.array_equal(signal_of([], scheme, self.INIT),
                                  self.INIT)

    def test_scalar_schemes_read_real_costs_only(self):
        assert signal_of([9.0, 1.0], now_scheme(), self.INIT)[0] == \
            pytest.approx((1.0, 1.0))
        assert signal_of([9.0, 1.0], mean_scheme(), self.INIT)[0] == \
            pytest.approx((5.0, 5.0))

    def test_window_holds_initial_until_full(self):
        sig = signal_of([4.0], extreme_scheme(3), self.INIT)
        assert sig[0] == pytest.approx((2.0, 6.0))
        sig = signal_of([4.0, 5.0, 4.5], extreme_scheme(3), self.INIT)
        assert sig[0] == pytest.approx((4.0, 5.0))
        sig = signal_of([4.0, 5.0, 4.5], subinterval_scheme(3, 0.5),
                        self.INIT)
        assert sig[0] == pytest.approx((4.25, 4.75))

    def test_full_envelope_keeps_initial(self):
        sig = signal_of([4.0] * 20, full_extreme_scheme(), self.INIT)
        assert sig[0] == pytest.approx((2.0, 6.0))

    def test_is_copied_at_construction(self):
        init = self.INIT.copy()
        h = CostHistory(1, extreme_scheme(3), init)
        init[0] = (0.0, 99.0)
        assert np.array_equal(emit_signal(h), self.INIT)

    def test_wrong_shape_rejected(self):
        for shape in ((2, 2), (1, 3), (2,)):
            with pytest.raises(ValidationError, match="shape"):
                CostHistory(1, extreme_scheme(3), np.zeros(shape))

    def test_inverted_rejected(self):
        # a NaN endpoint is no more ordered than an inverted pair
        for bad in ((6.0, 2.0), (math.nan, 2.0)):
            with pytest.raises(ValidationError, match="lower <= upper"):
                CostHistory(2, full_extreme_scheme(),
                            np.array([(1.0, 2.0), bad]))

    @pytest.mark.parametrize("bad", [(1.0, math.inf), (-math.inf, 2.0),
                                     (-1.0, 2.0)])
    def test_infinite_or_negative_endpoint_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            CostHistory(2, full_extreme_scheme(),
                        np.array([(1.0, 2.0), bad]))

    def test_negative_zero_endpoint_accepted(self):
        init = np.array([(-0.0, 2.0), (-0.0, -0.0)])
        h = CostHistory(2, full_extreme_scheme(), init)
        assert emit_signal(h).tobytes() == init.tobytes()


class TestValidateSubinterval:
    COSTS = [4.0, 7.0, 5.0]

    def test_extreme_output_is_nested(self):
        sig = signal_of(self.COSTS, extreme_scheme(2))
        assert validate_subinterval(sig, self.COSTS, 2)

    def test_shrunk_output_is_nested(self):
        sig = signal_of(self.COSTS, subinterval_scheme(2, 0.5))
        assert validate_subinterval(sig, self.COSTS, 2)

    def test_inflated_upper_bound_fails(self):
        sig = signal_of(self.COSTS, extreme_scheme(2)).copy()
        sig[0, 1] = signal_of(self.COSTS, full_extreme_scheme())[0, 1] + 1.0
        sig[0, 0] = 0.0
        assert not validate_subinterval(sig, self.COSTS, 2)

    def test_full_envelope_is_not_in_a_shorter_window(self):
        sig = signal_of(self.COSTS, full_extreme_scheme())
        assert validate_subinterval(sig, self.COSTS, 3)
        assert not validate_subinterval(sig, self.COSTS, 2)


class TestSchemeFamily:
    def test_parse_names(self):
        assert now_scheme() == scheme_from_name("now")
        assert mean_scheme() == scheme_from_name("mean")
        assert extreme_scheme(7) == scheme_from_name("extreme", window=7)
        assert full_extreme_scheme() == scheme_from_name("full-extreme")
        assert subinterval_scheme(4, 0.3) == scheme_from_name(
            "subinterval", window=4, shrink=0.3)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            extreme_scheme(0)
        with pytest.raises(ValidationError):
            subinterval_scheme(3, 1.5)
        with pytest.raises(ValidationError):
            scheme_from_name("histogram")

    def test_window_only_on_windowed_kinds(self):
        # the history keeps ``window`` periods, so a window on a kind
        # that reads none would size it for nothing
        for kind in ("now", "mean", "full_extreme"):
            with pytest.raises(ValidationError, match="takes no window"):
                Scheme(kind, window=3)

    def test_shrink_only_on_subinterval(self):
        # only subinterval reads the shrink factor; elsewhere it would be
        # dropped without a word
        for kind, window in (("extreme", 3), ("now", None), ("mean", None),
                             ("full_extreme", None)):
            with pytest.raises(ValidationError,
                               match="takes no shrink factor"):
                Scheme(kind, window=window, shrink=0.5)

    def test_names_pass_window_and_shrink_through(self):
        with pytest.raises(ValidationError, match="now takes no window"):
            scheme_from_name("now", window=20)
        with pytest.raises(ValidationError,
                           match="extreme takes no shrink factor"):
            scheme_from_name("extreme", window=5, shrink=0.5)
        assert scheme_from_name("subinterval", window=4) == \
            subinterval_scheme(4, 1.0)

    @pytest.mark.parametrize("shrink", ["0.5", True, None])
    def test_shrink_that_is_no_number_rejected(self, shrink):
        with pytest.raises(ValidationError, match="shrink factor"):
            Scheme("subinterval", window=3, shrink=shrink)

    def test_shrink_stored_as_float(self):
        scheme = Scheme("subinterval", window=3, shrink=np.int64(1))
        assert type(scheme.shrink) is float
        assert scheme == subinterval_scheme(3, 1.0)
        assert scheme.label() == "subinterval-r3-a1"

    @pytest.mark.parametrize("window", [2.5, 3.0])
    def test_float_window_rejected_at_construction(self, window):
        # refused like a float seed, never truncated or left for the
        # history to trip over
        for kind, shrink in (("extreme", None), ("subinterval", 0.5)):
            with pytest.raises(
                    ValidationError,
                    match=f"{kind} window must be an integer, got {window}"):
                Scheme(kind, window=window, shrink=shrink)

    @pytest.mark.parametrize("window", [True, False])
    def test_bool_window_rejected_at_construction(self, window):
        # a bool is an int to Python, but no window
        message = f"window must be an integer, got {window}"
        with pytest.raises(ValidationError, match=message):
            extreme_scheme(window)
        with pytest.raises(ValidationError, match=message):
            Scheme("subinterval", window=window, shrink=0.5)

    def test_numpy_integer_window_accepted(self):
        scheme = extreme_scheme(np.int64(4))
        assert type(scheme.window) is int
        assert scheme.label() == "extreme-r4"
        assert CostHistory(1, scheme).window == 4

    def test_extreme_requires_window_argument(self):
        with pytest.raises(ValidationError):
            scheme_from_name("extreme")


costs_stream = st.lists(
    st.floats(0, 100, allow_nan=False), min_size=2, max_size=30)


class TestSchemeProperties:
    @settings(max_examples=100, deadline=None)
    @given(costs_stream, st.integers(1, 10))
    def test_windowed_nested_in_full(self, costs, r):
        windowed = signal_of(costs, extreme_scheme(r))
        full = signal_of(costs, full_extreme_scheme())
        assert full[0, 0] <= windowed[0, 0] <= windowed[0, 1] <= full[0, 1]

    @settings(max_examples=100, deadline=None)
    @given(costs_stream)
    def test_window_of_one_equals_now_after_warm_up(self, costs):
        assert np.array_equal(signal_of(costs, extreme_scheme(1)),
                              signal_of(costs, now_scheme()))

    def test_window_of_one_differs_from_now_during_warm_up(self):
        assert signal_of([5.0], now_scheme())[0] == pytest.approx((5.0, 5.0))
        assert signal_of([5.0], extreme_scheme(1))[0] == pytest.approx(
            (0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 100, allow_nan=False), st.integers(2, 20))
    def test_constant_stream_collapses_every_scheme(self, c, n):
        for scheme in (now_scheme(), mean_scheme(), extreme_scheme(3),
                       full_extreme_scheme(), subinterval_scheme(3, 0.5)):
            sig = signal_of([c] * n, scheme)
            assert sig[0] == pytest.approx((c, c))

    @settings(max_examples=100, deadline=None)
    @given(costs_stream)
    def test_full_envelope_is_monotone(self, costs):
        h = CostHistory(1, full_extreme_scheme())
        prev_lo, prev_hi = math.inf, -math.inf
        for i, c in enumerate(costs):
            h.record_period([c])
            if i >= 1:
                sig = emit_signal(h)
                assert sig[0, 0] <= prev_lo or prev_lo is math.inf
                assert sig[0, 1] >= prev_hi or prev_hi is -math.inf
                prev_lo, prev_hi = sig[0, 0], sig[0, 1]

    @settings(max_examples=100, deadline=None)
    @given(costs_stream, st.integers(1, 8), st.floats(0, 1))
    def test_emitted_intervals_always_validate(self, costs, r, alpha):
        sig = signal_of(costs, subinterval_scheme(r, alpha))
        assert validate_subinterval(sig, costs, r)
        assert sig[0, 0] <= sig[0, 1]


# Zeros of both signs, and repeated values, so that the envelope's ties
# decide which zero it keeps.
tie_costs = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]),
                      st.floats(0, 10, allow_nan=False))
endpoints = st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0])


@st.composite
def schemes(draw):
    kind = draw(st.sampled_from(["now", "mean", "extreme", "full_extreme",
                                 "subinterval"]))
    window = (draw(st.integers(1, 5))
              if kind in ("extreme", "subinterval") else None)
    shrink = (draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]),
                             st.floats(0, 1)))
              if kind == "subinterval" else None)
    return Scheme(kind, window=window, shrink=shrink)


@st.composite
def cost_streams(draw):
    """A scheme, a resource count, each period's costs and either no
    initial signal or one whose endpoints are often zeros."""
    scheme = draw(schemes())
    m = draw(st.integers(1, 3))
    periods = draw(st.lists(st.lists(tie_costs, min_size=m, max_size=m),
                            max_size=12))
    initial = draw(st.one_of(st.none(), st.lists(
        st.lists(endpoints, min_size=2, max_size=2).map(sorted),
        min_size=m, max_size=m)))
    return scheme, m, periods, initial


class TestAgainstListReference:
    @settings(max_examples=400, deadline=None)
    @given(cost_streams())
    # a recorded -0.0 ties the initial signal's 0.0 endpoints
    @example((full_extreme_scheme(), 1, [[-0.0], [0.0], [-0.0]],
              [[0.0, 0.0]]))
    @example((extreme_scheme(2), 1, [[-0.0], [0.0], [-0.0]], [[0.0, 0.0]]))
    @example((full_extreme_scheme(), 1, [[0.0], [-0.0]], [[-0.0, 0.0]]))
    def test_emitted_signals_match_bit_for_bit(self, case):
        scheme, m, periods, initial = case
        want = signal_sequence(scheme, m, periods, initial)
        h = CostHistory(m, scheme,
                        None if initial is None else np.array(initial))
        for p, expected in enumerate(want):
            got = emit_signal(h)
            assert got.tobytes() == np.array(expected).tobytes(), (
                p, got.tolist(), expected)
            if p < len(periods):
                h.record_period(periods[p])


class TestCoalesced:
    """``coalesced(kept, dropped)`` keeps the ``kept`` columns alone once
    the ``dropped`` ones will emit what they emit, and the history it
    keeps, fed the same costs after, emits what a fresh history of the
    ``kept`` columns emits, bit for bit."""

    @staticmethod
    def check(scheme, m, periods, initial, at, resources):
        initial = None if initial is None else np.array(initial)
        whole = CostHistory(m, scheme, initial)
        fresh = CostHistory(len(resources), scheme,
                            None if initial is None else initial[resources])
        for costs in periods[:at]:
            whole.record_period(costs)
            fresh.record_period(np.array(costs)[resources])
        # a column agrees with itself once the initial signal is gone
        part = whole.coalesced(resources, resources)
        if at < whole.window:
            assert part is None
            return
        assert part.periods == fresh.periods == at
        for costs in periods[at:]:
            assert emit_signal(part).tobytes() == emit_signal(fresh).tobytes()
            part.record_period(np.array(costs)[resources])
            fresh.record_period(np.array(costs)[resources])
        assert emit_signal(part).tobytes() == emit_signal(fresh).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(cost_streams(), st.data())
    def test_emits_what_a_fresh_history_emits(self, case, data):
        scheme, m, periods, initial = case
        at = data.draw(st.integers(0, len(periods)))
        resources = data.draw(st.lists(st.integers(0, m - 1), min_size=1,
                                       max_size=m + 1))
        self.check(scheme, m, periods, initial, at, resources)

    @settings(max_examples=300, deadline=None)
    @given(cost_streams(), st.data())
    def test_coalesced_columns_emit_equal_signals(self, case, data):
        # columns m.. record columns 0..'s costs from another initial
        # signal; under every scheme but full_extreme, whose state holds
        # the initial signal, the two halves coalesce at window periods
        scheme, m, periods, initial = case
        other = None if initial is None else data.draw(st.lists(
            st.lists(endpoints, min_size=2, max_size=2).map(sorted),
            min_size=m, max_size=m))
        both = CostHistory(2 * m, scheme, None if initial is None
                           else np.array(initial + other))
        half = np.arange(m)
        coalesced_at = None
        for p in range(len(periods) + 1):
            signal = emit_signal(both)
            part = both.coalesced(half, half + m)
            if scheme.kind != "full_extreme":
                assert (part is not None) == (p >= both.window)
            if coalesced_at is None and part is not None:
                coalesced_at = p
            if coalesced_at is not None:
                assert (signal[:m] == signal[m:]).all(), (coalesced_at, p)
            if p < len(periods):
                both.record_period(periods[p] * 2)

    def test_equal_signals_from_unequal_rings_do_not_agree(self):
        # both rings hold 1 and 3, in other orders, so the next cost
        # overwrites the 1 of one and the 3 of the other
        h = CostHistory(2, extreme_scheme(2))
        h.record_period([1.0, 3.0])
        h.record_period([3.0, 1.0])
        assert emit_signal(h).tolist() == [[1.0, 3.0], [1.0, 3.0]]
        assert h.coalesced([0], [1]) is None
        h.record_period([2.0, 2.0])
        assert emit_signal(h).tolist() == [[2.0, 3.0], [1.0, 2.0]]

    def test_initial_signals_in_the_envelope_do_not_agree(self):
        # equal rings, but each column's initial signal is still read
        h = CostHistory(2, extreme_scheme(3),
                        np.array([[0.0, 1.0], [0.0, 2.0]]))
        for _ in range(2):
            h.record_period([0.5, 0.5])
            assert h.coalesced([0], [1]) is None
        assert emit_signal(h).tolist() == [[0.0, 1.0], [0.0, 2.0]]
        h.record_period([0.5, 0.5])
        assert h.coalesced([0], [1]) is not None
        assert emit_signal(h).tolist() == [[0.5, 0.5], [0.5, 0.5]]

    def test_equal_full_extreme_columns_agree_after_one_period(self):
        h = CostHistory(2, full_extreme_scheme(),
                        np.array([[0.2, 0.7], [0.2, 0.7]]))
        assert h.coalesced([0], [1]) is None
        h.record_period([0.4, 0.4])
        part = h.coalesced([0], [1])
        assert part.m_count == 1 and part.periods == 1
        assert emit_signal(part).tolist() == [[0.2, 0.7]]

    def test_zero_endpoints_follow_their_resources(self):
        # resource 1's -0.0 lower endpoint is resource 0's after the
        # restriction, and a recorded 0.0 ties it
        self.check(full_extreme_scheme(), 2, [[0.0, -0.0], [1.0, 0.0]],
                   [[0.0, 1.0], [-0.0, 3.0]], 1, [1])

    def test_leaves_the_whole_history_alone(self):
        whole = CostHistory(3, extreme_scheme(2), np.array(
            [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]))
        whole.record_period([5.0, 6.0, 7.0])
        whole.record_period([4.0, 6.0, 8.0])
        part = whole.coalesced([2, 0], [2, 0])
        part.record_period([0.5, 0.5])
        assert whole.periods == 2
        assert emit_signal(whole).tolist() == [[4.0, 5.0], [6.0, 6.0],
                                               [7.0, 8.0]]
