"""Cost-history bookkeeping and signal emission under each scheme."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalsig.signaling import (
    CostHistory,
    ValidationError,
    emit_signal,
    extreme_scheme,
    full_extreme_scheme,
    mean_scheme,
    now_scheme,
    scheme_from_name,
    subinterval_scheme,
)


def history_of(costs, m_count=1, window=10):
    h = CostHistory(m_count, window=window)
    for c in costs:
        h.record_period([c] * m_count)
    return h


def validate_subinterval(signal, history, r):
    """True iff every interval sits inside the r-window min/max envelope."""
    lo, hi = history.window_extremes(r)
    slack = 1e-12 * np.maximum(1.0, np.maximum(abs(lo), abs(hi)))
    return bool(np.all((lo - slack <= signal[:, 0])
                       & (signal[:, 0] <= signal[:, 1])
                       & (signal[:, 1] <= hi + slack)))


class TestRecord:
    def test_first_record_sets_aggregates(self):
        h = history_of([4.0], window=4)
        assert h.full_periods() == 1
        assert h.window_extremes(4) == (pytest.approx([4.0]),
                                        pytest.approx([4.0]))
        assert emit_signal(h, now_scheme(), 1)[0] == pytest.approx(
            (4.0, 4.0))
        assert emit_signal(h, mean_scheme(), 1)[0] == pytest.approx(
            (4.0, 4.0))

    def test_window_eviction(self):
        h = history_of([4.0, 7.0, 5.0], window=2)
        assert h.window_extremes(2) == (pytest.approx([5.0]),
                                        pytest.approx([7.0]))
        # running aggregates still cover the full stream
        assert emit_signal(h, full_extreme_scheme(), 1)[0] == pytest.approx(
            (4.0, 7.0))

    def test_period_width_checked(self):
        h = CostHistory(2)
        with pytest.raises(ValidationError):
            h.record_period([1.0, 2.0, 3.0])

    def test_negative_cost_rejected(self):
        h = CostHistory(1)
        with pytest.raises(ValidationError):
            h.record_period([-1.0])

    def test_non_finite_cost_rejected(self):
        h = CostHistory(2)
        with pytest.raises(ValidationError):
            h.record_period([1.0, math.inf])
        with pytest.raises(ValidationError):
            h.record_period([math.nan, 1.0])
        assert h.full_periods() == 0


class TestEmitSignal:
    def test_windowed_extremes_use_most_recent(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, extreme_scheme(2), 1)
        assert sig[0] == pytest.approx((5.0, 7.0))

    def test_full_extremes_use_everything(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, full_extreme_scheme(), 1)
        assert sig[0] == pytest.approx((4.0, 7.0))

    def test_mean_is_scalar(self):
        h = history_of([2.0, 4.0])
        sig = emit_signal(h, mean_scheme(), 1)
        assert sig[0] == pytest.approx((3.0, 3.0))

    def test_now_is_most_recent(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, now_scheme(), 1)
        assert sig[0] == pytest.approx((5.0, 5.0))

    def test_interval_warm_up_needs_two_periods(self):
        h = history_of([9.0])
        for scheme in (extreme_scheme(5), full_extreme_scheme(),
                       subinterval_scheme(5, 0.5)):
            sig = emit_signal(h, scheme, 1)
            assert sig[0] == pytest.approx((0.0, 0.0))

    def test_scalar_warm_up_needs_one_period(self):
        h = CostHistory(2)
        assert emit_signal(h, now_scheme(), 2)[1] == pytest.approx((0.0, 0.0))
        h.record_period([5.0, 3.0])
        assert emit_signal(h, now_scheme(), 2)[1] == pytest.approx((3.0, 3.0))
        assert emit_signal(h, mean_scheme(), 2)[0] == pytest.approx((5.0, 5.0))

    def test_subinterval_shrinks_about_midpoint(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, subinterval_scheme(2, 0.5), 1)
        assert sig[0] == pytest.approx((5.5, 6.5))

    def test_subinterval_alpha_one_is_extreme(self):
        h = history_of([4.0, 7.0, 5.0])
        a = emit_signal(h, subinterval_scheme(2, 1.0), 1)
        b = emit_signal(h, extreme_scheme(2), 1)
        assert np.array_equal(a, b)

    def test_subinterval_alpha_zero_is_midpoint(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, subinterval_scheme(2, 0.0), 1)
        assert sig[0] == pytest.approx((6.0, 6.0))

    def test_width_mismatch_rejected(self):
        h = CostHistory(2)
        with pytest.raises(ValidationError):
            emit_signal(h, now_scheme(), 3)

    def test_window_longer_than_history_rejected(self):
        # a history keeping two periods cannot answer a 5-window
        # envelope: over 1, 9, 5 it is [1, 9], not the [5, 9] it holds
        h = history_of([1.0, 9.0, 5.0], window=2)
        with pytest.raises(ValidationError):
            emit_signal(h, extreme_scheme(5), 1)
        with pytest.raises(ValidationError):
            emit_signal(h, subinterval_scheme(3, 0.5), 1)
        assert emit_signal(h, extreme_scheme(2), 1)[0] == pytest.approx(
            (5.0, 9.0))


class TestInitialSignal:
    INIT = np.array([[2.0, 6.0]])

    def test_is_the_signal_before_any_cost(self):
        for scheme in (now_scheme(), mean_scheme(), extreme_scheme(3),
                       full_extreme_scheme(), subinterval_scheme(3, 0.5)):
            h = CostHistory(1, window=scheme.history_window())
            assert np.array_equal(emit_signal(h, scheme, 1, self.INIT),
                                  self.INIT)

    def test_scalar_schemes_read_real_costs_only(self):
        h = history_of([9.0, 1.0])
        assert emit_signal(h, now_scheme(), 1, self.INIT)[0] == \
            pytest.approx((1.0, 1.0))
        assert emit_signal(h, mean_scheme(), 1, self.INIT)[0] == \
            pytest.approx((5.0, 5.0))

    def test_window_holds_initial_until_full(self):
        h = CostHistory(1, window=3)
        h.record_period([4.0])
        sig = emit_signal(h, extreme_scheme(3), 1, self.INIT)
        assert sig[0] == pytest.approx((2.0, 6.0))
        h.record_period([5.0])
        h.record_period([4.5])
        sig = emit_signal(h, extreme_scheme(3), 1, self.INIT)
        assert sig[0] == pytest.approx((4.0, 5.0))
        sig = emit_signal(h, subinterval_scheme(3, 0.5), 1, self.INIT)
        assert sig[0] == pytest.approx((4.25, 4.75))

    def test_full_envelope_keeps_initial(self):
        h = history_of([4.0] * 20)
        sig = emit_signal(h, full_extreme_scheme(), 1, self.INIT)
        assert sig[0] == pytest.approx((2.0, 6.0))


class TestValidateSubinterval:
    def test_extreme_output_is_nested(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, extreme_scheme(2), 1)
        assert validate_subinterval(sig, h, 2)

    def test_shrunk_output_is_nested(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, subinterval_scheme(2, 0.5), 1)
        assert validate_subinterval(sig, h, 2)

    def test_inflated_upper_bound_fails(self):
        h = history_of([4.0, 7.0, 5.0])
        sig = emit_signal(h, extreme_scheme(2), 1).copy()
        sig[0, 1] = emit_signal(h, full_extreme_scheme(), 1)[0, 1] + 1.0
        sig[0, 0] = 0.0
        assert not validate_subinterval(sig, h, 2)


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

    def test_extreme_requires_window_argument(self):
        with pytest.raises(ValidationError):
            scheme_from_name("extreme")


costs_stream = st.lists(
    st.floats(0, 100, allow_nan=False), min_size=2, max_size=30)


class TestSchemeProperties:
    @settings(max_examples=100, deadline=None)
    @given(costs_stream, st.integers(1, 10))
    def test_windowed_nested_in_full(self, costs, r):
        h = history_of(costs)
        windowed = emit_signal(h, extreme_scheme(r), 1)
        full = emit_signal(h, full_extreme_scheme(), 1)
        assert full[0, 0] <= windowed[0, 0] <= windowed[0, 1] <= full[0, 1]

    @settings(max_examples=100, deadline=None)
    @given(costs_stream)
    def test_window_of_one_equals_now_after_warm_up(self, costs):
        h = history_of(costs)
        assert np.array_equal(emit_signal(h, extreme_scheme(1), 1),
                              emit_signal(h, now_scheme(), 1))

    def test_window_of_one_differs_from_now_during_warm_up(self):
        h = history_of([5.0])
        assert emit_signal(h, now_scheme(), 1)[0] == pytest.approx((5.0, 5.0))
        assert emit_signal(h, extreme_scheme(1), 1)[0] == pytest.approx(
            (0.0, 0.0))

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0, 100, allow_nan=False), st.integers(2, 20))
    def test_constant_stream_collapses_every_scheme(self, c, n):
        h = history_of([c] * n)
        for scheme in (now_scheme(), mean_scheme(), extreme_scheme(3),
                       full_extreme_scheme(), subinterval_scheme(3, 0.5)):
            sig = emit_signal(h, scheme, 1)
            assert sig[0] == pytest.approx((c, c))

    @settings(max_examples=100, deadline=None)
    @given(costs_stream)
    def test_full_envelope_is_monotone(self, costs):
        h = CostHistory(1)
        prev_lo, prev_hi = math.inf, -math.inf
        for i, c in enumerate(costs):
            h.record_period([c])
            if i >= 1:
                sig = emit_signal(h, full_extreme_scheme(), 1)
                assert sig[0, 0] <= prev_lo or prev_lo is math.inf
                assert sig[0, 1] >= prev_hi or prev_hi is -math.inf
                prev_lo, prev_hi = sig[0, 0], sig[0, 1]

    @settings(max_examples=100, deadline=None)
    @given(costs_stream, st.integers(1, 8), st.floats(0, 1))
    def test_emitted_intervals_always_validate(self, costs, r, alpha):
        h = history_of(costs)
        sig = emit_signal(h, subinterval_scheme(r, alpha), 1)
        assert validate_subinterval(sig, h, r)
        assert sig[0, 0] <= sig[0, 1]
