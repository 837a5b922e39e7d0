"""Tests for the discrete-event simulated clock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RadioError
from repro.radio.clock import SimClock


class TestAdvancing:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=100.0).now == 100.0

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(5.0)
        assert clock.now == 5.0

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(7.5)
        assert clock.now == 7.5

    def test_backwards_rejected(self):
        clock = SimClock()
        clock.advance(1.0)
        with pytest.raises(RadioError):
            clock.advance(-0.5)
        with pytest.raises(RadioError):
            clock.advance_to(0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("method", ["advance", "advance_to"])
    def test_non_finite_rejected(self, method, value):
        # A NaN deadline would leave `now` at NaN and no event would fire
        # again; an infinite one would never return.
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(clock.now))
        with pytest.raises(RadioError):
            getattr(clock, method)(value)
        assert clock.now == 0.0
        clock.advance(2.0)
        assert fired == [1.0]


class TestScheduling:
    def test_event_fires_at_deadline(self):
        clock = SimClock()
        fired = []
        clock.schedule(2.0, lambda: fired.append(clock.now))
        clock.advance(1.9)
        assert fired == []
        clock.advance(0.2)
        assert fired == [2.0]

    def test_events_fire_in_order(self):
        clock = SimClock()
        order = []
        clock.schedule(3.0, lambda: order.append("c"))
        clock.schedule(1.0, lambda: order.append("a"))
        clock.schedule(2.0, lambda: order.append("b"))
        clock.advance(5.0)
        assert order == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        clock = SimClock()
        order = []
        clock.schedule(1.0, lambda: order.append(1))
        clock.schedule(1.0, lambda: order.append(2))
        clock.advance(1.0)
        assert order == [1, 2]

    def test_negative_delay_rejected(self):
        with pytest.raises(RadioError):
            SimClock().schedule(-1.0, lambda: None)

    def test_cancel(self):
        clock = SimClock()
        fired = []
        event = clock.schedule(1.0, lambda: fired.append(1))
        clock.cancel(event)
        clock.advance(2.0)
        assert fired == []

    def test_cancel_after_fire_is_noop(self):
        clock = SimClock()
        event = clock.schedule(0.5, lambda: None)
        clock.advance(1.0)
        clock.cancel(event)  # must not raise

    def test_nested_scheduling(self):
        clock = SimClock()
        fired = []

        def outer():
            clock.schedule(1.0, lambda: fired.append(clock.now))

        clock.schedule(1.0, outer)
        clock.advance(3.0)
        assert fired == [2.0]

    def test_nested_event_due_within_same_advance(self):
        clock = SimClock()
        fired = []
        clock.schedule(0.5, lambda: clock.schedule(0.1, lambda: fired.append(clock.now)))
        clock.advance(1.0)
        assert fired == [0.6]

    def test_pending_events(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None)
        assert clock.pending_events == 1

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
    @settings(max_examples=30)
    def test_events_always_fire_in_time_order(self, delays):
        clock = SimClock()
        fired = []
        for delay in delays:
            clock.schedule(delay, lambda: fired.append(clock.now))
        clock.advance(101.0)
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

