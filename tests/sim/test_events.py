"""Tests for event types and ordering."""

import pytest

from repro.sim.events import Event, EventKind


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(time=-1, kind=EventKind.ARRIVAL)

    def test_sort_key_orders_by_time_first(self):
        early = Event(time=1, kind=EventKind.ARRIVAL)
        late = Event(time=2, kind=EventKind.COMPLETION)
        assert early.sort_key(5) < late.sort_key(0)

    def test_completion_before_arrival_at_same_time(self):
        # Completions free cores before new arrivals are considered.
        completion = Event(time=7, kind=EventKind.COMPLETION)
        arrival = Event(time=7, kind=EventKind.ARRIVAL)
        assert completion.sort_key(10) < arrival.sort_key(0)

    def test_sequence_breaks_remaining_ties(self):
        a = Event(time=3, kind=EventKind.ARRIVAL)
        b = Event(time=3, kind=EventKind.ARRIVAL)
        assert a.sort_key(0) < b.sort_key(1)

    def test_payload_carried(self):
        event = Event(time=0, kind=EventKind.ARRIVAL, payload={"core": 2})
        assert event.payload == {"core": 2}

    def test_kind_priorities(self):
        assert EventKind.COMPLETION < EventKind.ARRIVAL
