"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventEngine
from repro.sim.events import Event, EventKind


class TestScheduling:
    def test_pop_in_time_order(self):
        engine = EventEngine()
        for t in (5, 1, 3):
            engine.schedule_at(t, EventKind.ARRIVAL)
        times = [engine.pop().time for _ in range(3)]
        assert times == [1, 3, 5]

    def test_clock_advances(self):
        engine = EventEngine()
        engine.schedule_at(10, EventKind.ARRIVAL)
        assert engine.now == 0
        engine.pop()
        assert engine.now == 10

    def test_cannot_schedule_in_past(self):
        engine = EventEngine()
        engine.schedule_at(10, EventKind.ARRIVAL)
        engine.pop()
        with pytest.raises(ValueError):
            engine.schedule_at(5, EventKind.ARRIVAL)

    def test_same_time_allowed(self):
        engine = EventEngine()
        engine.schedule_at(10, EventKind.ARRIVAL)
        engine.pop()
        engine.schedule_at(10, EventKind.ARRIVAL)  # now == 10 is fine
        assert engine.pop().time == 10

    def test_tie_break_completion_first(self):
        engine = EventEngine()
        engine.schedule_at(4, EventKind.ARRIVAL, payload="a")
        engine.schedule_at(4, EventKind.COMPLETION, payload="c")
        assert engine.pop().payload == "c"
        assert engine.pop().payload == "a"

    def test_insertion_order_tie_break(self):
        engine = EventEngine()
        for name in ("first", "second", "third"):
            engine.schedule_at(2, EventKind.ARRIVAL, payload=name)
        popped = [engine.pop().payload for _ in range(3)]
        assert popped == ["first", "second", "third"]

    def test_pop_empty_returns_none(self):
        assert EventEngine().pop() is None

    def test_peek_time(self):
        engine = EventEngine()
        assert engine.peek_time() is None
        engine.schedule_at(9, EventKind.ARRIVAL)
        assert engine.peek_time() == 9
        assert engine.pending == 1


class TestRun:
    def test_run_drains_queue(self):
        engine = EventEngine()
        seen = []
        for t in (3, 1, 2):
            engine.schedule_at(t, EventKind.ARRIVAL, payload=t)
        count = engine.run(lambda e: seen.append(e.payload))
        assert count == 3
        assert seen == [1, 2, 3]
        assert engine.processed == 3

    def test_handler_can_schedule_more(self):
        engine = EventEngine()
        seen = []

        def handler(event):
            seen.append(event.time)
            if event.time < 3:
                engine.schedule_at(event.time + 1, EventKind.ARRIVAL)

        engine.schedule_at(0, EventKind.ARRIVAL)
        engine.run(handler)
        assert seen == [0, 1, 2, 3]

    def test_until_bound(self):
        engine = EventEngine()
        for t in (1, 2, 10):
            engine.schedule_at(t, EventKind.ARRIVAL)
        count = engine.run(lambda e: None, until=5)
        assert count == 2
        assert engine.pending == 1

    def test_max_events_bound(self):
        engine = EventEngine()
        for t in range(10):
            engine.schedule_at(t, EventKind.ARRIVAL)
        count = engine.run(lambda e: None, max_events=4)
        assert count == 4
        assert engine.pending == 6

    def test_deterministic_across_runs(self):
        def simulate():
            engine = EventEngine()
            order = []
            for i, t in enumerate([4, 4, 2, 4, 2]):
                engine.schedule_at(t, EventKind.ARRIVAL, payload=i)
            engine.run(lambda e: order.append(e.payload))
            return order

        assert simulate() == simulate()
