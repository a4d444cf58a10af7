"""Property-based tests for the event engine, queue and scheduler."""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventEngine
from repro.sim.events import EventKind
from repro.sim.queueing import ReadyQueue


class TestEngineProperties:
    @given(times=st.lists(st.integers(0, 10**6), min_size=1, max_size=200))
    @settings(max_examples=80, deadline=None)
    def test_events_pop_in_nondecreasing_time(self, times):
        engine = EventEngine()
        for t in times:
            engine.schedule_at(t, EventKind.ARRIVAL)
        popped = []
        while True:
            event = engine.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(times)

    @given(times=st.lists(st.integers(0, 100), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_equal_times_preserve_insertion_order(self, times):
        engine = EventEngine()
        for i, t in enumerate(times):
            engine.schedule_at(t, EventKind.ARRIVAL, payload=i)
        order = []
        engine.run(lambda e: order.append((e.time, e.payload)))
        # Stable: among equal times, payloads ascend.
        for (t1, p1), (t2, p2) in zip(order, order[1:]):
            if t1 == t2:
                assert p1 < p2

    @given(times=st.lists(st.integers(0, 1000), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_processed_count(self, times):
        engine = EventEngine()
        for t in times:
            engine.schedule_at(t, EventKind.ARRIVAL)
        count = engine.run(lambda e: None)
        assert count == len(times) == engine.processed
        assert engine.pending == 0


class TestQueueProperties:
    @given(items=st.lists(st.integers(), min_size=0, max_size=100))
    @settings(max_examples=80, deadline=None)
    def test_fifo_order(self, items):
        queue = ReadyQueue()
        for item in items:
            queue.push(item)
        assert list(queue) == items

    @given(items=st.lists(st.integers(), min_size=0, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_max_length_is_peak(self, items):
        queue = ReadyQueue()
        for item in items:
            queue.push(item)
        assert queue.max_length == len(items)
