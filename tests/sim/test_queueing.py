"""Tests for the FIFO ready queue."""

from repro.sim.queueing import ReadyQueue


class TestFIFO:
    def test_order(self):
        queue = ReadyQueue()
        for item in "abc":
            queue.push(item)
        assert list(queue) == ["a", "b", "c"]
        assert queue.remove("a")
        assert list(queue) == ["b", "c"]

    def test_len_and_bool(self):
        queue = ReadyQueue()
        assert not queue
        queue.push(1)
        assert queue
        assert len(queue) == 1

    def test_iteration_order(self):
        queue = ReadyQueue()
        for i in range(4):
            queue.push(i)
        assert list(queue) == [0, 1, 2, 3]


class TestStats:
    def test_max_length_tracked(self):
        queue = ReadyQueue()
        for i in range(5):
            queue.push(i)
        for i in range(3):
            queue.remove(i)
        queue.push(9)
        assert queue.max_length == 5
        assert queue.enqueued_total == 6

    def test_remove(self):
        queue = ReadyQueue()
        for i in range(3):
            queue.push(i)
        assert queue.remove(1)
        assert not queue.remove(42)
        assert list(queue) == [0, 2]

    def test_compaction_keeps_order_and_identity_removal(self):
        jobs = [[i] for i in range(300)]  # distinct objects, by identity
        queue = ReadyQueue()
        for job in jobs:
            queue.push(job)
        for job in jobs[:250]:
            assert queue.remove(job)
        # Enough tombstones were left to force at least one compaction.
        assert len(queue._items) < 300
        assert list(queue) == jobs[250:]
        assert queue.remove(jobs[-1])
        assert queue.remove([260])  # an equal list that is not queued
        assert list(queue) == jobs[250:260] + jobs[261:299]
        assert len(queue) == 48
