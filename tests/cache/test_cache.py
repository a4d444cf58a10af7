"""Tests for the reference cache model and the fast trace path."""

import numpy as np
import pytest

from repro.cache.cache import Cache, simulate_trace
from repro.cache.config import CacheConfig

TINY = CacheConfig(size_kb=2, assoc=1, line_b=16)  # 128 sets, direct mapped
SMALL_2W = CacheConfig(size_kb=2, assoc=2, line_b=16)  # 64 sets, 2-way


class TestBasicBehaviour:
    def test_first_access_misses(self):
        cache = Cache(TINY)
        assert not cache.access(0).hit
        assert cache.stats.misses == 1
        assert cache.stats.compulsory_misses == 1

    def test_second_access_same_line_hits(self):
        cache = Cache(TINY)
        cache.access(0)
        assert cache.access(8).hit  # same 16B line
        assert cache.stats.hits == 1

    def test_different_line_misses(self):
        cache = Cache(TINY)
        cache.access(0)
        assert not cache.access(16).hit

    def test_direct_mapped_conflict(self):
        cache = Cache(TINY)
        stride = TINY.num_sets * TINY.line_b  # same set, different tag
        cache.access(0)
        cache.access(stride)
        assert not cache.access(0).hit  # evicted by the conflicting line

    def test_two_way_absorbs_conflict(self):
        cache = Cache(SMALL_2W)
        stride = SMALL_2W.num_sets * SMALL_2W.line_b
        cache.access(0)
        cache.access(stride)
        assert cache.access(0).hit  # both lines fit in a 2-way set

    def test_lru_eviction_in_set(self):
        cache = Cache(SMALL_2W)
        stride = SMALL_2W.num_sets * SMALL_2W.line_b
        cache.access(0)
        cache.access(stride)
        cache.access(0)  # 0 is now MRU
        cache.access(2 * stride)  # evicts `stride`
        assert cache.access(0).hit
        assert not cache.access(stride).hit

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Cache(TINY).access(-1)

    def test_set_index_and_line_addr(self):
        cache = Cache(TINY)
        assert cache.line_addr(35) == 2
        assert cache.set_index(35) == 2
        wrap = TINY.num_sets * TINY.line_b + 35
        assert cache.set_index(wrap) == 2

    def test_contains_and_resident_lines(self):
        cache = Cache(TINY)
        assert not cache.contains(0)
        cache.access(0)
        assert cache.contains(0)
        assert cache.contains(12)  # same line
        assert cache.resident_lines == 1


class TestWritePolicies:
    def test_write_through_has_no_writebacks(self):
        cache = Cache(TINY, write_back=False)
        cache.access(0, is_write=True)
        cache.access(TINY.num_sets * TINY.line_b, is_write=True)  # evicts
        assert cache.stats.writebacks == 0

    def test_write_back_writes_dirty_victims(self):
        cache = Cache(TINY, write_back=True)
        stride = TINY.num_sets * TINY.line_b
        cache.access(0, is_write=True)
        result = cache.access(stride)
        assert result.writeback_line_addr == 0
        assert cache.stats.writebacks == 1

    def test_clean_victim_not_written_back(self):
        cache = Cache(TINY, write_back=True)
        stride = TINY.num_sets * TINY.line_b
        cache.access(0)  # clean read
        result = cache.access(stride)
        assert result.writeback_line_addr is None

    def test_write_hit_dirties_line(self):
        cache = Cache(TINY, write_back=True)
        stride = TINY.num_sets * TINY.line_b
        cache.access(0)
        cache.access(0, is_write=True)  # hit, dirties
        cache.access(stride)
        assert cache.stats.writebacks == 1

    def test_write_counters(self):
        cache = Cache(TINY)
        cache.access(0, is_write=True)
        cache.access(0, is_write=False)
        cache.access(16, is_write=True)
        stats = cache.stats
        assert stats.write_accesses == 2
        assert stats.read_accesses == 1
        assert stats.write_misses == 2
        assert stats.read_misses == 0
        stats.validate()


class TestFlush:
    def test_flush_empties_cache(self):
        cache = Cache(TINY)
        for i in range(5):
            cache.access(i * 16)
        assert cache.resident_lines == 5
        cache.flush()
        assert cache.resident_lines == 0
        assert cache.stats.flushed_lines == 5

    def test_flush_writes_back_dirty(self):
        cache = Cache(TINY, write_back=True)
        cache.access(0, is_write=True)
        cache.access(16)
        assert cache.flush() == 1
        assert cache.stats.writebacks == 1

    def test_post_flush_accesses_miss(self):
        cache = Cache(TINY)
        cache.access(0)
        cache.flush()
        assert not cache.access(0).hit
        # A re-fetched line is not compulsory again.
        assert cache.stats.compulsory_misses == 1


class TestRunTrace:
    def test_run_trace_accumulates(self):
        cache = Cache(TINY)
        stats = cache.run_trace([0, 0, 16, 0])
        assert stats.accesses == 4
        assert stats.hits == 2
        assert stats.misses == 2

    def test_run_trace_with_writes(self):
        cache = Cache(TINY)
        stats = cache.run_trace([0, 16], writes=[True, False])
        assert stats.write_accesses == 1

    def test_writes_length_mismatch(self):
        with pytest.raises(ValueError):
            Cache(TINY).run_trace([0, 16], writes=[True])


class TestFastPath:
    def test_matches_reference_on_simple_trace(self):
        trace = [0, 16, 0, 32, 2048, 0, 16]
        fast = simulate_trace(trace, TINY)
        ref = Cache(TINY).run_trace(trace)
        assert fast.hits == ref.hits
        assert fast.misses == ref.misses
        assert fast.compulsory_misses == ref.compulsory_misses

    def test_matches_reference_on_random_traces(self):
        rng = np.random.default_rng(42)
        for config in (TINY, SMALL_2W, CacheConfig(size_kb=8, assoc=4, line_b=64)):
            trace = rng.integers(0, 64 * 1024, size=4000)
            writes = rng.random(4000) < 0.3
            fast = simulate_trace(trace, config, writes=writes)
            ref = Cache(config).run_trace(trace.tolist(), writes.tolist())
            assert fast.hits == ref.hits
            assert fast.misses == ref.misses
            assert fast.write_misses == ref.write_misses
            assert fast.evictions == ref.evictions
            assert fast.fills == ref.fills
            assert fast.compulsory_misses == ref.compulsory_misses

    def test_accepts_numpy_and_lists(self):
        trace = np.array([0, 16, 0])
        a = simulate_trace(trace, TINY)
        b = simulate_trace([0, 16, 0], TINY)
        assert a.hits == b.hits == 1

    def test_write_mask_length_checked(self):
        with pytest.raises(ValueError):
            simulate_trace([0, 16], TINY, writes=[True])

    def test_empty_trace(self):
        stats = simulate_trace([], TINY)
        assert stats.accesses == 0
        assert stats.miss_rate == 0.0

    def test_stats_validate(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 8192, size=1000)
        simulate_trace(trace, SMALL_2W).validate()

