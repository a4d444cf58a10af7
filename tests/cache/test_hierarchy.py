"""Tests for the two-level cache hierarchy."""

import pytest

from repro.cache.config import CacheConfig
from tests.ablation.caches import DEFAULT_L2_CONFIG, CacheHierarchy

L1 = CacheConfig(size_kb=2, assoc=1, line_b=16)
L2 = CacheConfig(size_kb=8, assoc=2, line_b=16)


class TestHierarchy:
    def test_l1_hit_never_reaches_l2(self):
        h = CacheHierarchy(L1, L2)
        h.access(0)
        result = h.access(0)
        assert result.l1_hit
        assert not result.memory_access
        assert h.l2.stats.accesses == 1  # only the first miss went down

    def test_l1_miss_l2_hit(self):
        h = CacheHierarchy(L1, L2)
        stride = L1.num_sets * L1.line_b
        h.access(0)
        h.access(stride)  # evicts 0 from L1, both now in L2
        result = h.access(0)
        assert not result.l1_hit
        assert result.l2_hit
        assert not result.memory_access

    def test_cold_miss_reaches_memory(self):
        h = CacheHierarchy(L1, L2)
        result = h.access(0)
        assert not result.l1_hit
        assert result.l2_hit is False
        assert result.memory_access

    def test_no_l2_means_miss_goes_to_memory(self):
        h = CacheHierarchy(L1)
        result = h.access(0)
        assert result.memory_access
        assert h.l2 is None

    def test_l1_writeback_reaches_l2(self):
        h = CacheHierarchy(L1, L2, write_back=True)
        stride = L1.num_sets * L1.line_b
        h.access(0, is_write=True)
        l2_accesses_before = h.l2.stats.accesses
        h.access(stride)  # evicts dirty line 0 -> L2 write
        assert h.l2.stats.accesses == l2_accesses_before + 2

    def test_l2_must_be_at_least_l1(self):
        with pytest.raises(ValueError):
            CacheHierarchy(L2, L1)

    def test_run_trace_counts_memory_accesses(self):
        h = CacheHierarchy(L1, L2)
        stats = h.run_trace([0, 0, 16, 0])
        assert stats.l1.accesses == 4
        assert stats.memory_accesses == 2
        assert stats.global_miss_rate == pytest.approx(0.5)

    def test_run_trace_write_mask_checked(self):
        with pytest.raises(ValueError):
            CacheHierarchy(L1).run_trace([0, 16], writes=[True])

    def test_flush_clears_both_levels(self):
        h = CacheHierarchy(L1, L2)
        h.access(0)
        h.flush()
        assert h.l1.resident_lines == 0
        assert h.l2.resident_lines == 0

    def test_l2_filters_misses(self):
        """With L2, far fewer accesses reach memory than without."""
        import numpy as np

        rng = np.random.default_rng(7)
        # Working set larger than L1 (2KB) but inside L2 (32KB).
        trace = (rng.integers(0, 16 * 1024 // 4, size=6000) * 4).tolist()
        with_l2 = CacheHierarchy(L1, DEFAULT_L2_CONFIG).run_trace(trace)
        without = CacheHierarchy(L1).run_trace(trace)
        assert with_l2.memory_accesses < without.memory_accesses

    def test_global_miss_rate_empty(self):
        h = CacheHierarchy(L1)
        stats = h.run_trace([])
        assert stats.global_miss_rate == 0.0
