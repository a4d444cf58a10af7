"""Golden-vector tests: hand-computed hit/miss sequences.

These anchor the LRU cache model against worked examples (the kind
one computes on paper in an architecture course), so any behavioural
regression in the cache model is caught by an exact sequence, not just
aggregate counts.
"""

import pytest

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig

# One set, two ways, 16B lines: the minimal interesting cache.
TWO_WAY_ONE_SET = CacheConfig(size_kb=1, assoc=32, line_b=16)
# (1KB/16B = 64 lines; force a single set via assoc = lines.)


def run_sequence(cache, line_ids):
    """Access 16B-aligned lines by small integer id; return hit pattern."""
    return [cache.access(line_id * 16).hit for line_id in line_ids]


class TestFullyAssociativeLRU:
    def test_two_way_classic_sequence(self):
        # 2-way fully associative over lines A B A C B: textbook LRU.
        cache = Cache(CacheConfig(size_kb=1, assoc=2, line_b=16))
        # This cache has 32 sets; keep every line in set 0 by striding
        # by num_sets * line_b.
        stride = cache.config.num_sets
        a, b, c = 0, stride, 2 * stride
        pattern = run_sequence(cache, [a, b, a, c, b])
        #  A:miss  B:miss  A:hit  C:miss(evict B)  B:miss
        assert pattern == [False, False, True, False, False]

    def test_lru_keeps_recently_used(self):
        cache = Cache(CacheConfig(size_kb=1, assoc=2, line_b=16))
        stride = cache.config.num_sets
        a, b, c = 0, stride, 2 * stride
        pattern = run_sequence(cache, [a, b, b, c, b, a])
        #  A:m  B:m  B:h  C:m(evict A, B recent)  B:h  A:m
        assert pattern == [False, False, True, False, True, False]


class TestLRUDivergenceVector:
    def test_classic_divergence_sequence(self):
        """A B A C A: LRU evicts B for C because A was touched (FIFO,
        evicting the first line in, would miss on the last A)."""
        cache = Cache(CacheConfig(size_kb=1, assoc=2, line_b=16))
        stride = cache.config.num_sets
        a, b, c = 0, stride, 2 * stride
        seq = [a, b, a, c, a]
        #            LRU: m m h m h   (C evicts B; A survives)
        assert run_sequence(cache, seq) == [False, False, True, False, True]


class TestDirectMappedGolden:
    def test_thrash_pair(self):
        cache = Cache(CacheConfig(size_kb=2, assoc=1, line_b=16))
        stride = cache.config.num_sets  # same-set conflict in line ids
        a, b = 0, stride
        pattern = run_sequence(cache, [a, b, a, b, a])
        assert pattern == [False, False, False, False, False]

    def test_disjoint_sets_no_conflict(self):
        cache = Cache(CacheConfig(size_kb=2, assoc=1, line_b=16))
        pattern = run_sequence(cache, [0, 1, 0, 1])
        assert pattern == [False, False, True, True]


class TestWriteGolden:
    def test_write_back_dirty_propagation_sequence(self):
        cache = Cache(CacheConfig(size_kb=2, assoc=1, line_b=16),
                      write_back=True)
        stride = cache.config.num_sets * 16
        cache.access(0, is_write=True)     # fill dirty
        cache.access(16)                   # different set, clean
        result = cache.access(stride)      # evicts dirty line 0
        assert result.writeback_line_addr == 0
        result = cache.access(16 + stride) # evicts clean line 1
        assert result.writeback_line_addr is None
        assert cache.stats.writebacks == 1
