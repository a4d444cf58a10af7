"""Tests for the shared-L2 model and interference measurement."""

import numpy as np
import pytest

from repro.cache.config import CacheConfig
from tests.ablation.caches import (
    CORE_ADDRESS_STRIDE,
    SharedL2System,
    interference_penalty,
)

L1 = CacheConfig(2, 1, 32)
L2 = CacheConfig(16, 4, 64)


def looping_trace(lines, sweeps, line_b=32):
    base = np.arange(lines, dtype=np.int64) * line_b
    return np.tile(base, sweeps)


class TestSharedL2System:
    def test_single_core_matches_private_hierarchy(self):
        """With one core, the shared L2 *is* a private L2."""
        from tests.ablation.caches import CacheHierarchy

        trace = looping_trace(200, 5)
        shared = SharedL2System([L1], L2).run([trace])
        private = CacheHierarchy(L1, L2).run_trace(trace.tolist())
        assert shared.l1_stats[0].misses == private.l1.misses
        assert shared.memory_accesses[0] == private.memory_accesses

    def test_l2_counts_partition_l1_misses(self):
        traces = [looping_trace(100, 3), looping_trace(150, 3)]
        result = SharedL2System([L1, L1], L2).run(traces)
        for core in range(2):
            assert (
                result.l2_hits[core] + result.l2_misses[core]
                == result.l1_stats[core].misses
            )

    def test_cores_do_not_alias(self):
        """Identical traces on two cores occupy disjoint address space."""
        trace = looping_trace(50, 2)
        result = SharedL2System([L1, L1], L2).run([trace, trace])
        # Both cores see identical L1 behaviour.
        assert result.l1_stats[0].misses == result.l1_stats[1].misses
        assert CORE_ADDRESS_STRIDE > trace.max()

    def test_interference_increases_l2_misses(self):
        """Two working sets that fit the L2 alone but not together."""
        # Each loop: 300 lines * 64B-ish footprint ~ 9.6KB; two ~ 19KB > 16KB.
        a = looping_trace(300, 10)
        b = looping_trace(300, 10)
        alone = SharedL2System([L1], L2).run([a])
        together = SharedL2System([L1, L1], L2).run([a, b])
        assert together.memory_accesses[0] > alone.memory_accesses[0]

    def test_l2_miss_rate_helper(self):
        result = SharedL2System([L1], L2).run([looping_trace(50, 2)])
        assert 0.0 <= result.l2_miss_rate(0) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedL2System([], L2)
        with pytest.raises(ValueError):
            SharedL2System([L1], L2, window=0)
        with pytest.raises(ValueError):
            SharedL2System([CacheConfig(8, 4, 64)], CacheConfig(4, 1, 16))
        system = SharedL2System([L1, L1], L2)
        with pytest.raises(ValueError):
            system.run([looping_trace(10, 1)])  # one trace, two cores
        with pytest.raises(ValueError):
            system.run(
                [looping_trace(10, 1), looping_trace(10, 1)],
                writes=[[True]],
            )

    def test_writes_mask_accepted(self):
        trace = looping_trace(20, 2)
        mask = np.zeros(len(trace), dtype=bool)
        mask[::3] = True
        result = SharedL2System([L1], L2).run([trace], writes=[mask])
        assert result.l1_stats[0].write_accesses == int(mask.sum())


class TestInterferencePenalty:
    def test_no_interference_when_l2_holds_everything(self):
        small = [looping_trace(20, 5), looping_trace(20, 5)]
        penalties = interference_penalty([L1, L1], small, L2)
        for value in penalties.values():
            assert value == pytest.approx(1.0)

    def test_penalty_when_working_sets_collide(self):
        heavy = [looping_trace(300, 10), looping_trace(300, 10)]
        penalties = interference_penalty([L1, L1], heavy, L2)
        assert max(penalties.values()) > 1.5

    def test_penalty_never_below_one_for_lru_loops(self):
        traces = [looping_trace(100, 5), looping_trace(250, 5)]
        penalties = interference_penalty([L1, L1], traces, L2)
        for value in penalties.values():
            assert value >= 0.99
