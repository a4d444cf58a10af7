"""Unit tests for the stack-distance characterisation engine."""

import numpy as np
import pytest

from repro.cache.cache import Cache
from repro.cache.config import DESIGN_SPACE, CacheConfig
from repro.cache.stackdist import (
    StackDistanceProfile,
    _as_addresses,
    profile_trace,
    simulate_many,
)
from repro.characterization import expand_suite
from repro.workloads import eembc_suite
from tests.oracles import simulate_trace_per_config

#: Partition depths: direct-mapped (no stack level), 2-way (one level),
#: 3-way (measured 4 deep), 4-way (three levels) and 8-way (seven).
PARTITION_DEPTHS = (1, 2, 3, 4, 8)


def _profile(addresses, *, line_b=64, num_sets=4, max_assoc=4, writes=None):
    return profile_trace(
        addresses, line_b=line_b, num_sets=num_sets,
        max_assoc=max_assoc, writes=writes,
    )


class TestProfileTrace:
    def test_repeated_line_hits_at_depth_zero(self):
        profile = _profile([0, 0, 0, 0])
        assert profile.accesses == 4
        assert profile.depth_hist[0] == 3
        assert profile.compulsory_misses == 1

    def test_distinct_lines_all_miss(self):
        # Four lines, same set (num_sets=4, stride 4 lines of 64B).
        profile = _profile([0, 1024, 2048, 4096])
        assert profile.hits_for_assoc(4) == 0
        assert profile.compulsory_misses == 4

    def test_depth_histogram_shape(self):
        profile = _profile([0, 64, 0], max_assoc=2, num_sets=1)
        # max_assoc + 1 buckets; the last one is the miss bucket.
        assert len(profile.depth_hist) == 3
        assert sum(profile.depth_hist) == profile.accesses
        # 0 then 64 miss; the second 0 hits at depth 1.
        assert profile.depth_hist[1] == 1
        assert profile.depth_hist[2] == 2

    def test_hits_monotone_in_assoc(self):
        rng = np.random.default_rng(0)
        addresses = rng.integers(0, 1 << 14, size=500)
        profile = _profile(addresses, num_sets=8)
        hits = [profile.hits_for_assoc(a) for a in range(1, 5)]
        assert hits == sorted(hits)

    def test_miss_curve_decreasing(self):
        rng = np.random.default_rng(1)
        addresses = rng.integers(0, 1 << 14, size=500)
        profile = _profile(addresses, num_sets=8)
        curve = profile.miss_curve()
        assert len(curve) == 4
        assert list(curve) == sorted(curve, reverse=True)

    def test_empty_trace(self):
        profile = _profile([])
        assert profile.accesses == 0
        stats = profile.stats_for_assoc(1)
        assert stats.accesses == 0
        assert stats.misses == 0

    def test_numpy_and_list_inputs_agree(self):
        addresses = [0, 64, 128, 0, 64, 4096]
        from_list = _profile(addresses)
        from_array = _profile(np.asarray(addresses, dtype=np.int64))
        assert from_list == from_array

    def test_write_mask_counted(self):
        writes = [True, False, True, False]
        profile = _profile([0, 0, 64, 64], num_sets=1, writes=writes)
        assert profile.write_accesses == 2
        assert sum(profile.write_depth_hist) == 2

    def test_mismatched_write_mask_rejected(self):
        with pytest.raises(ValueError, match="writes mask length"):
            _profile([0, 64], writes=[True])

    def test_multidimensional_addresses_rejected(self):
        with pytest.raises(ValueError):
            _profile(np.zeros((2, 2), dtype=np.int64))

    @pytest.mark.parametrize("max_assoc", PARTITION_DEPTHS)
    def test_empty_trace_every_depth(self, max_assoc):
        profile = _profile([], num_sets=16, max_assoc=max_assoc, writes=[])
        assert sum(profile.depth_hist) == sum(profile.write_depth_hist) == 0
        assert profile.compulsory_misses == 0
        assert profile.set_distinct == (0,) * 16
        for assoc in range(1, max_assoc + 1):
            # An assoc-KB, assoc-way cache of 64B lines has 16 sets.
            ref = Cache(CacheConfig(assoc, assoc, 64)).run_trace([], [])
            assert profile.stats_for_assoc(assoc) == ref

    @pytest.mark.parametrize("max_assoc", PARTITION_DEPTHS)
    def test_single_access_every_depth(self, max_assoc):
        trace, writes = [3 * 64 + 5], [True]  # line 3, set 3
        profile = _profile(
            trace, num_sets=16, max_assoc=max_assoc, writes=writes
        )
        # A 3-deep request is measured 4 deep.
        assert profile.max_assoc == (4 if max_assoc == 3 else max_assoc)
        miss_only = (0,) * profile.max_assoc + (1,)
        assert profile.depth_hist == profile.write_depth_hist == miss_only
        assert profile.compulsory_misses == 1
        assert profile.set_distinct == (0, 0, 0, 1) + (0,) * 12
        for assoc in range(1, max_assoc + 1):
            ref = Cache(CacheConfig(assoc, assoc, 64)).run_trace(trace, writes)
            assert profile.stats_for_assoc(assoc) == ref

    def test_assoc_out_of_range_rejected(self):
        profile = _profile([0, 64], max_assoc=2)
        with pytest.raises(ValueError):
            profile.stats_for_assoc(0)
        with pytest.raises(ValueError):
            profile.stats_for_assoc(3)


class TestStatsForAssoc:
    def test_matches_reference_cache_exactly(self):
        rng = np.random.default_rng(2)
        addresses = rng.integers(0, 1 << 15, size=800)
        writes = rng.random(800) < 0.3
        for config in (CacheConfig(2, 1, 64), CacheConfig(8, 4, 64)):
            profile = profile_trace(
                addresses, line_b=config.line_b,
                num_sets=config.num_sets, max_assoc=config.assoc,
                writes=writes,
            )
            cache = Cache(config)
            ref = cache.run_trace(addresses, writes)
            assert profile.stats_for_assoc(config.assoc) == ref

    def test_one_profile_serves_all_associativities(self):
        # 8KB_4W, 4KB_2W and 2KB_1W at 64B lines share num_sets=32.
        rng = np.random.default_rng(3)
        addresses = rng.integers(0, 1 << 15, size=600)
        profile = profile_trace(
            addresses, line_b=64, num_sets=32, max_assoc=4
        )
        for size_kb, assoc in ((2, 1), (4, 2), (8, 4)):
            config = CacheConfig(size_kb, assoc, 64)
            ref = Cache(config).run_trace(addresses)
            assert profile.stats_for_assoc(assoc) == ref


class TestSimulateMany:
    def test_covers_requested_configs(self):
        rng = np.random.default_rng(4)
        addresses = rng.integers(0, 1 << 14, size=300)
        many = simulate_many(addresses, DESIGN_SPACE)
        assert set(many) == set(DESIGN_SPACE)

    def test_duplicate_configs_accepted(self):
        config = CacheConfig(4, 2, 32)
        many = simulate_many([0, 32, 64, 0], (config, config))
        assert set(many) == {config}

    def test_requires_configs(self):
        many = simulate_many([0, 64], ())
        assert many == {}

    def test_eight_way_matches_reference(self):
        config = CacheConfig(8, 8, 64)
        rng = np.random.default_rng(5)
        addresses = rng.integers(0, 1 << 14, size=400)
        many = simulate_many(addresses, (config,))
        ref = Cache(config).run_trace(addresses)
        assert many[config] == ref

    @pytest.mark.parametrize("with_writes", [False, True])
    def test_wide_associativity_matches_reference(self, with_writes):
        # Single-set caches: 512 and 128 ways at 16B lines share one
        # 512-deep profile, 256 and 128 ways at 32B one 256-deep profile.
        # 280 lines cycled twice hit at depth 279, past a uint8 depth
        # array; the random tail hits anywhere.
        configs = (
            CacheConfig(8, 512, 16), CacheConfig(2, 128, 16),
            CacheConfig(8, 256, 32), CacheConfig(4, 128, 32),
        )
        rng = np.random.default_rng(6)
        lines = np.concatenate(
            (np.tile(np.arange(280), 2), rng.integers(0, 320, size=100))
        )
        addresses = lines * 16 + rng.integers(0, 16, lines.size)
        writes = rng.random(lines.size) < 0.3 if with_writes else None
        many = simulate_many(addresses, configs, writes=writes)
        for config in configs:
            ref = Cache(config).run_trace(addresses, writes)
            assert many[config] == ref, config.name
        profile = _profile(addresses, line_b=16, num_sets=1, max_assoc=512)
        assert profile.depth_hist[279] >= 280

    def test_mismatched_writes_rejected(self):
        with pytest.raises(ValueError, match="writes mask length"):
            simulate_many([0, 64], (CacheConfig(4, 2, 32),), writes=[True])

    @pytest.mark.parametrize("trace, first", [([-1], -1), ([0, 64, -70, -1], -70)])
    def test_negative_addresses_rejected_like_cache(self, trace, first):
        # Line -1 would collide with the depth pass's empty-slot
        # sentinel and count as a hit.
        message = f"address must be non-negative, got {first}"
        with pytest.raises(ValueError, match=message):
            Cache(DESIGN_SPACE[0]).run_trace(trace)
        with pytest.raises(ValueError, match=message):
            simulate_many(trace, DESIGN_SPACE)
        with pytest.raises(ValueError, match=message):
            _profile(trace, max_assoc=4)

    @pytest.mark.parametrize("trace, dtype", [
        ([0, 2**31 - 1], np.int32),
        ([0, 2**31], np.int64),
        ([2**62, 64], np.int64),
        ([-(2**31), 0], np.int32),
        ([-(2**31) - 1, 0], np.int64),
    ])
    def test_addresses_narrowed_only_when_they_fit(self, trace, dtype):
        addr = _as_addresses(trace)
        assert addr.dtype == dtype
        assert addr.tolist() == trace

    @pytest.mark.parametrize("trace, first", [
        ([0, -(2**40), 2**40], -(2**40)),
        ([2**31, -(2**31) - 1], -(2**31) - 1),
        ([-(2**31), 64], -(2**31)),
    ])
    def test_wide_negative_addresses_rejected_like_cache(self, trace, first):
        message = f"address must be non-negative, got {first}"
        with pytest.raises(ValueError, match=message):
            Cache(DESIGN_SPACE[0]).run_trace(trace)
        with pytest.raises(ValueError, match=message):
            simulate_many(trace, DESIGN_SPACE)


class TestDatasetVariantTrace:
    """Every depth bucket of a 4-deep partition, on a real dataset trace."""

    @pytest.fixture(scope="class")
    def trace(self):
        spec = next(s for s in eembc_suite() if s.name == "aifftr")
        return expand_suite([spec], 2)[1].generate_trace(seed=0)

    def test_every_depth_bucket_is_populated(self, trace):
        profile = profile_trace(
            trace.addresses, line_b=64, num_sets=32, max_assoc=4,
            writes=trace.writes,
        )
        assert all(profile.depth_hist), profile.depth_hist
        assert all(profile.write_depth_hist), profile.write_depth_hist
        # 2KB_1W, 4KB_2W and 8KB_4W at 64B lines share this partition.
        for size_kb, assoc in ((2, 1), (4, 2), (8, 4)):
            config = CacheConfig(size_kb, assoc, 64)
            legacy = simulate_trace_per_config(
                trace.addresses, config, writes=trace.writes
            )
            assert profile.stats_for_assoc(assoc) == legacy, config.name
