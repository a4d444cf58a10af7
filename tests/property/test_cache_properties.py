"""Property-based tests for the cache substrate."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cache.cache import Cache, simulate_trace
from repro.cache.config import DESIGN_SPACE, CacheConfig
from repro.cache.stackdist import _run_depths, simulate_many
from tests.oracles import deep_depths, simulate_trace_per_config

configs = st.sampled_from(DESIGN_SPACE)

traces = st.lists(
    st.integers(min_value=0, max_value=64 * 1024 - 1),
    min_size=1,
    max_size=400,
)

#: Addresses a multiple of this apart map to the same set in every
#: configuration below (it is a multiple of every num_sets * line_b).
_SAME_SET_STRIDE = 24 * 1024

#: In-line byte offsets, so that finer line sizes see neighbouring lines.
_offsets = st.sampled_from((0, 16, 40, 63))


def _local_line(tag, set_index, offset):
    """One of a few lines in three adjacent 64B sets."""
    return tag * _SAME_SET_STRIDE + set_index * 64 + offset


#: A run of one line repeated.
_runs = st.builds(
    lambda tag, set_index, offset, k: [_local_line(tag, set_index, offset)] * k,
    st.integers(0, 5), st.integers(0, 2), _offsets, st.integers(1, 5),
)

#: 2-4 lines of one set cycled: ABAB hits at depth 1, ABCABC at depth
#: 2, ABCDABCD at depth 3.
_cycles = st.builds(
    lambda tags, set_index, offset, k: [
        _local_line(tag, set_index, offset) for tag in tags
    ] * k,
    st.lists(st.integers(0, 5), min_size=2, max_size=4, unique=True),
    st.integers(0, 2), _offsets, st.integers(1, 3),
)

#: Locality-heavy traces: they hit at every stack depth 0-3, which the
#: uniform ``traces`` rarely do.
local_traces = st.lists(
    st.one_of(_runs, _cycles), min_size=1, max_size=30
).map(lambda segments: [a for segment in segments for a in segment])

#: Associativities 1-4 (3 included, measured as a 4-deep partition) and
#: a set count that is not a power of two (3KB direct-mapped: 48 sets).
local_configs = DESIGN_SPACE + (
    CacheConfig(3, 3, 64),
    CacheConfig(6, 3, 32),
    CacheConfig(12, 3, 16),
    CacheConfig(3, 1, 64),
)


#: Set counts that ``simulate_many`` measures by refining a smaller
#: one's runs, and three it sorts from the trace; every refined partition
#: is at least 2 ways deep, so its write flags reach several depths.
#: 64B lines: 32 sets (8KB 4-way) sorts the trace; 64 refines 32, and
#: 3 ways are measured 4 deep; 128 refines 64; 48 sets (3KB
#: direct-mapped) has no measured divisor and sorts the trace; 96
#: refines 48.  32B lines: 32 sets sorts the trace and 64 refines it.
refined_configs = (
    CacheConfig(8, 4, 64),
    CacheConfig(12, 3, 64),
    CacheConfig(4, 1, 64),
    CacheConfig(16, 2, 64),
    CacheConfig(3, 1, 64),
    CacheConfig(12, 2, 64),
    CacheConfig(2, 2, 32),
    CacheConfig(8, 4, 32),
)


#: Table 1 plus one wide single-set cache (1KB of 16B lines, 64-way).
write_back_configs = st.sampled_from(DESIGN_SPACE + (CacheConfig(1, 64, 16),))


#: Run sequences over a 25-line alphabet: cycles of 1-20 distinct lines
#: (a k-line cycle hits at depth k - 1) mixed with arbitrary stretches.
_depth_segments = st.one_of(
    st.builds(
        lambda lines, k: lines * k,
        st.lists(st.integers(0, 24), min_size=1, max_size=20, unique=True),
        st.integers(1, 4),
    ),
    st.lists(st.integers(0, 24), max_size=8),
)


def _collapse(segments):
    """Concatenated segments with adjacent repeats dropped, as runs are."""
    lines = [line for segment in segments for line in segment]
    return [line for i, line in enumerate(lines) if not i or line != lines[i - 1]]


run_sequences = st.lists(_depth_segments, max_size=8).map(_collapse)


def _written_back(addresses, writes, config):
    """Writebacks of a write-back LRU cache including a final flush: one
    per residency (fill to eviction) in which the line was written."""
    sets = [[] for _ in range(config.num_sets)]  # [line, dirty], LRU first
    count = 0
    for address, is_write in zip(addresses, writes):
        line = address // config.line_b
        ways = sets[line % config.num_sets]
        entry = next((e for e in ways if e[0] == line), None)
        if entry is None:
            if len(ways) == config.assoc:
                count += ways.pop(0)[1]
            entry = [line, False]
        else:
            ways.remove(entry)
        entry[1] = entry[1] or is_write
        ways.append(entry)
    return count + sum(dirty for ways in sets for _, dirty in ways)


def _reference_stats(trace, config, writes=None):
    cache = Cache(config)
    return cache.run_trace(trace, writes)


class TestFastPathEquivalence:
    @given(trace=traces, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_reference(self, trace, config):
        fast = simulate_trace(trace, config)
        ref = _reference_stats(trace, config)
        assert fast.hits == ref.hits
        assert fast.misses == ref.misses
        assert fast.evictions == ref.evictions
        assert fast.compulsory_misses == ref.compulsory_misses

    @given(trace=traces, config=configs, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_write_breakdown_consistent(self, trace, config, seed):
        rng = np.random.default_rng(seed)
        writes = (rng.random(len(trace)) < 0.4).tolist()
        stats = simulate_trace(trace, config, writes=writes)
        stats.validate()
        assert stats.write_accesses == sum(writes)


class TestStackDistanceEngineEquivalence:
    """The single-pass engine must equal the reference model, exactly.

    CacheStats is a plain dataclass, so ``==`` compares every counter:
    hits, misses, read/write breakdown, evictions, fills, compulsory
    misses — across the full 18-configuration design space at once.
    """

    @given(trace=traces)
    @settings(max_examples=25, deadline=None)
    def test_all_configs_match_reference(self, trace):
        many = simulate_many(trace, DESIGN_SPACE)
        for config in DESIGN_SPACE:
            assert many[config] == _reference_stats(trace, config), config.name

    @given(trace=traces, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_all_configs_match_reference_with_writes(self, trace, seed):
        rng = np.random.default_rng(seed)
        writes = rng.random(len(trace)) < 0.4
        many = simulate_many(np.asarray(trace), DESIGN_SPACE, writes=writes)
        for config in DESIGN_SPACE:
            ref = _reference_stats(trace, config, writes.tolist())
            assert many[config] == ref, config.name

    @given(trace=traces, config=configs, seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_matches_legacy_per_config_replay(self, trace, config, seed):
        rng = np.random.default_rng(seed)
        writes = rng.random(len(trace)) < 0.4
        legacy = simulate_trace_per_config(trace, config, writes=writes)
        assert simulate_trace(trace, config, writes=writes) == legacy

    @given(trace=local_traces, seed=st.integers(0, 2**16), with_writes=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_locality_heavy_traces_match_both_oracles(
        self, trace, seed, with_writes
    ):
        writes = None
        if with_writes:
            writes = (np.random.default_rng(seed).random(len(trace)) < 0.4).tolist()
        many = simulate_many(trace, local_configs, writes=writes)
        for config in local_configs:
            ref = _reference_stats(trace, config, writes)
            assert many[config] == ref, config.name
            legacy = simulate_trace_per_config(trace, config, writes=writes)
            assert many[config] == legacy, config.name

    @given(data=st.data(), config=write_back_configs)
    @settings(max_examples=60, deadline=None)
    def test_write_back_matches_engine_but_writebacks(self, data, config):
        addresses = data.draw(st.one_of(traces, local_traces))
        writes = data.draw(st.lists(
            st.booleans(), min_size=len(addresses), max_size=len(addresses)
        ))
        cache = Cache(config, write_back=True)
        ref = cache.run_trace(addresses, writes).copy()
        many = simulate_many(addresses, [config], writes=writes)[config]
        # The engine models write-through: it counts no writebacks.
        assert ref.writebacks <= ref.evictions
        assert ref.writebacks + cache.flush() == _written_back(
            addresses, writes, config
        )
        ref.writebacks = many.writebacks
        assert ref == many

    @given(
        trace=st.one_of(traces, local_traces),
        seed=st.integers(0, 2**16),
        with_writes=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_refined_partitions_match_reference(self, trace, seed, with_writes):
        # simulate_trace measures one configuration, so it sorts the
        # trace for every set count; simulate_many refines.
        writes = None
        if with_writes:
            writes = (np.random.default_rng(seed).random(len(trace)) < 0.4).tolist()
        many = simulate_many(trace, refined_configs, writes=writes)
        for config in refined_configs:
            ref = _reference_stats(trace, config, writes)
            assert many[config] == ref, config.name
            assert simulate_trace(trace, config, writes=writes) == ref, config.name

    @given(trace=traces)
    @settings(max_examples=20, deadline=None)
    def test_generic_deep_assoc_path(self, trace):
        # An 8-way partition: seven stack levels, deeper than Table 1's.
        config = CacheConfig(8, 8, 64)
        many = simulate_many(trace, (config,))
        assert many[config] == _reference_stats(trace, config)


class TestRunDepths:
    """The level-by-level depth pass equals a list-based LRU walk."""

    @given(runs=run_sequences, max_assoc=st.integers(1, 17))
    @example(runs=[], max_assoc=1)
    @example(runs=[], max_assoc=17)
    @example(runs=[7], max_assoc=4)
    @example(runs=[3, 9], max_assoc=2)
    @example(runs=[3, 9, 3], max_assoc=2)
    @settings(max_examples=200, deadline=None)
    def test_level_pass_matches_lru_walk(self, runs, max_assoc):
        runs = np.asarray(runs, dtype=np.int64)
        depths = _run_depths(runs, max_assoc)
        assert depths.tolist() == deep_depths(runs, max_assoc).tolist()


class TestCacheInvariants:
    @given(trace=traces, config=configs)
    @settings(max_examples=40, deadline=None)
    def test_counter_consistency(self, trace, config):
        stats = simulate_trace(trace, config)
        stats.validate()
        assert stats.accesses == len(trace)
        assert stats.fills == stats.misses  # write-allocate, all reads
        assert 0.0 <= stats.miss_rate <= 1.0

    @given(trace=traces, config=configs)
    @settings(max_examples=40, deadline=None)
    def test_occupancy_bounded(self, trace, config):
        cache = Cache(config)
        cache.run_trace(trace)
        assert cache.resident_lines <= config.num_lines
        assert cache.resident_lines <= len(set(a // config.line_b for a in trace))

    @given(trace=traces, config=configs)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, trace, config):
        a = simulate_trace(trace, config)
        b = simulate_trace(trace, config)
        assert a.hits == b.hits

    @given(trace=traces)
    @settings(max_examples=30, deadline=None)
    def test_lru_inclusion_same_sets_more_ways(self, trace):
        """LRU inclusion: equal set count, more ways => no more misses."""
        # 4KB 1-way 32B and 8KB 2-way 32B both have 128 sets.
        fewer = simulate_trace(trace, CacheConfig(4, 1, 32))
        more = simulate_trace(trace, CacheConfig(8, 2, 32))
        assert more.misses <= fewer.misses

    @given(trace=traces)
    @settings(max_examples=30, deadline=None)
    def test_repeating_trace_second_pass_hits_in_big_cache(self, trace):
        """A trace fitting the cache entirely hits on its second pass."""
        config = CacheConfig(8, 4, 64)
        per_set = {}
        for address in trace:
            line = address // 64
            per_set.setdefault(line % config.num_sets, set()).add(line)
        if any(len(lines) > config.assoc for lines in per_set.values()):
            return  # some set overflows; conflict misses possible
        double = list(trace) + list(trace)
        single = simulate_trace(trace, config)
        both = simulate_trace(double, config)
        # With every set's working lines fitting its ways, the second
        # pass cannot miss.
        assert both.misses == single.misses

    @given(trace=traces, config=configs)
    @settings(max_examples=30, deadline=None)
    def test_flush_resets_contents_not_counters(self, trace, config):
        cache = Cache(config)
        cache.run_trace(trace)
        accesses_before = cache.stats.accesses
        cache.flush()
        assert cache.resident_lines == 0
        assert cache.stats.accesses == accesses_before
