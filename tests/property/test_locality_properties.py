"""Property-based tests for the locality analysis tools."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.workloads.locality import (
    miss_ratio_curve,
    reuse_distance_histogram,
    working_set_curve,
)

traces = st.lists(
    st.integers(min_value=0, max_value=16 * 1024 - 1),
    min_size=1,
    max_size=300,
)


class TestReuseDistanceProperties:
    @given(trace=traces)
    @settings(max_examples=60, deadline=None)
    def test_mass_equals_access_count(self, trace):
        histogram = reuse_distance_histogram(trace, line_b=32)
        assert sum(histogram.values()) == len(trace)

    @given(trace=traces)
    @settings(max_examples=60, deadline=None)
    def test_cold_misses_equal_unique_lines(self, trace):
        histogram = reuse_distance_histogram(trace, line_b=32)
        unique = len({a // 32 for a in trace})
        assert histogram.get(-1, 0) == unique

    @given(trace=traces)
    @settings(max_examples=60, deadline=None)
    def test_distances_bounded_by_unique_lines(self, trace):
        histogram = reuse_distance_histogram(trace, line_b=32)
        unique = len({a // 32 for a in trace})
        finite = [d for d in histogram if d >= 0]
        if finite:
            assert max(finite) < unique

    @given(trace=traces)
    @settings(max_examples=40, deadline=None)
    def test_matches_fully_associative_lru(self, trace):
        """Mass below capacity == hits of a fully-associative LRU cache."""
        histogram = reuse_distance_histogram(trace, line_b=16)
        capacity = 64
        predicted = sum(
            count for distance, count in histogram.items()
            if 0 <= distance < capacity
        )
        cache = Cache(CacheConfig(size_kb=1, assoc=capacity, line_b=16))
        stats = cache.run_trace(trace)
        assert stats.hits == predicted


class TestWorkingSetProperties:
    @given(trace=traces, window=st.integers(1, 100))
    @settings(max_examples=60, deadline=None)
    def test_bounded_by_window_and_uniques(self, trace, window):
        curve = working_set_curve(trace, window=window, line_b=32)
        unique = len({a // 32 for a in trace})
        for _, distinct in curve:
            assert 1 <= distinct <= min(window, unique)

    @given(trace=traces)
    @settings(max_examples=40, deadline=None)
    def test_full_window_counts_all_uniques(self, trace):
        curve = working_set_curve(trace, window=len(trace) + 10, line_b=32)
        unique = len({a // 32 for a in trace})
        assert curve[0][1] == unique


class TestMissRatioCurveProperties:
    @given(trace=traces)
    @settings(max_examples=30, deadline=None)
    def test_ratios_in_unit_interval(self, trace):
        curve = miss_ratio_curve(trace, sizes_kb=(2, 4, 8))
        for ratio in curve.values():
            assert 0.0 <= ratio <= 1.0

    @given(trace=traces)
    @settings(max_examples=30, deadline=None)
    def test_same_sets_more_capacity_not_worse(self, trace):
        """Doubling size at fixed set count (via assoc) never misses more
        — the LRU-inclusion form of 'bigger is better'."""
        small = miss_ratio_curve(trace, sizes_kb=(4,), assoc=1, line_b=32)[4]
        large = miss_ratio_curve(trace, sizes_kb=(8,), assoc=2, line_b=32)[8]
        assert large <= small + 1e-12
