"""The engine's level counts equal the binned per-run depths of the oracle.

``profile_trace`` counts the runs still deeper than each stack level as
it walks the levels; ``tests.oracles.depth_histograms_reference`` sorts
the whole trace, gives every run its depth and bins the depths.  Both
histograms of every profile must agree, for direct-mapped to 8-way
partitions, set counts with and without a power-of-two structure, and
every kind of write mask.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from repro.cache.stackdist import profile_trace
from tests.oracles import depth_histograms_reference

SET_COUNTS = (1, 32, 48, 96, 512)
WRITE_MODES = ("none", "all-false", "all-true", "random")


@st.composite
def partition_traces(draw):
    """``(trace, line_b, num_sets)``: cycles of up to 10 lines within one
    set of the drawn partition (a k-line cycle hits at depth k - 1),
    mixed with uniform addresses."""
    num_sets = draw(st.sampled_from(SET_COUNTS))
    line_b = draw(st.sampled_from((16, 32, 64)))

    def address(tag, set_index, offset):
        return (tag * num_sets + set_index) * line_b + offset % line_b

    cycle = st.builds(
        lambda tags, set_index, offset, k: [
            address(tag, set_index, offset) for tag in tags
        ] * k,
        st.lists(st.integers(0, 15), min_size=1, max_size=10, unique=True),
        st.integers(0, 2), st.integers(0, 63), st.integers(1, 3),
    )
    uniform = st.lists(st.integers(0, 64 * 1024 - 1), max_size=20)
    segments = draw(st.lists(st.one_of(cycle, uniform), max_size=12))
    return [a for segment in segments for a in segment], line_b, num_sets


def _writes(mode, n, seed):
    if mode == "none":
        return None
    if mode == "random":
        return (np.random.default_rng(seed).random(n) < 0.4).tolist()
    return [mode == "all-true"] * n


class TestDepthHistograms:
    @given(
        drawn=partition_traces(),
        max_assoc=st.integers(1, 8),
        mode=st.sampled_from(WRITE_MODES),
        seed=st.integers(0, 2**16),
    )
    @example(drawn=([], 64, 1), max_assoc=1, mode="all-true", seed=0)
    @example(drawn=([0, 64, 0], 64, 1), max_assoc=2, mode="random", seed=3)
    @example(
        drawn=([0, 512 * 64, 0, 512 * 64, 64], 64, 512),
        max_assoc=1, mode="all-false", seed=0,
    )
    def test_level_counts_match_binned_depths(self, drawn, max_assoc, mode, seed):
        trace, line_b, num_sets = drawn
        writes = _writes(mode, len(trace), seed)
        profile = profile_trace(
            trace, line_b=line_b, num_sets=num_sets,
            max_assoc=max_assoc, writes=writes,
        )
        # A 3-deep request is measured 4 deep.
        expected = depth_histograms_reference(
            trace, line_b=line_b, num_sets=num_sets,
            max_assoc=profile.max_assoc, writes=writes,
        )
        assert (profile.depth_hist, profile.write_depth_hist) == expected
