"""Tests for the synthetic trace generators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workloads.tracegen import (
    HotspotAccess,
    LoopedArray,
    PointerChase,
    RandomAccess,
    SequentialStream,
    StridedAccess,
    TraceMix,
    interleave_chunks,
)
from tests.oracles import interleave_chunks_loop


def rng():
    return np.random.default_rng(0)


ALL_COMPONENTS = [
    SequentialStream(region_bytes=4096, stride=4),
    LoopedArray(region_bytes=1024, stride=4),
    StridedAccess(region_bytes=4096, stride=256),
    PointerChase(region_bytes=2048, node_bytes=16),
    RandomAccess(region_bytes=4096),
    HotspotAccess(region_bytes=4096, skew=1.3),
]


class TestCommonProperties:
    @pytest.mark.parametrize("component", ALL_COMPONENTS, ids=lambda c: type(c).__name__)
    def test_length_and_dtype(self, component):
        trace = component.generate(500, base=0x1000, rng=rng())
        assert len(trace) == 500
        assert trace.dtype == np.int64

    @pytest.mark.parametrize("component", ALL_COMPONENTS, ids=lambda c: type(c).__name__)
    def test_addresses_within_region(self, component):
        base = 0x8000
        trace = component.generate(1000, base=base, rng=rng())
        assert (trace >= base).all()
        assert (trace < base + component.region_bytes).all()

    @pytest.mark.parametrize("component", ALL_COMPONENTS, ids=lambda c: type(c).__name__)
    def test_zero_length(self, component):
        trace = component.generate(0, base=0, rng=rng())
        assert len(trace) == 0

    @pytest.mark.parametrize("component", ALL_COMPONENTS, ids=lambda c: type(c).__name__)
    def test_deterministic_for_seed(self, component):
        a = component.generate(300, base=0, rng=np.random.default_rng(5))
        b = component.generate(300, base=0, rng=np.random.default_rng(5))
        assert (a == b).all()


class TestSequentialStream:
    def test_monotone_until_wrap(self):
        stream = SequentialStream(region_bytes=1 << 20, stride=4)
        trace = stream.generate(100, base=0, rng=rng())
        assert (np.diff(trace) == 4).all()

    def test_wraps_at_region(self):
        stream = SequentialStream(region_bytes=64, stride=4)
        trace = stream.generate(40, base=0, rng=rng())
        assert trace.max() < 64
        assert trace[16] == 0  # wrapped

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialStream(region_bytes=0)
        with pytest.raises(ValueError):
            SequentialStream(stride=0)


class TestLoopedArray:
    def test_sweep_repeats(self):
        loop = LoopedArray(region_bytes=64, stride=16)
        trace = loop.generate(8, base=0, rng=rng())
        assert trace.tolist() == [0, 16, 32, 48, 0, 16, 32, 48]

    def test_reuse_bounded_by_region(self):
        loop = LoopedArray(region_bytes=256, stride=4)
        trace = loop.generate(1000, base=0, rng=rng())
        assert len(np.unique(trace)) == 64  # 256/4 distinct addresses

    def test_stride_larger_than_array_rejected(self):
        with pytest.raises(ValueError):
            LoopedArray(region_bytes=16, stride=32)


class TestStridedAccess:
    def test_large_strides(self):
        strided = StridedAccess(region_bytes=4096, stride=512)
        trace = strided.generate(8, base=0, rng=rng())
        assert (np.diff(trace)[:7] % 512 == 0).all()

    def test_wrap_shifts_column(self):
        strided = StridedAccess(region_bytes=1024, stride=256)
        trace = strided.generate(8, base=0, rng=rng())
        # After 4 accesses we wrapped and shifted by one word.
        assert trace[4] == 4


class TestPointerChase:
    def test_visits_all_nodes(self):
        chase = PointerChase(region_bytes=256, node_bytes=16)
        trace = chase.generate(16, base=0, rng=rng())
        assert len(np.unique(trace)) == 16

    def test_repeats_same_order(self):
        chase = PointerChase(region_bytes=256, node_bytes=16)
        trace = chase.generate(32, base=0, rng=rng())
        assert (trace[:16] == trace[16:]).all()

    def test_node_alignment(self):
        chase = PointerChase(region_bytes=1024, node_bytes=32)
        trace = chase.generate(100, base=0, rng=rng())
        assert (trace % 32 == 0).all()

    def test_node_larger_than_region_rejected(self):
        with pytest.raises(ValueError):
            PointerChase(region_bytes=16, node_bytes=32)


class TestHotspot:
    def test_skew_concentrates_references(self):
        hot = HotspotAccess(region_bytes=8192, skew=1.5)
        trace = hot.generate(5000, base=0, rng=rng())
        _, counts = np.unique(trace, return_counts=True)
        counts = np.sort(counts)[::-1]
        # The top ten addresses take a disproportionate share.
        assert counts[:10].sum() > 0.3 * len(trace)

    def test_skew_must_exceed_one(self):
        with pytest.raises(ValueError):
            HotspotAccess(skew=1.0)


class TestInterleave:
    def test_preserves_per_stream_order(self):
        a = np.arange(10, dtype=np.int64)
        b = np.arange(100, 105, dtype=np.int64)
        mixed = interleave_chunks([a, b], chunk=4)
        from_a = mixed[mixed < 100]
        from_b = mixed[mixed >= 100]
        assert (from_a == a).all()
        assert (from_b == b).all()

    def test_total_length_preserved(self):
        a = np.arange(7, dtype=np.int64)
        b = np.arange(13, dtype=np.int64)
        assert len(interleave_chunks([a, b], chunk=3)) == 20

    def test_chunked_alternation(self):
        a = np.zeros(8, dtype=np.int64)
        b = np.ones(8, dtype=np.int64)
        mixed = interleave_chunks([a, b], chunk=2)
        assert mixed[:4].tolist() == [0, 0, 1, 1]

    def test_empty_streams(self):
        assert len(interleave_chunks([])) == 0
        assert len(interleave_chunks([np.zeros(0, dtype=np.int64)])) == 0

    def test_invalid_chunk(self):
        with pytest.raises(ValueError):
            interleave_chunks([np.arange(3)], chunk=0)

    @given(
        streams=st.lists(
            st.tuples(
                st.integers(0, 300),
                st.sampled_from((np.int64, np.int32, np.uint16)),
            ),
            max_size=4,
        ),
        chunk=st.integers(1, 70),
    )
    def test_matches_loop_oracle(self, streams, chunk):
        # Distinct values, so that any access out of place shows.
        arrays = [
            np.arange(1000 * i, 1000 * i + length).astype(dtype)
            for i, (length, dtype) in enumerate(streams)
        ]
        mixed = interleave_chunks(arrays, chunk=chunk)
        expected = interleave_chunks_loop(arrays, chunk)
        assert mixed.dtype == expected.dtype
        assert mixed.tolist() == expected.tolist()


class TestTraceMix:
    def make_mix(self):
        return TraceMix(
            components=(
                (LoopedArray(region_bytes=512, stride=4), 2.0),
                (SequentialStream(region_bytes=4096, stride=4), 1.0),
            ),
        )

    def test_exact_length(self):
        for n in (0, 1, 7, 100, 999):
            assert len(self.make_mix().generate(n, rng())) == n

    def test_weight_shares(self):
        mix = self.make_mix()
        trace = mix.generate(3000, rng())
        # The looped component lives at the lowest base; about 2/3 of
        # accesses should fall in its region.
        in_loop = (trace < 0x1000 + 512).sum()
        assert 0.55 < in_loop / 3000 < 0.75

    def test_regions_disjoint(self):
        mix = self.make_mix()
        trace = mix.generate(2000, rng())
        loop_hi = 0x1000 + 512
        stream_lo = 0x1000 + 512 + mix.region_gap_bytes
        assert not ((trace >= loop_hi) & (trace < stream_lo)).any()

    def test_footprint(self):
        mix = self.make_mix()
        assert mix.footprint_bytes == 512 + 4096 + 2 * mix.region_gap_bytes

    def test_deterministic(self):
        mix = self.make_mix()
        a = mix.generate(500, np.random.default_rng(1))
        b = mix.generate(500, np.random.default_rng(1))
        assert (a == b).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceMix(components=())
        with pytest.raises(ValueError):
            TraceMix(components=((LoopedArray(), 0.0),))
        with pytest.raises(ValueError):
            self.make_mix().generate(-1, rng())


class TestPhasedTraceMix:
    def make_phased(self):
        from repro.workloads.tracegen import PhasedTraceMix

        compute = TraceMix(
            components=((LoopedArray(region_bytes=512, stride=4), 1.0),),
        )
        streaming = TraceMix(
            components=((SequentialStream(region_bytes=8192, stride=4), 1.0),),
        )
        return PhasedTraceMix(phases=((compute, 2.0), (streaming, 1.0)))

    def test_exact_length(self):
        mix = self.make_phased()
        for n in (0, 1, 10, 999):
            assert len(mix.generate(n, rng())) == n

    def test_phases_in_order(self):
        mix = self.make_phased()
        trace = mix.generate(900, rng())
        # First two thirds: the 512B loop; final third: the stream.
        assert trace[:600].max() < 0x1000 + 512
        assert trace[600:].max() >= 0x1000 + 512 or (
            trace[600:] >= 0x1000
        ).all()

    def test_phase_shares_respected(self):
        mix = self.make_phased()
        trace = mix.generate(3000, rng())
        in_loop = (trace < 0x1000 + 512).sum()
        assert 0.6 < in_loop / 3000 < 0.75

    def test_deterministic(self):
        import numpy as np

        mix = self.make_phased()
        a = mix.generate(500, np.random.default_rng(2))
        b = mix.generate(500, np.random.default_rng(2))
        assert (a == b).all()

    def test_components_flattened_with_phase_weights(self):
        mix = self.make_phased()
        components = mix.components
        assert len(components) == 2
        weights = sorted(w for _, w in components)
        assert weights == [1.0, 2.0]

    def test_validation(self):
        from repro.workloads.tracegen import PhasedTraceMix

        with pytest.raises(ValueError):
            PhasedTraceMix(phases=())
        compute = TraceMix(
            components=((LoopedArray(region_bytes=64, stride=4), 1.0),),
        )
        with pytest.raises(ValueError):
            PhasedTraceMix(phases=((compute, 0.0),))
        with pytest.raises(ValueError):
            self.make_phased().generate(-1, rng())

    def test_works_inside_benchmark_spec(self):
        from repro.workloads.benchmark import BenchmarkSpec, InstructionMix

        spec = BenchmarkSpec(
            name="phased",
            family="phased",
            instructions=10_000,
            mix=InstructionMix(load=0.3, store=0.1, branch=0.1,
                               int_op=0.4, fp_op=0.1),
            trace_mix=self.make_phased(),
        )
        trace = spec.generate_trace(seed=0)
        assert len(trace) == spec.mem_accesses
