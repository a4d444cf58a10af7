"""Tests for the trace locality analysis tools."""

import numpy as np
import pytest

from repro.workloads.eembc import eembc_benchmark
from repro.workloads.locality import (
    miss_ratio_curve,
    reuse_distance_histogram,
    working_set_curve,
)


class TestReuseDistance:
    def test_cold_misses_counted(self):
        histogram = reuse_distance_histogram([0, 32, 64], line_b=32)
        assert histogram == {-1: 3}

    def test_immediate_rereference_distance_zero(self):
        histogram = reuse_distance_histogram([0, 0, 0], line_b=32)
        assert histogram[-1] == 1
        assert histogram[0] == 2

    def test_intervening_lines_counted(self):
        # 0, 32, 64, then back to 0: two distinct lines in between.
        histogram = reuse_distance_histogram([0, 32, 64, 0], line_b=32)
        assert histogram[2] == 1

    def test_loop_distance_is_loop_size_minus_one(self):
        trace = list(range(0, 8 * 32, 32)) * 3  # 8-line loop, 3 sweeps
        histogram = reuse_distance_histogram(trace, line_b=32)
        assert histogram[-1] == 8
        assert histogram[7] == 16  # every re-reference sees 7 others

    def test_total_mass_equals_accesses(self):
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 4096, size=500)
        histogram = reuse_distance_histogram(trace, line_b=32)
        assert sum(histogram.values()) == 500

    def test_predicts_fully_associative_hits(self):
        """Mass below capacity equals a fully-associative cache's hits."""
        from repro.cache.cache import Cache
        from repro.cache.config import CacheConfig

        rng = np.random.default_rng(1)
        trace = (rng.integers(0, 64, size=800) * 32).tolist()
        histogram = reuse_distance_histogram(trace, line_b=32)
        capacity = 32  # lines: a fully associative 1KB/32B cache
        predicted_hits = sum(
            count for distance, count in histogram.items()
            if 0 <= distance < capacity
        )
        cache = Cache(CacheConfig(1, 32, 32))
        stats = cache.run_trace(trace)
        assert stats.hits == predicted_hits

    def test_line_size_validated(self):
        with pytest.raises(ValueError):
            reuse_distance_histogram([0], line_b=24)


class TestWorkingSet:
    def test_constant_loop(self):
        trace = list(range(0, 4 * 32, 32)) * 100
        curve = working_set_curve(trace, window=40, line_b=32)
        assert all(distinct == 4 for _, distinct in curve)

    def test_growing_stream(self):
        trace = list(range(0, 400 * 32, 32))
        curve = working_set_curve(trace, window=100, line_b=32)
        assert all(distinct == 100 for _, distinct in curve)

    def test_stride_sampling(self):
        trace = list(range(0, 100 * 32, 32))
        curve = working_set_curve(trace, window=10, stride=5, line_b=32)
        starts = [start for start, _ in curve]
        assert starts[:3] == [0, 5, 10]

    def test_validation(self):
        with pytest.raises(ValueError):
            working_set_curve([0], window=0)
        with pytest.raises(ValueError):
            working_set_curve([0], window=5, stride=0)


class TestMissRatioCurve:
    def test_monotone_for_looped_working_set(self):
        spec = eembc_benchmark("idctrn")
        trace = spec.generate_trace(seed=0)
        curve = miss_ratio_curve(trace.addresses, sizes_kb=(2, 4, 8))
        assert curve[2] >= curve[4] >= curve[8]

    def test_knee_locates_natural_capacity(self):
        # puwmod's working set fits 2KB: the curve is flat.
        spec = eembc_benchmark("puwmod")
        trace = spec.generate_trace(seed=0)
        curve = miss_ratio_curve(trace.addresses, sizes_kb=(2, 4, 8))
        assert curve[2] - curve[8] < 0.01
        # idctrn's does not fit 2KB: a clear knee between 2 and 4 KB.
        spec = eembc_benchmark("idctrn")
        trace = spec.generate_trace(seed=0)
        curve = miss_ratio_curve(trace.addresses, sizes_kb=(2, 4, 8))
        assert curve[2] - curve[4] > 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            miss_ratio_curve([0], sizes_kb=())


class TestGantt:
    def test_renders_core_rows(self):
        from repro.analysis.report import render_gantt
        from repro.core.results import JobRecord, SimulationResult

        result = SimulationResult(
            policy="base", jobs_completed=2, makespan_cycles=100,
            idle_energy_nj=0, dynamic_energy_nj=1, busy_static_energy_nj=0,
            reconfig_energy_nj=0, profiling_overhead_nj=0, reconfig_cycles=0,
            stall_decisions=0, non_best_decisions=0, tuning_executions=0,
            profiling_executions=1,
            jobs=[
                JobRecord(job_id=0, benchmark="matrix", arrival_cycle=0,
                          start_cycle=0, completion_cycle=50, core_index=0,
                          config_name="8KB_4W_64B", profiled=True,
                          tuning=False, energy_nj=1.0),
                JobRecord(job_id=1, benchmark="puwmod", arrival_cycle=0,
                          start_cycle=50, completion_cycle=100, core_index=1,
                          config_name="8KB_4W_64B", profiled=False,
                          tuning=False, energy_nj=1.0),
            ],
        )
        text = render_gantt(result, width=40)
        assert "core 1 |" in text
        assert "core 2 |" in text
        assert "M" in text  # profiled matrix run is upper-case
        assert "p" in text  # normal puwmod run is lower-case

    def test_empty_and_validation(self):
        from repro.analysis.report import render_gantt
        from repro.core.results import SimulationResult

        empty = SimulationResult(
            policy="base", jobs_completed=0, makespan_cycles=0,
            idle_energy_nj=0, dynamic_energy_nj=0, busy_static_energy_nj=0,
            reconfig_energy_nj=0, profiling_overhead_nj=0, reconfig_cycles=0,
            stall_decisions=0, non_best_decisions=0, tuning_executions=0,
            profiling_executions=0,
        )
        assert render_gantt(empty) == "(no jobs)"
        with pytest.raises(ValueError):
            render_gantt(empty, width=5)
