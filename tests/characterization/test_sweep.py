"""Tests for the working-set sweep of examples/cache_design_space.py."""

import importlib.util
from pathlib import Path

import pytest

from repro.workloads.eembc import eembc_benchmark

_EXAMPLE = (
    Path(__file__).resolve().parents[2] / "examples" / "cache_design_space.py"
)
_spec = importlib.util.spec_from_file_location("cache_design_space", _EXAMPLE)
cache_design_space = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cache_design_space)
sweep_working_set = cache_design_space.sweep_working_set


class TestWorkingSetSweep:
    def test_best_size_transitions_upward(self):
        # Scaling idctrn's ~3KB loop up pushes the best size from 4KB
        # toward 8KB; scaling down pulls it to 2KB.
        spec = eembc_benchmark("idctrn")
        points = sweep_working_set(spec, scales=(0.3, 1.0, 2.2))
        sizes = [p.best_size_kb for p in points]
        assert sizes[0] <= sizes[1] <= sizes[2]
        assert sizes[0] < sizes[2]

    def test_footprint_scales(self):
        spec = eembc_benchmark("puwmod")
        points = sweep_working_set(spec, scales=(0.5, 2.0))
        assert points[0].footprint_bytes < points[1].footprint_bytes

    def test_energy_by_size_covers_design_space(self):
        spec = eembc_benchmark("puwmod")
        (point,) = sweep_working_set(spec, scales=(1.0,))
        assert set(point.energy_by_size_nj) == {2, 4, 8}
        assert point.best_energy_nj == pytest.approx(
            min(point.energy_by_size_nj.values())
        )

    def test_scale_one_matches_plain_characterisation(self):
        from repro.characterization.explorer import characterize_benchmark

        spec = eembc_benchmark("a2time")
        (point,) = sweep_working_set(spec, scales=(1.0,))
        plain = characterize_benchmark(spec)
        assert point.best_config == plain.best_config()

    def test_validation(self):
        spec = eembc_benchmark("puwmod")
        with pytest.raises(ValueError):
            sweep_working_set(spec, scales=())
        with pytest.raises(ValueError):
            sweep_working_set(spec, scales=(0.0,))

