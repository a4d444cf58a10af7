"""Tests for design-space characterisation."""

import pytest

from repro.cache.config import BASE_CONFIG, DESIGN_SPACE, CacheConfig, configs_for_size
from repro.characterization.explorer import (
    characterize_benchmark,
    characterize_suite,
)
from repro.workloads.eembc import eembc_benchmark, eembc_suite


@pytest.fixture(scope="module")
def char():
    return characterize_benchmark(eembc_benchmark("a2time"))


class TestCharacterizeBenchmark:
    def test_covers_all_configs(self, char):
        assert set(char.configs()) == set(DESIGN_SPACE)

    def test_stats_consistent(self, char):
        spec = eembc_benchmark("a2time")
        for config in char.configs():
            result = char.result(config)
            result.stats.validate()
            assert result.stats.accesses == spec.mem_accesses

    def test_same_trace_all_configs(self, char):
        # Same dynamic execution everywhere: access counts equal.
        counts = {char.result(c).stats.accesses for c in char.configs()}
        assert len(counts) == 1

    def test_estimates_positive(self, char):
        for config in char.configs():
            result = char.result(config)
            assert result.total_energy_nj > 0
            assert result.total_cycles > 0

    def test_best_config_minimises_energy(self, char):
        best = char.best_config()
        best_energy = char.result(best).total_energy_nj
        for config in char.configs():
            assert best_energy <= char.result(config).total_energy_nj

    def test_best_config_for_size(self, char):
        for size in (2, 4, 8):
            best = char.best_config_for_size(size)
            assert best.size_kb == size
            for config in configs_for_size(size):
                assert (
                    char.result(best).total_energy_nj
                    <= char.result(config).total_energy_nj
                )

    def test_best_size_matches_best_config(self, char):
        assert char.best_size_kb() == char.best_config().size_kb

    def test_energy_degradation(self, char):
        assert char.energy_degradation(char.best_config()) == pytest.approx(0.0)
        assert char.energy_degradation(BASE_CONFIG) >= 0.0

    def test_unknown_config_rejected(self, char):
        with pytest.raises(KeyError):
            char.result(CacheConfig(size_kb=16, assoc=1, line_b=16))
        with pytest.raises(ValueError):
            char.best_config_for_size(16)

    def test_counters_from_base_config(self, char):
        base = char.result(BASE_CONFIG)
        assert char.counters.cache_misses == base.stats.misses
        assert char.counters.cycles == base.total_cycles

    def test_subset_of_configs(self):
        subset = configs_for_size(2)
        char = characterize_benchmark(eembc_benchmark("puwmod"), configs=subset)
        assert set(char.configs()) == set(subset)
        assert char.best_size_kb() == 2

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            characterize_benchmark(eembc_benchmark("puwmod"), configs=[])

    def test_deterministic(self):
        a = characterize_benchmark(eembc_benchmark("rspeed"), seed=4)
        b = characterize_benchmark(eembc_benchmark("rspeed"), seed=4)
        assert a.result(BASE_CONFIG).total_energy_nj == pytest.approx(
            b.result(BASE_CONFIG).total_energy_nj
        )


class TestCharacterizeSuite:
    def test_all_benchmarks(self):
        subset = eembc_suite()[:3]
        chars = characterize_suite(subset, configs=configs_for_size(2))
        assert set(chars) == {s.name for s in subset}

    def test_preserves_suite_order(self):
        subset = eembc_suite()[:4][::-1]
        chars = characterize_suite(subset, configs=configs_for_size(2))
        assert list(chars) == [s.name for s in subset]

    def test_duplicate_names_rejected(self):
        spec = eembc_benchmark("a2time")
        with pytest.raises(ValueError):
            characterize_suite([spec, spec], configs=configs_for_size(2))

    def test_duplicate_name_later_in_suite_rejected(self):
        subset = eembc_suite()[:3]
        with pytest.raises(ValueError, match="duplicate"):
            characterize_suite(
                list(subset) + [subset[0]], configs=configs_for_size(2)
            )


class TestMonotoneBehaviour:
    def test_misses_never_increase_with_assoc_same_sets(self):
        """LRU inclusion: same set count, more ways => no more misses."""
        char = characterize_benchmark(eembc_benchmark("idctrn"))
        # 4KB 1-way and 8KB 2-way share the set count at equal line size.
        for line in (16, 32, 64):
            fewer = char.result(CacheConfig(4, 1, line)).stats.misses
            more = char.result(CacheConfig(8, 2, line)).stats.misses
            assert more <= fewer


class TestWriteBackCharacterisation:
    def test_write_back_counts_writebacks(self):
        from repro.energy.model import EnergyModel

        spec = eembc_benchmark("canrdr")
        char = characterize_benchmark(
            spec,
            configs=configs_for_size(2),
            energy_model=EnergyModel(include_writeback_energy=True),
            write_back=True,
        )
        total_writebacks = sum(
            char.result(c).stats.writebacks for c in char.configs()
        )
        assert total_writebacks > 0

    def test_write_back_same_access_counts(self):
        spec = eembc_benchmark("puwmod")
        wt = characterize_benchmark(spec, configs=configs_for_size(2))
        wb = characterize_benchmark(
            spec, configs=configs_for_size(2), write_back=True
        )
        for config in wt.configs():
            assert (
                wt.result(config).stats.accesses
                == wb.result(config).stats.accesses
            )
            # Hit/miss behaviour is identical (write-allocate both ways);
            # only dirty-line writebacks differ.
            assert (
                wt.result(config).stats.misses
                == wb.result(config).stats.misses
            )
