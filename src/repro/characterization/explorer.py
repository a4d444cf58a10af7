"""Design-space characterisation (the SimpleScalar role).

The paper "used SimpleScalar to record the benchmarks' cache accesses and
miss rates for every cache configuration" offline, and drove the MATLAB
scheduler simulation from those numbers.  This module plays the same
role: each benchmark's trace is measured by the single-pass
stack-distance engine (:mod:`repro.cache.stackdist`), which yields the
exact LRU statistics of every design-space configuration from one
traversal per set partition; the Figure 4 energy model is evaluated,
and everything is collected into a :class:`BenchmarkCharacterization`.

The scheduler simulation is then a pure table-driven discrete-event
simulation, exactly like the paper's: physical executions (profiling,
tuning, normal runs) *charge* the energies and cycles recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.cache.cache import Cache, simulate_trace
from repro.cache.config import BASE_CONFIG, DESIGN_SPACE, CacheConfig
from repro.cache.stackdist import simulate_many
from repro.cache.stats import CacheStats
from repro.energy.model import EnergyModel, ExecutionEstimate
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.counters import HardwareCounters, collect_counters

__all__ = [
    "ConfigResult",
    "BenchmarkCharacterization",
    "GENERATOR_VERSION",
    "characterize_benchmark",
    "characterize_suite",
]

#: Version of the characterisation pipeline (trace generation + cache
#: measurement semantics).  Bump whenever either changes in a way that
#: invalidates previously persisted characterisations; on-disk caches
#: are keyed by it (see :mod:`repro.experiment`).
GENERATOR_VERSION = "2"


@dataclass(frozen=True)
class ConfigResult:
    """Cache statistics and energy of one (benchmark, configuration)."""

    config: CacheConfig
    stats: CacheStats
    estimate: ExecutionEstimate

    @property
    def total_energy_nj(self) -> float:
        """Total (static + dynamic) energy of the execution."""
        return self.estimate.total_energy_nj

    @property
    def total_cycles(self) -> int:
        """Execution cycles under this configuration."""
        return self.estimate.total_cycles


@dataclass(frozen=True)
class BenchmarkCharacterization:
    """Everything measured about one benchmark across the design space."""

    benchmark: str
    counters: HardwareCounters
    results: Mapping[CacheConfig, ConfigResult]

    def result(self, config: CacheConfig) -> ConfigResult:
        """The measurement for one configuration."""
        try:
            return self.results[config]
        except KeyError:
            raise KeyError(
                f"{self.benchmark} was not characterised for {config.name}"
            ) from None

    def configs(self) -> Tuple[CacheConfig, ...]:
        """All characterised configurations, canonical order."""
        return tuple(sorted(self.results))

    def best_config(
        self, configs: Optional[Iterable[CacheConfig]] = None
    ) -> CacheConfig:
        """Lowest-total-energy configuration (optionally within a subset)."""
        candidates = tuple(configs) if configs is not None else self.configs()
        if not candidates:
            raise ValueError("no candidate configurations")
        return min(candidates, key=lambda c: (self.result(c).total_energy_nj, c))

    def best_config_for_size(self, size_kb: int) -> CacheConfig:
        """Lowest-energy configuration among one cache size."""
        candidates = [c for c in self.configs() if c.size_kb == size_kb]
        if not candidates:
            raise ValueError(f"no characterised configuration of {size_kb} KB")
        return self.best_config(candidates)

    def best_size_kb(self) -> int:
        """Cache size of the overall best configuration.

        This is the ANN's training label: "predict the best core (i.e.,
        best cache size)".
        """
        return self.best_config().size_kb

    def energy_degradation(self, config: CacheConfig) -> float:
        """Relative extra energy of ``config`` over the best config."""
        best = self.result(self.best_config()).total_energy_nj
        if best == 0:
            return 0.0
        return self.result(config).total_energy_nj / best - 1.0


def characterize_benchmark(
    spec: BenchmarkSpec,
    configs: Sequence[CacheConfig] = DESIGN_SPACE,
    energy_model: Optional[EnergyModel] = None,
    *,
    seed: int = 0,
    write_back: bool = False,
) -> BenchmarkCharacterization:
    """Run one benchmark through every configuration.

    The trace is generated once per benchmark (same dynamic execution on
    every configuration, as on real hardware) and measured cold per
    configuration.  All configurations sharing a set partition are
    served by one stack-distance pass over the trace.

    ``write_back=True`` characterises write-back caches with the
    reference per-access model (several times slower than the default
    write-through fast path); pair it with an energy model constructed
    with ``include_writeback_energy=True``.
    """
    if not configs:
        raise ValueError("need at least one configuration")
    model = energy_model if energy_model is not None else EnergyModel()
    trace = spec.generate_trace(seed=seed)

    # Traces stay int64 numpy arrays end-to-end; every path below
    # accepts them directly.
    if write_back:
        stats_by_config = {}
        for config in configs:
            cache = Cache(config, write_back=True)
            stats_by_config[config] = cache.run_trace(
                trace.addresses, trace.writes
            )
    else:
        stats_by_config = simulate_many(
            trace.addresses, configs, writes=trace.writes
        )

    results: Dict[CacheConfig, ConfigResult] = {}
    for config in configs:
        stats = stats_by_config[config]
        estimate = model.estimate(config, spec.instructions, stats)
        results[config] = ConfigResult(config=config, stats=stats, estimate=estimate)

    if BASE_CONFIG in results:
        base_stats = results[BASE_CONFIG].stats
        base_cycles = results[BASE_CONFIG].total_cycles
    else:
        if write_back:
            base_cache = Cache(BASE_CONFIG, write_back=True)
            base_stats = base_cache.run_trace(trace.addresses, trace.writes)
        else:
            base_stats = simulate_trace(
                trace.addresses, BASE_CONFIG, writes=trace.writes
            )
        base_cycles = model.estimate(BASE_CONFIG, spec.instructions, base_stats).total_cycles
    counters = collect_counters(spec, trace, base_stats, base_cycles)

    return BenchmarkCharacterization(
        benchmark=spec.name, counters=counters, results=results
    )


def characterize_suite(
    specs: Sequence[BenchmarkSpec],
    configs: Sequence[CacheConfig] = DESIGN_SPACE,
    energy_model: Optional[EnergyModel] = None,
    *,
    seed: int = 0,
) -> Dict[str, BenchmarkCharacterization]:
    """Characterise a whole suite; returns name → characterisation.

    Benchmarks are characterised one after another, in suite order; each
    derives its randomness from its own ``(benchmark name, seed)`` pair.
    Names must be unique.  One energy model serves every benchmark, so
    its per-configuration CACTI figures are computed once.
    """
    model = energy_model if energy_model is not None else EnergyModel()
    out: Dict[str, BenchmarkCharacterization] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate benchmark name: {spec.name}")
        out[spec.name] = characterize_benchmark(
            spec, configs, model, seed=seed
        )
    return out
