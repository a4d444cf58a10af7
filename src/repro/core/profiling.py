"""The profiling table (paper §IV.A/B).

Core 4 "contains a profiling table that stores profiling information for
all applications, including the execution statistics for the base
configuration, and the performance and energy consumption of any core
configurations that have been explored during design space exploration.
This storage eliminates future profiling executions and enables the
tuning heuristic to operate across multiple application executions."

:class:`ProfilingTable` is that structure: per benchmark it records

* the base-configuration hardware counters (set once by profiling),
* the ANN's predicted best cache size (set right after profiling),
* every explored configuration's measured energy and cycles,
* and, per cache size, whether exploration finished and which explored
  configuration is the known best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.cache.config import CacheConfig
from repro.workloads.counters import HardwareCounters

__all__ = ["ExecutionRecord", "ApplicationProfile", "ProfilingTable"]


@dataclass(frozen=True)
class ExecutionRecord:
    """Measured energy/performance of one explored configuration."""

    config: CacheConfig
    total_energy_nj: float
    total_cycles: int

    def __post_init__(self) -> None:
        if self.total_energy_nj < 0:
            raise ValueError("energy must be non-negative")
        if self.total_cycles <= 0:
            raise ValueError("cycles must be positive")

    @property
    def energy_per_cycle_nj(self) -> float:
        """Average energy per cycle (remaining-energy estimation, §IV.E)."""
        return self.total_energy_nj / self.total_cycles


@dataclass
class ApplicationProfile:
    """Everything the table knows about one application."""

    benchmark: str
    counters: Optional[HardwareCounters] = None
    predicted_size_kb: Optional[int] = None
    executions: Dict[CacheConfig, ExecutionRecord] = field(default_factory=dict)
    #: Cache sizes whose design-space exploration completed.
    tuned_sizes: set = field(default_factory=set)

    @property
    def profiled(self) -> bool:
        """Whether base-configuration profiling has happened."""
        return self.counters is not None

    def explored_configs_for_size(self, size_kb: int) -> Tuple[CacheConfig, ...]:
        """Explored configurations of one cache size, canonical order."""
        return tuple(
            sorted(c for c in self.executions if c.size_kb == size_kb)
        )

    def best_known_config(self, size_kb: int) -> Optional[CacheConfig]:
        """Lowest-energy *explored* configuration of a size, if any."""
        candidates = self.explored_configs_for_size(size_kb)
        if not candidates:
            return None
        return min(
            candidates, key=lambda c: (self.executions[c].total_energy_nj, c)
        )

    def is_tuned(self, size_kb: int) -> bool:
        """Whether the tuning heuristic finished for this cache size."""
        return size_kb in self.tuned_sizes


class ProfilingTable:
    """Benchmark-id → :class:`ApplicationProfile` (lives on Core 4)."""

    def __init__(self) -> None:
        self._profiles: Dict[str, ApplicationProfile] = {}

    def __contains__(self, benchmark: str) -> bool:
        return benchmark in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)

    def profile(self, benchmark: str) -> ApplicationProfile:
        """The profile for a benchmark, created on first touch."""
        entry = self._profiles.get(benchmark)
        if entry is None:
            entry = ApplicationProfile(benchmark=benchmark)
            self._profiles[benchmark] = entry
        return entry

    def has_profile(self, benchmark: str) -> bool:
        """Whether base-configuration profiling has been recorded."""
        entry = self._profiles.get(benchmark)
        return entry is not None and entry.profiled

    def record_profiling(
        self, benchmark: str, counters: HardwareCounters
    ) -> None:
        """Store the base-configuration counters (one-time)."""
        entry = self.profile(benchmark)
        entry.counters = counters

    def record_prediction(self, benchmark: str, size_kb: int) -> None:
        """Store the ANN's predicted best cache size."""
        if size_kb <= 0:
            raise ValueError("predicted size must be positive")
        self.profile(benchmark).predicted_size_kb = size_kb

    def record_execution(
        self,
        benchmark: str,
        config: CacheConfig,
        total_energy_nj: float,
        total_cycles: int,
    ) -> None:
        """Store the measured outcome of one configuration execution.

        Re-executions of an already-recorded configuration overwrite the
        record (same deterministic measurement in this reproduction).
        """
        record = ExecutionRecord(
            config=config,
            total_energy_nj=total_energy_nj,
            total_cycles=total_cycles,
        )
        self.profile(benchmark).executions[config] = record

    def execution(
        self, benchmark: str, config: CacheConfig
    ) -> Optional[ExecutionRecord]:
        """The stored record for one configuration, if explored."""
        entry = self._profiles.get(benchmark)
        if entry is None:
            return None
        return entry.executions.get(config)

    def predicted_size_kb(self, benchmark: str) -> Optional[int]:
        """The ANN's stored prediction, if any."""
        entry = self._profiles.get(benchmark)
        return entry.predicted_size_kb if entry is not None else None

    def best_known_config(
        self, benchmark: str, size_kb: int
    ) -> Optional[CacheConfig]:
        """Best explored configuration of a size; None if unexplored."""
        entry = self._profiles.get(benchmark)
        if entry is None:
            return None
        return entry.best_known_config(size_kb)

    def is_best_config_known(self, benchmark: str, size_kb: int) -> bool:
        """Whether tuning completed for (benchmark, size)."""
        entry = self._profiles.get(benchmark)
        return entry is not None and entry.is_tuned(size_kb)

    def mark_tuned(self, benchmark: str, size_kb: int) -> None:
        """Mark a size's exploration as complete."""
        self.profile(benchmark).tuned_sizes.add(size_kb)

    def benchmarks(self) -> Tuple[str, ...]:
        """All benchmarks with any recorded information."""
        return tuple(self._profiles)

    def exploration_counts(self) -> Mapping[str, int]:
        """Configurations explored per benchmark (tuning-efficiency metric)."""
        return {
            name: len(profile.executions)
            for name, profile in self._profiles.items()
        }
