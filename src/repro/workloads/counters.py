"""Hardware performance counters.

During profiling the paper records "execution statistics while executing
in the base configuration ... using built-in hardware counters, such as
memory access counts, cache misses, etc." and feeds *18 cache-relevant
execution statistics* per benchmark to the ANN (270 inputs = 18 × 15
benchmarks).

:class:`HardwareCounters` models that counter block: 18 statistics
derived from the instruction-mix model plus the base-configuration cache
simulation.  :data:`ANN_SELECTED_FEATURES` is the paper's post-feature-
selection subset: "the total number of instructions, the number of
cycles for one complete benchmark execution, the number of load and
store instructions, the number of branches, and the number of integer
and floating-point instructions."
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Tuple

import numpy as np

from repro.cache.stats import CacheStats

from .benchmark import BenchmarkSpec, Trace

__all__ = [
    "HardwareCounters",
    "ALL_COUNTER_NAMES",
    "ANN_SELECTED_FEATURES",
    "collect_counters",
]


@dataclass(frozen=True)
class HardwareCounters:
    """The 18 cache-relevant execution statistics of one profiling run."""

    instructions: int
    cycles: int
    ipc: float
    loads: int
    stores: int
    branches: int
    taken_branches: int
    int_ops: int
    fp_ops: int
    mem_accesses: int
    cache_hits: int
    cache_misses: int
    miss_rate: float
    stall_cycles: int
    compulsory_misses: int
    unique_lines: int
    compute_intensity: float
    memory_intensity: float

    def as_vector(self, names: Sequence[str] = None) -> np.ndarray:
        """Counter values as a float vector, in ``names`` order.

        Defaults to all 18 counters in declaration order.
        """
        if names is None:
            names = ALL_COUNTER_NAMES
        missing = [n for n in names if n not in ALL_COUNTER_NAMES]
        if missing:
            raise ValueError(f"unknown counter name(s): {missing}")
        return np.array([float(getattr(self, n)) for n in names])

    def validate(self) -> None:
        """Raise :class:`ValueError` on internally inconsistent counters."""
        if self.cache_hits + self.cache_misses != self.mem_accesses:
            raise ValueError("hits + misses != memory accesses")
        if self.loads + self.stores != self.mem_accesses:
            raise ValueError("loads + stores != memory accesses")
        if self.taken_branches > self.branches:
            raise ValueError("taken branches exceed branches")
        if self.cycles < 0 or self.instructions < 0:
            raise ValueError("negative instruction or cycle count")


#: All 18 counter names in declaration order.
ALL_COUNTER_NAMES: Tuple[str, ...] = tuple(
    f.name for f in fields(HardwareCounters)
)

#: The paper's feature-selected subset for cache-size prediction (§IV.D).
ANN_SELECTED_FEATURES: Tuple[str, ...] = (
    "instructions",
    "cycles",
    "loads",
    "stores",
    "branches",
    "int_ops",
    "fp_ops",
)


def collect_counters(
    spec: BenchmarkSpec,
    trace: Trace,
    base_stats: CacheStats,
    total_cycles: int,
) -> HardwareCounters:
    """Assemble the counter block from one base-configuration execution.

    Parameters
    ----------
    spec:
        The benchmark that executed.
    trace:
        The data-reference trace of that execution.
    base_stats:
        Cache statistics of the trace under the base configuration.
    total_cycles:
        Execution cycles under the base configuration (from the energy
        model's timing equations).
    """
    mem_accesses = base_stats.accesses
    stall_cycles = max(0, total_cycles - spec.instructions)
    counters = HardwareCounters(
        instructions=spec.instructions,
        cycles=total_cycles,
        ipc=spec.instructions / total_cycles if total_cycles else 0.0,
        loads=trace.load_count,
        stores=trace.store_count,
        branches=spec.branches,
        taken_branches=spec.taken_branches,
        int_ops=spec.int_ops,
        fp_ops=spec.fp_ops,
        mem_accesses=mem_accesses,
        cache_hits=base_stats.hits,
        cache_misses=base_stats.misses,
        miss_rate=base_stats.miss_rate,
        stall_cycles=stall_cycles,
        compulsory_misses=base_stats.compulsory_misses,
        # BASE_CONFIG has 64 B lines, so its compulsory misses are the
        # trace's distinct 64 B lines: no second sort of the trace.
        unique_lines=base_stats.compulsory_misses,
        compute_intensity=(
            (spec.int_ops + spec.fp_ops) / mem_accesses if mem_accesses else 0.0
        ),
        memory_intensity=(
            mem_accesses / spec.instructions if spec.instructions else 0.0
        ),
    )
    counters.validate()
    return counters
