"""Private and shared second-level caches for ablations A4 and A12.

The paper's core architecture (its Figure 1) gives every core a
configurable private L1 and a non-configurable private L2.  The paper's
energy model only involves the L1 and off-chip memory, so the scheduler
experiments run with the L1 alone.  The paper's future work (§VIII)
names "additional levels of private and shared caches"; this module
models both, for the ablation benchmarks only:

* :class:`CacheHierarchy` — a private L1 optionally backed by a private
  L2 (ablation A4, ``benchmarks/test_bench_ablation_l2.py``).
* :class:`SharedL2System` — several cores' private L1s in front of one
  *shared* L2, which introduces the phenomenon private hierarchies
  cannot show: **inter-core interference** — one core's misses evict
  another core's working set from the shared level (ablation A12,
  ``benchmarks/test_bench_ablation_shared_l2.py``).

The shared model replays per-core access streams interleaved in a
deterministic round-robin of fixed-size windows (approximating
concurrent execution at equal rates) and reports per-core L2 statistics
plus the interference penalty versus running alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache.cache import Cache
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats

__all__ = [
    "HierarchyResult",
    "CacheHierarchy",
    "DEFAULT_L2_CONFIG",
    "SharedL2Result",
    "SharedL2System",
    "interference_penalty",
]

#: Fixed private L2 used by the hierarchy ablation: 32 KB, 4-way, 64 B.
DEFAULT_L2_CONFIG = CacheConfig(size_kb=32, assoc=4, line_b=64)


@dataclass(frozen=True)
class HierarchyResult:
    """Outcome of one access through the hierarchy."""

    l1_hit: bool
    #: True when the access missed L1 but hit L2; None with no L2.
    l2_hit: Optional[bool]

    @property
    def memory_access(self) -> bool:
        """Whether the access reached off-chip memory."""
        if self.l1_hit:
            return False
        if self.l2_hit is None:
            return True
        return not self.l2_hit


class CacheHierarchy:
    """Private L1 (configurable) optionally backed by a private L2.

    The L1 is inclusive of nothing in particular (no inclusion enforced;
    both levels fill independently on their own misses), which matches
    the simple private hierarchies of small embedded cores.
    """

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: Optional[CacheConfig] = None,
        *,
        write_back: bool = False,
    ) -> None:
        self.l1 = Cache(l1_config, write_back=write_back)
        self.l2: Optional[Cache] = None
        if l2_config is not None:
            if l2_config.size_bytes < l1_config.size_bytes:
                raise ValueError(
                    "L2 must be at least as large as L1: "
                    f"{l2_config.name} < {l1_config.name}"
                )
            self.l2 = Cache(l2_config, write_back=write_back)

    def access(self, address: int, *, is_write: bool = False) -> HierarchyResult:
        """Access one address through L1 then (on miss) L2."""
        l1_result = self.l1.access(address, is_write=is_write)
        if l1_result.hit:
            return HierarchyResult(l1_hit=True, l2_hit=None if self.l2 is None else None)
        if self.l2 is None:
            return HierarchyResult(l1_hit=False, l2_hit=None)
        l2_result = self.l2.access(address, is_write=is_write)
        # An L1 writeback also accesses L2 (write of the victim line).
        if l1_result.writeback_line_addr is not None:
            self.l2.access(
                l1_result.writeback_line_addr * self.l1.config.line_b,
                is_write=True,
            )
        return HierarchyResult(l1_hit=False, l2_hit=l2_result.hit)

    def run_trace(
        self,
        addresses: Sequence[int],
        writes: Optional[Sequence[bool]] = None,
    ) -> "HierarchyStats":
        """Run a whole trace; returns per-level stats and memory accesses."""
        if writes is not None and len(writes) != len(addresses):
            raise ValueError("writes mask length must match addresses length")
        memory_accesses = 0
        for i, address in enumerate(addresses):
            is_write = bool(writes[i]) if writes is not None else False
            result = self.access(int(address), is_write=is_write)
            if result.memory_access:
                memory_accesses += 1
        return HierarchyStats(
            l1=self.l1.stats.copy(),
            l2=self.l2.stats.copy() if self.l2 is not None else None,
            memory_accesses=memory_accesses,
        )

    def flush(self) -> None:
        """Flush both levels (reconfiguration)."""
        self.l1.flush()
        if self.l2 is not None:
            self.l2.flush()


@dataclass
class HierarchyStats:
    """Per-level statistics for one trace run through the hierarchy."""

    l1: CacheStats
    l2: Optional[CacheStats]
    memory_accesses: int

    @property
    def global_miss_rate(self) -> float:
        """Memory accesses per L1 access (misses that escape all levels)."""
        if self.l1.accesses == 0:
            return 0.0
        return self.memory_accesses / self.l1.accesses


#: Address-space stride separating cores' streams (keeps one core's data
#: from aliasing another's at identical trace addresses).
CORE_ADDRESS_STRIDE = 1 << 28


@dataclass(frozen=True)
class SharedL2Result:
    """Outcome of one shared-L2 replay."""

    #: Per-core L1 statistics.
    l1_stats: Tuple[CacheStats, ...]
    #: Per-core counts of L2 hits and misses (of that core's L1 misses).
    l2_hits: Tuple[int, ...]
    l2_misses: Tuple[int, ...]
    #: Per-core off-chip accesses (its L2 misses).
    memory_accesses: Tuple[int, ...]

    def l2_miss_rate(self, core: int) -> float:
        """L2 misses per L2 access for one core (0.0 with no accesses)."""
        accesses = self.l2_hits[core] + self.l2_misses[core]
        if accesses == 0:
            return 0.0
        return self.l2_misses[core] / accesses


class SharedL2System:
    """N private L1s in front of one shared L2.

    Parameters
    ----------
    l1_configs:
        One L1 configuration per core.
    l2_config:
        The shared L2 (defaults to the private hierarchy's 32 KB L2).
    window:
        Interleave granularity in accesses: each core executes this many
        references per round-robin turn.
    """

    def __init__(
        self,
        l1_configs: Sequence[CacheConfig],
        l2_config: CacheConfig = DEFAULT_L2_CONFIG,
        *,
        window: int = 64,
    ) -> None:
        if not l1_configs:
            raise ValueError("need at least one core")
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        for config in l1_configs:
            if l2_config.size_bytes < config.size_bytes:
                raise ValueError(
                    f"shared L2 {l2_config.name} smaller than L1 "
                    f"{config.name}"
                )
        self.l1s = [Cache(config) for config in l1_configs]
        self.l2 = Cache(l2_config)
        self.window = window

    def run(
        self,
        traces: Sequence[Sequence[int]],
        writes: Optional[Sequence[Sequence[bool]]] = None,
    ) -> SharedL2Result:
        """Replay per-core traces interleaved through the shared L2."""
        if len(traces) != len(self.l1s):
            raise ValueError(
                f"expected {len(self.l1s)} traces, got {len(traces)}"
            )
        if writes is not None and len(writes) != len(traces):
            raise ValueError("writes must parallel traces")
        streams: List[List[int]] = []
        write_streams: List[Optional[List[bool]]] = []
        for core, trace in enumerate(traces):
            if isinstance(trace, np.ndarray):
                stream = trace.astype(np.int64).tolist()
            else:
                stream = [int(a) for a in trace]
            streams.append(stream)
            if writes is not None:
                mask = writes[core]
                mask = (
                    mask.astype(bool).tolist()
                    if isinstance(mask, np.ndarray)
                    else [bool(w) for w in mask]
                )
                if len(mask) != len(stream):
                    raise ValueError(
                        f"core {core}: writes mask length mismatch"
                    )
                write_streams.append(mask)
            else:
                write_streams.append(None)

        l2_hits = [0] * len(self.l1s)
        l2_misses = [0] * len(self.l1s)
        positions = [0] * len(self.l1s)
        remaining = sum(len(s) for s in streams)
        while remaining:
            for core, stream in enumerate(streams):
                start = positions[core]
                if start >= len(stream):
                    continue
                stop = min(start + self.window, len(stream))
                offset = CORE_ADDRESS_STRIDE * core
                mask = write_streams[core]
                for i in range(start, stop):
                    address = stream[i] + offset
                    is_write = bool(mask[i]) if mask is not None else False
                    l1_result = self.l1s[core].access(
                        address, is_write=is_write
                    )
                    if not l1_result.hit:
                        if self.l2.access(address, is_write=is_write).hit:
                            l2_hits[core] += 1
                        else:
                            l2_misses[core] += 1
                positions[core] = stop
                remaining -= stop - start

        return SharedL2Result(
            l1_stats=tuple(l1.stats.copy() for l1 in self.l1s),
            l2_hits=tuple(l2_hits),
            l2_misses=tuple(l2_misses),
            memory_accesses=tuple(l2_misses),
        )


def interference_penalty(
    l1_configs: Sequence[CacheConfig],
    traces: Sequence[Sequence[int]],
    l2_config: CacheConfig = DEFAULT_L2_CONFIG,
    *,
    window: int = 64,
) -> Dict[int, float]:
    """Extra off-chip accesses per core due to sharing the L2.

    Runs each core alone through a private copy of the L2, then all
    cores together through the shared L2; returns per-core
    ``shared_memory_accesses / alone_memory_accesses`` (1.0 = no
    interference; cores with zero solo misses report 1.0).
    """
    penalties: Dict[int, float] = {}
    alone: List[int] = []
    for core, config in enumerate(l1_configs):
        solo = SharedL2System([config], l2_config, window=window)
        result = solo.run([traces[core]])
        alone.append(result.memory_accesses[0])
    together = SharedL2System(l1_configs, l2_config, window=window).run(traces)
    for core in range(len(l1_configs)):
        if alone[core] == 0:
            penalties[core] = 1.0
        else:
            penalties[core] = together.memory_accesses[core] / alone[core]
    return penalties
