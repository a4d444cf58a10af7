"""Set-associative cache model.

Two complementary implementations are provided:

:class:`Cache`
    A general, per-access model supporting every replacement policy in
    :mod:`repro.cache.replacement`, write-through and write-back policies,
    flushes (used by the cache tuner on reconfiguration) and full
    statistics.  This is the reference model.

:func:`simulate_trace`
    A fast path for the common case used by the characterisation explorer:
    LRU, write-allocate caches driven by a complete address trace.  It
    delegates to the stack-distance engine in
    :mod:`repro.cache.stackdist`, which measures a whole partition of
    the design space in one pass; :func:`repro.cache.stackdist.simulate_many`
    is the bulk entry point that characterises many configurations per
    trace traversal.  The fast path and the reference model produce
    identical statistics (tested property).

Addresses are byte addresses; the cache indexes by ``(address // line_b)
% num_sets`` like real hardware with power-of-two geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .config import CacheConfig
from .replacement import ReplacementPolicy, make_policy
from .stackdist import simulate_many
from .stats import CacheStats

__all__ = ["Cache", "AccessResult", "simulate_trace"]


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single cache access."""

    hit: bool
    #: Line address (address // line size) of the access.
    line_addr: int
    #: Set index the access mapped to.
    set_index: int
    #: Line address written back to memory, if a dirty line was evicted.
    writeback_line_addr: Optional[int] = None


class _Line:
    """One cache line's tag state."""

    __slots__ = ("line_addr", "dirty")

    def __init__(self, line_addr: int) -> None:
        self.line_addr = line_addr
        self.dirty = False


class Cache:
    """Reference set-associative cache model.

    Parameters
    ----------
    config:
        Geometry of the cache.
    policy:
        Replacement policy name (``lru``, ``fifo``, ``random``, ``plru``).
    write_back:
        If true, writes dirty the line and evictions of dirty lines count
        as writebacks; if false the cache is write-through (every write
        also goes to the next level, no dirty state).
    write_allocate:
        If true, write misses fill the line; if false write misses bypass
        the cache (no fill).
    seed:
        Seed for the random replacement policy.
    """

    def __init__(
        self,
        config: CacheConfig,
        policy: str = "lru",
        *,
        write_back: bool = False,
        write_allocate: bool = True,
        seed: int = 0,
    ) -> None:
        self.config = config
        self.policy_name = policy
        self.write_back = write_back
        self.write_allocate = write_allocate
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._line_b = config.line_b
        # way index -> line, per set
        self._sets: List[Dict[int, _Line]] = [{} for _ in range(self._num_sets)]
        self._policies: List[ReplacementPolicy] = [
            make_policy(policy, config.assoc, seed=seed + i)
            for i in range(self._num_sets)
        ]
        self._seen_lines: set = set()

    def set_index(self, address: int) -> int:
        """Set index a byte address maps to."""
        return (address // self._line_b) % self._num_sets

    def line_addr(self, address: int) -> int:
        """Line address (block number) of a byte address."""
        return address // self._line_b

    def _find_way(self, set_index: int, line_addr: int) -> Optional[int]:
        for way, line in self._sets[set_index].items():
            if line.line_addr == line_addr:
                return way
        return None

    def access(self, address: int, *, is_write: bool = False) -> AccessResult:
        """Access one byte address; returns hit/miss and any writeback."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        line_addr = self.line_addr(address)
        set_index = line_addr % self._num_sets
        ways = self._sets[set_index]
        policy = self._policies[set_index]

        way = self._find_way(set_index, line_addr)
        if way is not None:
            policy.touch(way)
            if is_write and self.write_back:
                ways[way].dirty = True
            self.stats.record_hit(is_write=is_write)
            return AccessResult(hit=True, line_addr=line_addr, set_index=set_index)

        compulsory = line_addr not in self._seen_lines
        self._seen_lines.add(line_addr)
        self.stats.record_miss(is_write=is_write, compulsory=compulsory)

        writeback: Optional[int] = None
        if not is_write or self.write_allocate:
            writeback = self._fill(set_index, line_addr, dirty=is_write and self.write_back)
        return AccessResult(
            hit=False,
            line_addr=line_addr,
            set_index=set_index,
            writeback_line_addr=writeback,
        )

    def _fill(self, set_index: int, line_addr: int, *, dirty: bool) -> Optional[int]:
        """Install a line, evicting if the set is full; returns writeback."""
        ways = self._sets[set_index]
        policy = self._policies[set_index]
        writeback: Optional[int] = None
        if len(ways) >= self._assoc:
            victim_way = policy.victim(list(ways.keys()))
            victim = ways.pop(victim_way)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
                writeback = victim.line_addr
            target_way = victim_way
        else:
            occupied = set(ways.keys())
            target_way = next(w for w in range(self._assoc) if w not in occupied)
        line = _Line(line_addr)
        line.dirty = dirty
        ways[target_way] = line
        policy.touch(target_way)
        self.stats.fills += 1
        return writeback

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently resident."""
        line_addr = self.line_addr(address)
        return self._find_way(line_addr % self._num_sets, line_addr) is not None

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently in the cache."""
        return sum(len(ways) for ways in self._sets)

    def flush(self) -> int:
        """Invalidate every line (reconfiguration); returns writeback count.

        Dirty lines are written back.  Statistics accumulate across the
        flush, matching a tuner that reconfigures between executions.
        """
        writebacks = 0
        flushed = 0
        for ways in self._sets:
            for line in ways.values():
                flushed += 1
                if line.dirty:
                    writebacks += 1
            ways.clear()
        for policy in self._policies:
            policy.reset()
        self.stats.flushed_lines += flushed
        self.stats.writebacks += writebacks
        return writebacks

    def run_trace(
        self,
        addresses: Sequence[int],
        writes: Optional[Sequence[bool]] = None,
    ) -> CacheStats:
        """Access every address in order; returns the accumulated stats.

        Accepts numpy arrays directly (traces stay int64 arrays end to
        end); iteration happens over plain Python scalars internally
        because that is what the per-access loop is fastest on.
        """
        if writes is not None and len(writes) != len(addresses):
            raise ValueError("writes mask length must match addresses length")
        address_list = (
            addresses.tolist() if isinstance(addresses, np.ndarray)
            else [int(a) for a in addresses]
        )
        if writes is None:
            for address in address_list:
                self.access(address, is_write=False)
        else:
            write_list = (
                writes.tolist() if isinstance(writes, np.ndarray)
                else [bool(w) for w in writes]
            )
            for address, is_write in zip(address_list, write_list):
                self.access(address, is_write=is_write)
        return self.stats


def simulate_trace(
    addresses: Sequence[int],
    config: CacheConfig,
    writes: Optional[Sequence[bool]] = None,
) -> CacheStats:
    """Fast LRU, write-allocate simulation of a complete trace.

    Produces statistics identical to
    ``Cache(config, policy="lru", write_allocate=True)`` but much
    faster: the trace is measured by the single-pass stack-distance
    engine (:mod:`repro.cache.stackdist`), with the address arithmetic
    vectorised in numpy.  When many configurations are needed for the
    same trace, call :func:`repro.cache.stackdist.simulate_many`
    directly — it shares one trace traversal across every configuration
    of a set partition.

    Parameters
    ----------
    addresses:
        Byte addresses, any integer sequence (numpy arrays accepted).
    config:
        Cache geometry.
    writes:
        Optional boolean mask marking write accesses (for the read/write
        breakdown in the returned stats).
    """
    return simulate_many(addresses, (config,), writes=writes)[config]

