"""Set-associative LRU cache model.

Two complementary implementations are provided:

:class:`Cache`
    A per-access LRU model with write-through and write-back policies,
    flushes (used by the cache tuner on reconfiguration) and full
    statistics.  This is the reference model.

:func:`simulate_trace`
    A fast path for the common case used by the characterisation explorer:
    caches driven by a complete address trace.  It delegates to the
    stack-distance engine in :mod:`repro.cache.stackdist`, which measures
    a whole partition of the design space in one pass;
    :func:`repro.cache.stackdist.simulate_many` is the bulk entry point
    that characterises many configurations per trace traversal.  The fast
    path and the reference model produce identical statistics (tested
    property).

Both allocate on every miss, reads and writes alike.  Addresses are byte
addresses; the cache indexes by ``(address // line_b) % num_sets`` like
real hardware with power-of-two geometry.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import CacheConfig
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


class Cache:
    """Reference set-associative LRU cache model.

    Each set is an ordered dict from line address to its dirty flag,
    least recently used first: a hit moves the line to the end, and a
    miss in a full set evicts the first line.

    Parameters
    ----------
    config:
        Geometry of the cache.
    write_back:
        If true, writes dirty the line and evictions of dirty lines count
        as writebacks; if false the cache is write-through (every write
        also goes to the next level, no dirty state).
    """

    def __init__(self, config: CacheConfig, *, write_back: bool = False) -> None:
        self.config = config
        self.write_back = write_back
        self.stats = CacheStats()
        self._num_sets = config.num_sets
        self._assoc = config.assoc
        self._line_b = config.line_b
        self._sets: List["OrderedDict[int, bool]"] = [
            OrderedDict() for _ in range(self._num_sets)
        ]
        self._seen_lines: set = set()

    def set_index(self, address: int) -> int:
        """Set index a byte address maps to."""
        return (address // self._line_b) % self._num_sets

    def line_addr(self, address: int) -> int:
        """Line address (block number) of a byte address."""
        return address // self._line_b

    def access(self, address: int, *, is_write: bool = False) -> AccessResult:
        """Access one byte address; returns hit/miss and any writeback."""
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        line_addr = self.line_addr(address)
        set_index = line_addr % self._num_sets
        lines = self._sets[set_index]
        dirty = is_write and self.write_back

        if line_addr in lines:
            lines.move_to_end(line_addr)
            if dirty:
                lines[line_addr] = True
            self.stats.record_hit(is_write=is_write)
            return AccessResult(hit=True, line_addr=line_addr, set_index=set_index)

        compulsory = line_addr not in self._seen_lines
        self._seen_lines.add(line_addr)
        self.stats.record_miss(is_write=is_write, compulsory=compulsory)

        writeback: Optional[int] = None
        if len(lines) >= self._assoc:
            victim, victim_dirty = lines.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
                writeback = victim
        lines[line_addr] = dirty
        self.stats.fills += 1
        return AccessResult(
            hit=False,
            line_addr=line_addr,
            set_index=set_index,
            writeback_line_addr=writeback,
        )

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently resident."""
        line_addr = self.line_addr(address)
        return line_addr in self._sets[line_addr % self._num_sets]

    @property
    def resident_lines(self) -> int:
        """Number of valid lines currently in the cache."""
        return sum(len(lines) for lines in self._sets)

    def flush(self) -> int:
        """Invalidate every line (reconfiguration); returns writeback count.

        Dirty lines are written back.  Statistics accumulate across the
        flush, matching a tuner that reconfigures between executions.
        """
        writebacks = 0
        flushed = 0
        for lines in self._sets:
            flushed += len(lines)
            writebacks += sum(lines.values())
            lines.clear()
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
    """Fast simulation of a complete trace.

    Produces statistics identical to ``Cache(config)`` but much
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

