"""Single-pass stack-distance (reuse-distance) characterisation engine.

The design-space explorer needs LRU hit/miss counts for every
configuration in Table 1.  Replaying the trace once per configuration
(the seed approach) repeats almost identical work 18 times: two
configurations with the same line size and the same number of sets map
every address to the same set, and for LRU the set content of an A-way
cache is exactly the top A entries of the set's (unbounded) LRU stack.
An access therefore hits in an A-way cache iff its *stack distance* —
the depth of its line in the per-set most-recently-used stack — is less
than A.

One pass over the trace at a fixed ``(line_b, num_sets)`` partition
that records the histogram of stack distances (capped at the largest
associativity of interest) yields the exact hit/miss counts of *every*
associativity simultaneously.  The remaining counters fall out too:

* fills equal misses (write-allocate);
* compulsory misses are first-ever references to a line, identical for
  every associativity of the partition (and every partition of the same
  line size);
* evictions are ``misses - final_occupancy`` where the final occupancy
  of an A-way cache is ``sum over sets of min(distinct_lines(set), A)``
  — with LRU a set holds ``min(distinct, A)`` lines forever after.

Each line size's trace is compressed once, in trace order: an access
repeating the line before it hits at depth 0 in every partition (see
:func:`_compress`).  Every partition is then measured by the same
set-sorted, run-compressed pass:

* **set order** — a stable radix argsort of the set indices makes each
  set's accesses contiguous, still in trace order;
* **depth 0** — an access repeating the line before it in set order
  hits at depth 0; collapsing those repeats leaves *runs*, each run's
  line differing from the previous run's.  A set count that a smaller
  measured one divides sorts that partition's runs instead of the
  trace, and gets the same runs: each of its sets lies within one
  coarser set.  Table 1's 32, 64 and 128 sets per line size thus sort
  the trace once and then ever fewer runs;
* **deeper** — one numpy pass per stack level: a reset-and-count
  recurrence (one running maximum) over the runs locates each stack
  slot, and the runs still deeper than the level are counted as it is
  walked (:func:`_deeper_counts`).  Lines of an earlier set never
  match.  A direct-mapped partition walks no level.

Distinct lines, hence compulsory misses and per-set occupancy, come
from one sort of the trace's distinct byte addresses, shared by every
line size.  Addresses below 2**31 are measured as int32, which halves
that sort and every line array derived from the trace.  The engine is bit-for-bit equivalent to the reference
:class:`~repro.cache.cache.Cache` model (property-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import CacheConfig
from .stats import CacheStats

__all__ = [
    "StackDistanceProfile",
    "profile_trace",
    "simulate_many",
]

#: Sentinel "no line" value; negative addresses are rejected up front.
_EMPTY = -1

_INT32 = np.iinfo(np.int32)


@dataclass(frozen=True)
class StackDistanceProfile:
    """Stack-distance summary of one trace over one set partition.

    A *partition* is a ``(line_b, num_sets)`` pair: every configuration
    with that line size and set count shares it, whatever its
    associativity.  The profile holds everything needed to reconstruct
    exact LRU :class:`CacheStats` for any associativity up to
    ``max_assoc`` without touching the trace again.

    Attributes
    ----------
    line_b:
        Line size of the partition in bytes.
    num_sets:
        Number of sets of the partition.
    max_assoc:
        Largest associativity the profile can answer for (the stack
        truncation depth of the measuring pass).
    accesses / write_accesses:
        Trace length and number of write references.
    depth_hist:
        ``max_assoc + 1`` counts: accesses at stack distance
        ``0 .. max_assoc - 1``, with the final bucket counting accesses
        at distance >= ``max_assoc`` (a miss for every answerable
        associativity).
    write_depth_hist:
        The same histogram restricted to write accesses.
    compulsory_misses:
        First-ever references to a line address (cold misses; identical
        for every associativity).
    set_distinct:
        Per set, the number of distinct line addresses that mapped to
        it (the final length of the unbounded LRU stack).
    """

    line_b: int
    num_sets: int
    max_assoc: int
    accesses: int
    write_accesses: int
    depth_hist: Tuple[int, ...]
    write_depth_hist: Tuple[int, ...]
    compulsory_misses: int
    set_distinct: Tuple[int, ...]
    #: Final occupancy of every answerable associativity, derived from
    #: ``set_distinct`` once, not on every :meth:`stats_for_assoc` call.
    _occupancy: Tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.depth_hist) != self.max_assoc + 1:
            raise ValueError("depth_hist must have max_assoc + 1 buckets")
        if len(self.write_depth_hist) != self.max_assoc + 1:
            raise ValueError("write_depth_hist must have max_assoc + 1 buckets")
        if len(self.set_distinct) != self.num_sets:
            raise ValueError("set_distinct must have one entry per set")
        object.__setattr__(self, "_occupancy", _occupancy_curve(
            np.asarray(self.set_distinct, dtype=np.int64), self.max_assoc
        ))

    def hits_for_assoc(self, assoc: int) -> int:
        """Hit count of an ``assoc``-way LRU cache on this partition."""
        self._check_assoc(assoc)
        return sum(self.depth_hist[:assoc])

    def miss_curve(self) -> Tuple[int, ...]:
        """Miss counts for associativity 1 .. ``max_assoc`` (non-increasing)."""
        return tuple(
            self.accesses - self.hits_for_assoc(a)
            for a in range(1, self.max_assoc + 1)
        )

    def stats_for_assoc(self, assoc: int) -> CacheStats:
        """Exact LRU, write-allocate :class:`CacheStats` for one associativity."""
        self._check_assoc(assoc)
        hits = sum(self.depth_hist[:assoc])
        write_hits = sum(self.write_depth_hist[:assoc])
        misses = self.accesses - hits
        write_misses = self.write_accesses - write_hits
        occupancy = self._occupancy[assoc - 1]
        stats = CacheStats(
            accesses=self.accesses,
            hits=hits,
            misses=misses,
            read_accesses=self.accesses - self.write_accesses,
            write_accesses=self.write_accesses,
            read_misses=misses - write_misses,
            write_misses=write_misses,
            evictions=misses - occupancy,
            writebacks=0,
            fills=misses,
            compulsory_misses=self.compulsory_misses,
        )
        stats.validate()
        return stats

    def _check_assoc(self, assoc: int) -> None:
        if not 1 <= assoc <= self.max_assoc:
            raise ValueError(
                f"profile answers associativities 1..{self.max_assoc}, "
                f"got {assoc}"
            )


def _occupancy_curve(set_distinct: np.ndarray, max_assoc: int) -> Tuple[int, ...]:
    """``sum(min(set_distinct, a))`` for ``a = 1 .. max_assoc``.

    With LRU an ``a``-way set keeps ``min(distinct, a)`` lines forever
    after.  The curve adds, per way, the sets holding at least that
    many lines.
    """
    capped = np.bincount(
        np.minimum(set_distinct, max_assoc), minlength=max_assoc + 1
    )
    at_least = set_distinct.size - np.cumsum(capped[:-1])
    return tuple(np.cumsum(at_least).tolist())


def _as_addresses(addresses: Sequence[int]) -> np.ndarray:
    """Byte addresses as a one-dimensional integer array.

    int32 when every address fits, which halves the sorts and every line
    array derived from them; int64 otherwise.
    """
    addr = np.asarray(addresses, dtype=np.int64)
    if addr.ndim != 1:
        raise ValueError("addresses must be one-dimensional")
    if addr.size and _INT32.min <= addr.min() and addr.max() <= _INT32.max:
        return addr.astype(np.int32)
    return addr


def _as_write_mask(
    writes: Optional[Sequence[bool]], n: int
) -> Optional[np.ndarray]:
    if writes is None:
        return None
    mask = np.asarray(writes, dtype=bool)
    if mask.shape != (n,):
        raise ValueError("writes mask length must match addresses length")
    return mask


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the elements that differ from their predecessor."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _drop_repeats(values: np.ndarray) -> np.ndarray:
    """``values`` without elements equal to their predecessor."""
    return values[_run_starts(values)]


def _distinct_addresses(addr: np.ndarray) -> np.ndarray:
    """Sorted distinct byte addresses; negative ones are rejected.

    Same values as ``np.unique``, which is several times slower here.
    Line addresses follow by floor division (a shift for a power-of-two
    line size), which keeps the array sorted.
    """
    distinct = _drop_repeats(np.sort(addr))
    if distinct.size and distinct[0] < 0:
        first = int(addr[addr < 0][0])
        raise ValueError(f"address must be non-negative, got {first}")
    return distinct


def _compress(
    la: np.ndarray, mask: Optional[np.ndarray]
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Drop every access repeating the line just before it in trace order.

    Such an access hits at depth 0 in every partition of its line size
    and never starts a set-order run, so the runs, and the write flag of
    each run's first access, are those of the full trace.
    """
    keep = np.flatnonzero(_run_starts(la))
    return la[keep], None if mask is None else mask[keep]


def _deeper_counts(
    runs: np.ndarray, run_writes: Optional[np.ndarray], max_assoc: int
) -> Tuple[List[int], Optional[List[int]]]:
    """Runs deeper than each stack level ``0 .. max_assoc - 1``, and write runs.

    Every run is deeper than level 0; a run at depth ``d`` is deeper
    than level ``d - 1`` but not level ``d``, and one deeper than level
    ``max_assoc - 1`` misses.  The counts replace a per-run depth array
    and its histogram: a direct-mapped partition walks no level.

    Exact LRU, level by level.  With ``suffix_L[k]`` the length of the
    longest stretch of runs ending at run ``k`` that holds at most ``L``
    distinct lines, stack slot ``L`` before run ``i`` holds
    ``runs[i - 1 - suffix_L[i - 1]]`` (no line if negative).
    ``suffix_1`` is all ones, as adjacent runs differ, and
    ``suffix_{L+1}[k]`` is ``suffix_{L+1}[k - 1] + 1`` if run ``k`` hit
    at a depth <= ``L``, else ``suffix_L[k - 1] + 1``.  The loop carries
    ``src[i] = i - suffix_L[i - 1]``, an index into ``[no line] + runs``;
    it is non-decreasing, so the next level's ``src[i]`` is its running
    maximum over the runs before ``i`` deeper than ``L``.  A set's runs
    are contiguous, so an earlier set's lines never match.
    """
    counts = [runs.size]
    write_counts = None
    if run_writes is not None:
        write_counts = [int(np.count_nonzero(run_writes))]
    if max_assoc == 1:
        return counts, write_counts
    slots = np.empty(runs.size + 1, dtype=runs.dtype)
    slots[0] = _EMPTY
    slots[1:] = runs
    src = np.arange(-1, runs.size - 1)
    src[:1] = 0
    deeper = np.ones(runs.size, dtype=bool)
    for level in range(1, max_assoc):
        deeper &= slots[src] != runs
        counts.append(int(np.count_nonzero(deeper)))
        if run_writes is not None:
            write_counts.append(int(np.count_nonzero(deeper & run_writes)))
        if level == max_assoc - 1:
            break
        restart = src * deeper
        np.maximum.accumulate(restart, out=restart)
        src[1:] = restart[:-1]
    return counts, write_counts


def _depth_hist(accesses: int, deeper: List[int]) -> Tuple[int, ...]:
    """Accesses per stack depth, from the runs deeper than each level.

    ``accesses`` counts every access of the runs; those that do not
    start a run hit at depth 0.
    """
    steps = (above - below for above, below in zip(deeper, deeper[1:]))
    return (accesses - deeper[0], *steps, deeper[-1])


def _set_index(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Set index of every line address.

    A power-of-two set count takes a bit mask, much cheaper than int64 %.
    """
    low_bits = num_sets - 1
    return lines & low_bits if not num_sets & low_bits else lines % num_sets


def _set_runs(
    la: np.ndarray, mask: Optional[np.ndarray], num_sets: int
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The runs of one partition, and the write flag of each run's first access.

    ``la`` lists line addresses in trace order, or the runs of a coarser
    partition whose set count divides ``num_sets``: every finer set then
    lies within one coarser set, so the coarser runs of a finer set are
    its accesses in trace order with some repeats already collapsed, and
    this pass yields the same runs either way.
    """
    # Set order.  Keys of 16 bits or fewer get numpy's stable radix sort.
    keys = _set_index(la, num_sets).astype(np.min_scalar_type(num_sets - 1))
    order = np.argsort(keys, kind="stable")
    # Depth 0: every access that does not start a run.  Equal lines
    # share a set, so runs never span a set boundary.
    sorted_lines = la[order]
    starts = np.flatnonzero(_run_starts(sorted_lines))
    return sorted_lines[starts], None if mask is None else mask[order[starts]]


def _partition_profile(
    runs: np.ndarray,
    run_writes: Optional[np.ndarray],
    lines: np.ndarray,
    *,
    accesses: int,
    write_accesses: int,
    line_b: int,
    num_sets: int,
    max_assoc: int,
) -> StackDistanceProfile:
    """Measure one partition from its :func:`_set_runs`.

    ``lines`` are the sorted distinct line addresses; ``accesses`` and
    ``write_accesses`` count the full trace.
    """
    if max_assoc == 3:
        max_assoc = 4  # one more level is cheap, and 4 ways also answer 3
    deeper, write_deeper = _deeper_counts(runs, run_writes, max_assoc)
    distinct = np.bincount(_set_index(lines, num_sets), minlength=num_sets)
    return StackDistanceProfile(
        line_b=line_b,
        num_sets=num_sets,
        max_assoc=max_assoc,
        accesses=accesses,
        write_accesses=write_accesses,
        depth_hist=_depth_hist(accesses, deeper),
        write_depth_hist=(
            (0,) * (max_assoc + 1) if write_deeper is None
            else _depth_hist(write_accesses, write_deeper)
        ),
        compulsory_misses=int(lines.size),
        set_distinct=tuple(distinct.tolist()),
    )


def profile_trace(
    addresses: Sequence[int],
    *,
    line_b: int,
    num_sets: int,
    max_assoc: int,
    writes: Optional[Sequence[bool]] = None,
) -> StackDistanceProfile:
    """Measure one partition of a trace in a single pass.

    Returns a :class:`StackDistanceProfile` from which exact LRU
    statistics for every associativity up to ``max_assoc`` can be read
    via :meth:`StackDistanceProfile.stats_for_assoc`.
    """
    if line_b <= 0 or num_sets <= 0 or max_assoc <= 0:
        raise ValueError("line_b, num_sets and max_assoc must be positive")
    addr = _as_addresses(addresses)
    mask = _as_write_mask(writes, int(addr.size))
    lines = _drop_repeats(_distinct_addresses(addr) // line_b)
    la, la_mask = _compress(addr // line_b, mask)
    return _partition_profile(
        *_set_runs(la, la_mask, num_sets), lines,
        accesses=int(addr.size),
        write_accesses=0 if mask is None else int(np.count_nonzero(mask)),
        line_b=line_b, num_sets=num_sets, max_assoc=max_assoc,
    )


def simulate_many(
    addresses: Sequence[int],
    configs: Sequence[CacheConfig],
    writes: Optional[Sequence[bool]] = None,
) -> Dict[CacheConfig, CacheStats]:
    """Exact LRU, write-allocate statistics for many configurations at once.

    Groups ``configs`` by ``(line_b, num_sets)`` partition, measures
    each partition in a single pass over the trace, and reads every
    configuration's :class:`CacheStats` off its partition's stack
    -distance profile.  Produces results identical to running
    :func:`repro.cache.cache.simulate_trace` per configuration, which
    in turn matches the reference :class:`~repro.cache.cache.Cache`.

    The returned mapping preserves the order of first appearance in
    ``configs``; duplicates collapse onto one entry.
    """
    unique_configs = list(dict.fromkeys(configs))
    addr = _as_addresses(addresses)
    mask = _as_write_mask(writes, int(addr.size))
    distinct = _distinct_addresses(addr)
    write_accesses = 0 if mask is None else int(np.count_nonzero(mask))

    by_line: Dict[int, Dict[int, int]] = {}
    for config in unique_configs:
        partitions = by_line.setdefault(config.line_b, {})
        num_sets = config.num_sets
        partitions[num_sets] = max(partitions.get(num_sets, 0), config.assoc)

    # Line sizes are powers of two, so each coarser line address is a
    # shift of the finer, already compressed one.  The compressed trace
    # is the runs of the one-set partition; each set count refines the
    # runs of the largest set count measured so far that divides it.
    profiles: Dict[Tuple[int, int], StackDistanceProfile] = {}
    la, la_mask, lines, shift = addr, mask, distinct, 0
    for line_b in sorted(by_line):
        step = line_b.bit_length() - 1 - shift
        shift += step
        la, la_mask = _compress(la >> step, la_mask)
        lines = _drop_repeats(lines >> step)
        runs_by_sets = {1: (la, la_mask)}
        for num_sets in sorted(by_line[line_b]):
            coarse = max(c for c in runs_by_sets if num_sets % c == 0)
            runs_by_sets[num_sets] = _set_runs(
                *runs_by_sets[coarse], num_sets
            )
            profiles[(line_b, num_sets)] = _partition_profile(
                *runs_by_sets[num_sets], lines,
                accesses=int(addr.size), write_accesses=write_accesses,
                line_b=line_b, num_sets=num_sets,
                max_assoc=by_line[line_b][num_sets],
            )

    return {
        config: profiles[(config.line_b, config.num_sets)].stats_for_assoc(
            config.assoc
        )
        for config in unique_configs
    }
