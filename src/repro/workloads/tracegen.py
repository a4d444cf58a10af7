"""Synthetic memory-address trace generators.

The paper drove its characterisation with SimpleScalar running the EEMBC
suite.  Neither is available offline, so benchmarks are modelled as
mixtures of *trace components*, each reproducing one canonical memory
access behaviour:

* :class:`SequentialStream` — streaming data (DSP input buffers): pure
  spatial locality, no reuse.
* :class:`LoopedArray` — a working set swept repeatedly (filter state,
  lookup tables): temporal + spatial locality bounded by the array size.
* :class:`StridedAccess` — column walks / FFT butterflies: spatial
  locality defeated by large strides.
* :class:`PointerChase` — linked structures: temporal locality with
  randomised spatial order.
* :class:`RandomAccess` — uniformly random references in a region.
* :class:`HotspotAccess` — Zipf-skewed references (branch tables, hot
  records).

A :class:`TraceMix` weights components and interleaves their streams in
fixed-size chunks, approximating a program alternating between phases.
All generation is numpy-vectorised and deterministic given the seed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "TraceComponent",
    "SequentialStream",
    "LoopedArray",
    "StridedAccess",
    "PointerChase",
    "RandomAccess",
    "HotspotAccess",
    "TraceMix",
    "PhasedTraceMix",
    "interleave_chunks",
]

#: Default chunk length (accesses) used when interleaving phase streams.
DEFAULT_CHUNK = 64

#: Address alignment granule for generated accesses (a 32-bit word).
WORD_BYTES = 4


def _check_positive(name: str, value: float) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


class TraceComponent(ABC):
    """One access-pattern building block.

    Every component generates ``n`` byte addresses inside a region placed
    at ``base`` by the caller; components never overlap because the mix
    assigns disjoint bases.
    """

    #: Bytes of address space the component needs.
    region_bytes: int

    @abstractmethod
    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        """Return ``n`` byte addresses (int64 numpy array)."""

    def _empty(self) -> np.ndarray:
        return np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class SequentialStream(TraceComponent):
    """Monotonically advancing stream with a fixed small stride.

    Models input/output buffers consumed once: only spatial locality, and
    a footprint proportional to the trace length (wraps at
    ``region_bytes`` so addresses stay bounded).
    """

    region_bytes: int = 64 * 1024
    stride: int = WORD_BYTES

    def __post_init__(self) -> None:
        _check_positive("region_bytes", self.region_bytes)
        _check_positive("stride", self.stride)

    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return self._empty()
        offsets = (np.arange(n, dtype=np.int64) * self.stride) % self.region_bytes
        return base + offsets


@dataclass(frozen=True)
class LoopedArray(TraceComponent):
    """A working set swept start-to-end repeatedly.

    The array of ``region_bytes`` is walked with ``stride`` over and over,
    so the temporal reuse distance equals the working set: the component
    hits almost always in any cache larger than the array and thrashes
    any cache smaller than it.  This is the component that differentiates
    the benchmarks' best cache sizes.
    """

    region_bytes: int = 2048
    stride: int = WORD_BYTES

    def __post_init__(self) -> None:
        _check_positive("region_bytes", self.region_bytes)
        _check_positive("stride", self.stride)
        if self.stride > self.region_bytes:
            raise ValueError("stride larger than the array")

    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return self._empty()
        sweep = np.arange(0, self.region_bytes, self.stride, dtype=np.int64)
        repeats = -(-n // len(sweep))  # ceil division
        return base + np.tile(sweep, repeats)[:n]


@dataclass(frozen=True)
class StridedAccess(TraceComponent):
    """Large-stride walk wrapped inside a region (column-major walks)."""

    region_bytes: int = 8192
    stride: int = 256

    def __post_init__(self) -> None:
        _check_positive("region_bytes", self.region_bytes)
        _check_positive("stride", self.stride)

    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return self._empty()
        # Offset successive wraps by one word so columns shift, the way a
        # column-major matrix walk advances to the next column.
        raw = np.arange(n, dtype=np.int64) * self.stride
        wraps = raw // self.region_bytes
        offsets = (raw + wraps * WORD_BYTES) % self.region_bytes
        return base + offsets


@dataclass(frozen=True)
class PointerChase(TraceComponent):
    """Repeated traversal of a randomly-ordered linked structure.

    Nodes are laid out in a shuffled order fixed at generation time and
    the whole chain is walked repeatedly: full temporal reuse of the
    region but no spatial predictability, so line size barely helps while
    capacity dominates.
    """

    region_bytes: int = 4096
    node_bytes: int = 16

    def __post_init__(self) -> None:
        _check_positive("region_bytes", self.region_bytes)
        _check_positive("node_bytes", self.node_bytes)
        if self.node_bytes > self.region_bytes:
            raise ValueError("node larger than the region")

    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return self._empty()
        num_nodes = max(1, self.region_bytes // self.node_bytes)
        order = rng.permutation(num_nodes).astype(np.int64)
        repeats = -(-n // num_nodes)
        walk = np.tile(order, repeats)[:n]
        return base + walk * self.node_bytes


@dataclass(frozen=True)
class RandomAccess(TraceComponent):
    """Uniformly random word accesses in a region (hash tables, scatter)."""

    region_bytes: int = 16384

    def __post_init__(self) -> None:
        _check_positive("region_bytes", self.region_bytes)

    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return self._empty()
        words = max(1, self.region_bytes // WORD_BYTES)
        return base + rng.integers(0, words, size=n, dtype=np.int64) * WORD_BYTES


@dataclass(frozen=True)
class HotspotAccess(TraceComponent):
    """Zipf-skewed accesses: a few lines take most references.

    ``skew`` is the Zipf exponent; larger values concentrate references
    on fewer addresses (models lookup tables with popular entries).
    """

    region_bytes: int = 8192
    skew: float = 1.3

    def __post_init__(self) -> None:
        _check_positive("region_bytes", self.region_bytes)
        if self.skew <= 1.0:
            raise ValueError(f"skew must exceed 1.0, got {self.skew}")

    def generate(self, n: int, base: int, rng: np.random.Generator) -> np.ndarray:
        if n == 0:
            return self._empty()
        words = max(1, self.region_bytes // WORD_BYTES)
        ranks = rng.zipf(self.skew, size=n).astype(np.int64)
        # Zipf is unbounded; wrap into the region while preserving the
        # skew toward low ranks.
        offsets = (ranks - 1) % words
        # Scatter ranks over the region deterministically so the hot
        # addresses are not all adjacent.
        scatter = rng.permutation(words).astype(np.int64)
        return base + scatter[offsets] * WORD_BYTES


def interleave_chunks(
    streams: Sequence[np.ndarray], chunk: int = DEFAULT_CHUNK
) -> np.ndarray:
    """Interleave address streams in round-robin chunks.

    Takes ``chunk`` accesses from each non-exhausted stream in turn,
    approximating a program alternating between its phases at a basic
    block granularity.  All input order within each stream is preserved.
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    streams = [np.asarray(s) for s in streams if len(s)]
    if not streams:
        return np.zeros(0, dtype=np.int64)
    # Round k takes taken[k, i] accesses from stream i, so a chunk's
    # first access lands after every access of earlier rounds and of
    # earlier streams in its round: an exclusive running sum, round-major.
    lengths = np.array([s.size for s in streams])
    offsets = chunk * np.arange(-(-int(lengths.max()) // chunk))
    taken = np.clip(lengths - offsets[:, None], 0, chunk)
    starts = (np.cumsum(taken) - taken.ravel()).reshape(taken.shape)
    # Stream i's access j, in chunk k, goes to starts[k, i] + j - k*chunk.
    shifts = starts - offsets[:, None]
    out = np.empty(int(lengths.sum()), dtype=np.result_type(*streams))
    for i, stream in enumerate(streams):
        n_chunks = -(-stream.size // chunk)
        out[np.arange(stream.size) + np.repeat(
            shifts[:n_chunks, i], taken[:n_chunks, i]
        )] = stream
    return out


@dataclass(frozen=True)
class TraceMix:
    """Weighted mixture of trace components.

    Attributes
    ----------
    components:
        ``(component, weight)`` pairs; weights are normalised to
        fractions of the total access count.
    chunk:
        Interleaving granularity in accesses.
    region_gap_bytes:
        Guard gap between component regions (keeps them in disjoint
        cache-set footprints only insofar as real data structures are).
    """

    components: Tuple[Tuple[TraceComponent, float], ...]
    chunk: int = DEFAULT_CHUNK
    region_gap_bytes: int = 4096

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("TraceMix needs at least one component")
        for component, weight in self.components:
            if weight <= 0:
                raise ValueError(f"component weight must be positive: {weight}")
        if self.chunk <= 0:
            raise ValueError("chunk must be positive")

    @property
    def total_weight(self) -> float:
        return sum(weight for _, weight in self.components)

    @property
    def footprint_bytes(self) -> int:
        """Total address-space footprint of all component regions."""
        return sum(
            component.region_bytes + self.region_gap_bytes
            for component, _ in self.components
        )

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n`` interleaved byte addresses."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        total = self.total_weight
        streams: List[np.ndarray] = []
        base = 0x1000  # leave page zero unused, like a real loader
        allocated = 0
        for component, weight in self.components:
            share = int(round(n * weight / total))
            streams.append(component.generate(share, base, rng))
            base += component.region_bytes + self.region_gap_bytes
            allocated += share
        # Rounding may drop/add a few accesses; pad with the first
        # component to hit exactly n.
        trace = interleave_chunks(streams, chunk=self.chunk)
        if len(trace) > n:
            trace = trace[:n]
        elif len(trace) < n:
            first_component = self.components[0][0]
            pad = first_component.generate(n - len(trace), 0x1000, rng)
            trace = np.concatenate([trace, pad])
        return trace


@dataclass(frozen=True)
class PhasedTraceMix:
    """A program with distinct execution phases.

    Real applications move through phases with different locality
    (Sherwood et al.'s phase tracking, cited by the paper as related
    predictive work): an input-parsing phase may stream, a compute
    phase may sweep a small working set.  A :class:`PhasedTraceMix`
    concatenates per-phase :class:`TraceMix` traces in order, weighting
    each phase by its share of the reference stream.

    The paper's scheduler profiles each application *once* and picks a
    *single* configuration per core — phased applications are exactly
    where that assumption costs energy, which the phased-benchmark
    ablation quantifies.
    """

    phases: Tuple[Tuple["TraceMix", float], ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("PhasedTraceMix needs at least one phase")
        for mix, share in self.phases:
            if share <= 0:
                raise ValueError(f"phase share must be positive: {share}")

    @property
    def total_weight(self) -> float:
        """Sum of phase shares (kept for TraceMix interface parity)."""
        return sum(share for _, share in self.phases)

    @property
    def footprint_bytes(self) -> int:
        """Upper bound: phases may reuse address space, so the union of
        per-phase footprints bounds the true footprint."""
        return max(mix.footprint_bytes for mix, _ in self.phases)

    @property
    def components(self) -> Tuple[Tuple[TraceComponent, float], ...]:
        """All phases' components (for variant jittering)."""
        out = []
        for mix, share in self.phases:
            for component, weight in mix.components:
                out.append((component, weight * share))
        return tuple(out)

    def generate(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Generate ``n`` addresses: each phase's block in order."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        total = self.total_weight
        pieces: List[np.ndarray] = []
        produced = 0
        for i, (mix, share) in enumerate(self.phases):
            if i == len(self.phases) - 1:
                count = n - produced  # absorb rounding in the last phase
            else:
                count = int(round(n * share / total))
            count = max(0, min(count, n - produced))
            pieces.append(mix.generate(count, rng))
            produced += count
        return np.concatenate(pieces) if pieces else np.zeros(0, dtype=np.int64)
