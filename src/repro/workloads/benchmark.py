"""Benchmark specifications.

A :class:`BenchmarkSpec` is the synthetic stand-in for one EEMBC
benchmark: an instruction-mix model (how many loads, stores, branches,
integer and floating-point operations the program executes) plus a
:class:`~repro.workloads.tracegen.TraceMix` describing its memory
reference behaviour.  Generating a spec with a seed yields a
:class:`Trace` — the full data-reference stream the cache simulator
consumes.

Specs support seeded *variants* (:meth:`BenchmarkSpec.variant`): jittered
copies from the same family used to grow the 15-benchmark suite into a
trainable ANN dataset, following the paper's observation that
"applications from similar application domains have similar execution
statistics".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro._util import stable_seed

from .tracegen import (
    HotspotAccess,
    LoopedArray,
    PointerChase,
    RandomAccess,
    SequentialStream,
    StridedAccess,
    TraceComponent,
    TraceMix,
)

__all__ = ["InstructionMix", "BenchmarkSpec", "Trace"]


@dataclass(frozen=True)
class InstructionMix:
    """Fractions of the instruction stream by class.

    ``load + store + branch + int_op + fp_op`` must sum to 1 (within
    floating-point tolerance); the remainder semantics are deliberately
    excluded to keep the counter model exact.
    """

    load: float
    store: float
    branch: float
    int_op: float
    fp_op: float
    #: Fraction of branches that are taken.
    branch_taken_ratio: float = 0.6

    def __post_init__(self) -> None:
        fractions = (self.load, self.store, self.branch, self.int_op, self.fp_op)
        for value in fractions:
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"instruction-mix fraction out of range: {value}")
        total = sum(fractions)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"instruction mix must sum to 1.0, got {total}")
        if not 0.0 <= self.branch_taken_ratio <= 1.0:
            raise ValueError("branch_taken_ratio must be within [0, 1]")

    @property
    def memory_fraction(self) -> float:
        """Fraction of instructions that reference memory."""
        return self.load + self.store

    @property
    def write_fraction(self) -> float:
        """Fraction of memory references that are writes."""
        if self.memory_fraction == 0:
            return 0.0
        return self.store / self.memory_fraction


@dataclass(frozen=True)
class Trace:
    """One generated execution's data-reference stream."""

    addresses: np.ndarray
    writes: np.ndarray

    def __post_init__(self) -> None:
        if len(self.addresses) != len(self.writes):
            raise ValueError("addresses and writes must have equal length")

    def __len__(self) -> int:
        return len(self.addresses)

    @property
    def store_count(self) -> int:
        """Number of write references."""
        return int(np.count_nonzero(self.writes))

    @property
    def load_count(self) -> int:
        """Number of read references."""
        return len(self) - self.store_count

    @property
    def unique_lines_64b(self) -> int:
        """Distinct 64-byte lines touched (working-set estimate)."""
        if len(self) == 0:
            return 0
        # Sort and count changes: same value as np.unique, several times faster.
        lines = np.sort(self.addresses // 64)
        return 1 + int(np.count_nonzero(lines[1:] != lines[:-1]))


@dataclass(frozen=True)
class BenchmarkSpec:
    """Complete synthetic model of one benchmark.

    Attributes
    ----------
    name:
        Unique benchmark name (doubles as the profiling-table id).
    family:
        EEMBC family the benchmark (or variant) belongs to.
    instructions:
        Dynamic instruction count of one complete execution.
    mix:
        Instruction mix.
    trace_mix:
        Memory reference pattern.
    description:
        Human-readable summary of the modelled kernel.
    """

    name: str
    family: str
    instructions: int
    mix: InstructionMix
    trace_mix: TraceMix
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("benchmark name must be non-empty")
        if self.instructions <= 0:
            raise ValueError(f"instructions must be positive: {self.instructions}")

    # -- derived instruction counts -------------------------------------

    @property
    def mem_accesses(self) -> int:
        """Number of data references per execution."""
        return int(round(self.instructions * self.mix.memory_fraction))

    @property
    def loads(self) -> int:
        """Dynamic load count."""
        return int(round(self.instructions * self.mix.load))

    @property
    def stores(self) -> int:
        """Dynamic store count."""
        return int(round(self.instructions * self.mix.store))

    @property
    def branches(self) -> int:
        """Dynamic branch count."""
        return int(round(self.instructions * self.mix.branch))

    @property
    def taken_branches(self) -> int:
        """Dynamic taken-branch count."""
        return int(round(self.branches * self.mix.branch_taken_ratio))

    @property
    def int_ops(self) -> int:
        """Dynamic integer-ALU instruction count."""
        return int(round(self.instructions * self.mix.int_op))

    @property
    def fp_ops(self) -> int:
        """Dynamic floating-point instruction count."""
        return int(round(self.instructions * self.mix.fp_op))

    # -- trace generation ------------------------------------------------

    def generate_trace(self, seed: int = 0) -> Trace:
        """Generate the deterministic data-reference trace for a seed."""
        rng = np.random.default_rng(self._seed_root(seed))
        n = self.mem_accesses
        addresses = self.trace_mix.generate(n, rng)
        writes = np.zeros(n, dtype=bool)
        store_count = min(self.stores, n)
        if store_count:
            # Spread writes uniformly through the reference stream: every
            # k-th access is a store, the way stores interleave with loads
            # in filter/update kernels.
            write_positions = np.linspace(0, n - 1, store_count).astype(np.int64)
            writes[write_positions] = True
        return Trace(addresses=addresses, writes=writes)

    def _seed_root(self, seed: int) -> int:
        # Distinct benchmarks get decorrelated streams for the same seed.
        return stable_seed(self.name, seed)

    # -- variants ---------------------------------------------------------

    def variant(self, index: int, *, jitter: float = 0.25) -> "BenchmarkSpec":
        """Seeded jittered copy from the same family.

        Scales every component region, the instruction count and (mildly)
        the instruction mix by lognormal-ish factors drawn from a
        deterministic RNG, producing a *different but related* program:
        same phase structure, shifted working set and length.  Variant 0
        is the spec itself.
        """
        if index == 0:
            return self
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        rng = np.random.default_rng(stable_seed(self.family, self.name, index))

        def scale_factor() -> float:
            return float(np.exp(rng.normal(0.0, jitter)))

        region_scale = scale_factor()
        components: Tuple[Tuple[TraceComponent, float], ...] = tuple(
            (self._scale_component(component, region_scale, rng), weight)
            for component, weight in self.trace_mix.components
        )
        trace_mix = replace(self.trace_mix, components=components)
        # Longer data → more instructions, like real kernels looping over
        # bigger inputs.
        instructions = max(1000, int(round(self.instructions * region_scale
                                           * scale_factor() ** 0.5)))
        mix = self._jitter_mix(rng, jitter * 0.3)
        return replace(
            self,
            name=f"{self.name}.v{index}",
            instructions=instructions,
            mix=mix,
            trace_mix=trace_mix,
        )

    @staticmethod
    def _scale_component(
        component: TraceComponent, factor: float, rng: np.random.Generator
    ) -> TraceComponent:
        wobble = float(np.exp(rng.normal(0.0, 0.08)))
        region = max(64, int(round(component.region_bytes * factor * wobble)))
        if isinstance(component, LoopedArray):
            stride = min(component.stride, region)
            return replace(component, region_bytes=region, stride=stride)
        if isinstance(
            component,
            (SequentialStream, StridedAccess, RandomAccess, HotspotAccess,
             PointerChase),
        ):
            return replace(component, region_bytes=region)
        return component

    def _jitter_mix(self, rng: np.random.Generator, amount: float) -> InstructionMix:
        if amount <= 0:
            return self.mix
        raw = np.array(
            [
                self.mix.load,
                self.mix.store,
                self.mix.branch,
                self.mix.int_op,
                self.mix.fp_op,
            ]
        )
        noisy = raw * np.exp(rng.normal(0.0, amount, size=raw.shape))
        noisy = np.clip(noisy, 1e-4, None)
        noisy = noisy / noisy.sum()
        return InstructionMix(
            load=float(noisy[0]),
            store=float(noisy[1]),
            branch=float(noisy[2]),
            int_op=float(noisy[3]),
            fp_op=float(noisy[4]),
            branch_taken_ratio=self.mix.branch_taken_ratio,
        )
