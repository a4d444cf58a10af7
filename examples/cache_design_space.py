#!/usr/bin/env python3
"""Explore one benchmark's cache-configuration design space (Table 1).

Characterises a single benchmark over all 18 configurations, prints the
full energy/performance table, and then runs the paper's cache tuning
heuristic (its Figure 5) against the measurements to show how few
configurations it needs to find the best one on each core.  Last, a
working-set sweep scales the benchmark's memory regions and
re-characterises at each scale, exposing the working-set size at which
the best cache size transitions (the analysis used to design the
EEMBC-analogue suite).

Run with::

    python examples/cache_design_space.py [benchmark]
"""

import sys
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from repro.analysis import format_table
from repro.cache import CACHE_SIZES_KB
from repro.cache.config import DESIGN_SPACE, CacheConfig
from repro.characterization import characterize_benchmark
from repro.core.tuning import TuningSession
from repro.energy.model import EnergyModel
from repro.workloads import eembc_benchmark
from repro.workloads.benchmark import BenchmarkSpec
from repro.workloads.tracegen import (
    HotspotAccess,
    LoopedArray,
    PointerChase,
    RandomAccess,
    SequentialStream,
    StridedAccess,
)


@dataclass(frozen=True)
class SweepPoint:
    """One characterised point of a parameter sweep."""

    scale: float
    footprint_bytes: int
    best_config: CacheConfig
    best_energy_nj: float
    #: Total energy at the best configuration of each cache size.
    energy_by_size_nj: dict

    @property
    def best_size_kb(self) -> int:
        """Cache size of the best configuration at this point."""
        return self.best_config.size_kb


def _scale_regions(spec: BenchmarkSpec, factor: float) -> BenchmarkSpec:
    """Scale every trace component's region by ``factor``."""
    scaled_components = []
    for component, weight in spec.trace_mix.components:
        region = max(64, int(round(component.region_bytes * factor)))
        if isinstance(component, LoopedArray):
            stride = min(component.stride, region)
            scaled = replace(component, region_bytes=region, stride=stride)
        elif isinstance(component, PointerChase):
            node = min(component.node_bytes, region)
            scaled = replace(component, region_bytes=region, node_bytes=node)
        elif isinstance(
            component,
            (SequentialStream, StridedAccess, RandomAccess, HotspotAccess),
        ):
            scaled = replace(component, region_bytes=region)
        else:  # pragma: no cover - custom components pass through
            scaled = component
        scaled_components.append((scaled, weight))
    return replace(
        spec,
        name=f"{spec.name}@ws{factor:g}",
        trace_mix=replace(
            spec.trace_mix, components=tuple(scaled_components)
        ),
    )


def _characterize_point(
    spec: BenchmarkSpec,
    scale: float,
    configs: Sequence[CacheConfig],
    energy_model: Optional[EnergyModel],
    seed: int,
) -> SweepPoint:
    char = characterize_benchmark(
        spec, configs=configs, energy_model=energy_model, seed=seed
    )
    best = char.best_config()
    sizes = sorted({c.size_kb for c in char.configs()})
    by_size = {
        size: char.result(char.best_config_for_size(size)).total_energy_nj
        for size in sizes
    }
    return SweepPoint(
        scale=scale,
        footprint_bytes=spec.trace_mix.footprint_bytes,
        best_config=best,
        best_energy_nj=char.result(best).total_energy_nj,
        energy_by_size_nj=by_size,
    )


def sweep_working_set(
    spec: BenchmarkSpec,
    scales: Sequence[float],
    *,
    configs: Sequence[CacheConfig] = DESIGN_SPACE,
    energy_model: Optional[EnergyModel] = None,
    seed: int = 0,
) -> List[SweepPoint]:
    """Characterise the benchmark with all regions scaled per entry.

    Returns one :class:`SweepPoint` per scale, ascending order of input.
    """
    if not scales:
        raise ValueError("need at least one scale")
    if any(scale <= 0 for scale in scales):
        raise ValueError("scales must be positive")
    points = []
    for scale in scales:
        scaled = _scale_regions(spec, scale)
        points.append(
            _characterize_point(scaled, scale, configs, energy_model, seed)
        )
    return points


def main(benchmark: str = "idctrn") -> None:
    spec = eembc_benchmark(benchmark)
    print(f"{spec.name}: {spec.description}")
    print(
        f"  {spec.instructions} instructions, "
        f"{spec.mem_accesses} memory references, "
        f"footprint ~{spec.trace_mix.footprint_bytes // 1024} KB"
    )

    char = characterize_benchmark(spec)
    best = char.best_config()

    rows = []
    for config in char.configs():
        result = char.result(config)
        rows.append((
            config.name + (" *" if config == best else ""),
            f"{result.stats.miss_rate * 100:.2f}%",
            result.total_cycles,
            f"{result.estimate.energy.static_nj / 1e3:.1f}",
            f"{result.estimate.energy.dynamic_nj / 1e3:.1f}",
            f"{result.total_energy_nj / 1e3:.1f}",
        ))
    print()
    print(format_table(
        ("config (* = best)", "miss rate", "cycles", "static uJ",
         "dynamic uJ", "total uJ"),
        rows,
    ))

    # Run the tuning heuristic against the measured design space, per
    # core size, exactly as the scheduler would across executions.
    print()
    print("tuning heuristic (assoc sweep, then line size):")
    for size in CACHE_SIZES_KB:
        session = TuningSession(size_kb=size)
        while not session.done:
            config = session.next_config()
            session.record(config, char.result(config).total_energy_nj)
        true_best = char.best_config_for_size(size)
        found = session.best_config
        outcome = "found true best" if found == true_best else (
            f"local optimum (true best {true_best.name})"
        )
        print(
            f"  {size}KB core: explored {session.exploration_count} of "
            f"{len([c for c in char.configs() if c.size_kb == size])} "
            f"configs -> {found.name} ({outcome})"
        )


def working_set_sweep(benchmark: str) -> None:
    """Show how the best size moves as the working set scales."""
    spec = eembc_benchmark(benchmark)
    print()
    print("working-set sweep (all regions scaled):")
    points = sweep_working_set(spec, scales=(0.25, 0.5, 1.0, 2.0, 4.0))
    rows = [
        (f"x{p.scale:g}", f"~{p.footprint_bytes // 1024} KB",
         p.best_config.name,
         *(f"{p.energy_by_size_nj[s] / 1e3:.1f}" for s in (2, 4, 8)))
        for p in points
    ]
    print(format_table(
        ("scale", "footprint", "best config", "E@2KB uJ", "E@4KB uJ",
         "E@8KB uJ"),
        rows,
    ))


if __name__ == "__main__":
    main(*sys.argv[1:2])
    working_set_sweep(*(sys.argv[1:2] or ["idctrn"]))
