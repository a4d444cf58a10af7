"""Process-parallel suite characterisation.

Characterising a suite is embarrassingly parallel across benchmarks:
every task generates its own trace from the deterministic
``(benchmark name, seed)`` pair (:func:`repro.utils.rng.stable_seed`),
so the fan-out is bit-for-bit equivalent to the serial sweep regardless
of scheduling order or worker count.  Workers receive the full task
payload (spec, configurations, energy model, seed) and return a
finished :class:`~repro.characterization.explorer.BenchmarkCharacterization`
plus its :class:`~repro.characterization.instrumentation.TaskTiming`.

The ``fork`` start method is preferred when the platform offers it
(cheap, inherits the imported modules); otherwise the default start
method is used — everything in the payload is picklable either way.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cache.config import DESIGN_SPACE, CacheConfig
from repro.energy.model import EnergyModel
from repro.workloads.benchmark import BenchmarkSpec

from .explorer import BenchmarkCharacterization, characterize_benchmark
from .instrumentation import SweepTiming, TaskTiming

logger = logging.getLogger(__name__)

__all__ = ["SuiteSweepResult", "characterize_suite_parallel"]


@dataclass(frozen=True)
class SuiteSweepResult:
    """A characterised suite plus the sweep's timing instrumentation."""

    #: name -> characterisation, in suite order.
    characterizations: Dict[str, BenchmarkCharacterization]
    #: Wall-time and throughput measurements of the sweep.
    timing: SweepTiming


def _run_task(
    payload: Tuple[BenchmarkSpec, Tuple[CacheConfig, ...], Optional[EnergyModel], int],
) -> Tuple[str, BenchmarkCharacterization, TaskTiming]:
    """Characterise one benchmark (executed inside a worker process)."""
    spec, configs, energy_model, seed = payload
    start = time.perf_counter()
    characterization = characterize_benchmark(
        spec, configs, energy_model, seed=seed
    )
    seconds = time.perf_counter() - start
    timing = TaskTiming(
        name=spec.name,
        seconds=seconds,
        accesses=characterization.counters.mem_accesses,
        configs=len(characterization.results),
    )
    return spec.name, characterization, timing


def _pool_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def characterize_suite_parallel(
    specs: Sequence[BenchmarkSpec],
    configs: Sequence[CacheConfig] = DESIGN_SPACE,
    energy_model: Optional[EnergyModel] = None,
    *,
    seed: int = 0,
    workers: Optional[int] = None,
) -> SuiteSweepResult:
    """Characterise a suite over a process pool, with timing.

    Parameters
    ----------
    specs:
        Benchmarks to characterise; names must be unique.
    configs, energy_model, seed:
        Forwarded to :func:`characterize_benchmark` unchanged.
    workers:
        Worker processes; ``None`` means one per CPU.  Clamped to the
        number of benchmarks; ``<= 1`` runs serially in-process (no pool
        overhead) but still records timing.

    Results are identical to the serial
    :func:`~repro.characterization.explorer.characterize_suite` because
    each task's randomness derives only from ``(name, seed)``.
    """
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate benchmark name: {dupes[0]}")

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(specs) or 1))

    payloads = [
        (spec, tuple(configs), energy_model, seed) for spec in specs
    ]

    logger.info(
        "sweep: characterising %d benchmarks over %d worker(s) (seed=%d)",
        len(specs), workers, seed,
    )
    start = time.perf_counter()
    if workers == 1 or len(specs) <= 1:
        outcomes = [_run_task(payload) for payload in payloads]
    else:
        ctx = _pool_context()
        with ctx.Pool(processes=workers) as pool:
            outcomes = pool.map(_run_task, payloads)
    wall_seconds = time.perf_counter() - start

    characterizations: Dict[str, BenchmarkCharacterization] = {}
    tasks = []
    for name, characterization, timing in outcomes:
        characterizations[name] = characterization
        tasks.append(timing)
    timing = SweepTiming(
        tasks=tuple(tasks), wall_seconds=wall_seconds, workers=workers
    )
    logger.info("sweep: %s", timing.summary())
    return SuiteSweepResult(characterizations=characterizations, timing=timing)
