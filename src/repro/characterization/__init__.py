"""Characterisation substrate: per-(benchmark, configuration) cache and
energy measurements (the SimpleScalar role), a persistent store, and the
ANN dataset builder.

Measurement is performed by the single-pass stack-distance engine
(:mod:`repro.cache.stackdist`); :mod:`repro.characterization.parallel`
fans suites out over a process pool with timing instrumentation, and the
store carries content-addressing metadata (:class:`StoreMeta`) so
on-disk caches are keyed by seed, design space and generator version.
"""

from .dataset import Dataset, DatasetSplit, build_dataset, expand_suite
from .explorer import (
    GENERATOR_VERSION,
    BenchmarkCharacterization,
    ConfigResult,
    characterize_benchmark,
    characterize_suite,
)
from .instrumentation import SweepTiming, TaskTiming
from .parallel import SuiteSweepResult, characterize_suite_parallel
from .store import CharacterizationStore, StoreMeta, design_space_fingerprint
from .sweep import SweepPoint, sweep_instructions, sweep_working_set

__all__ = [
    "BenchmarkCharacterization",
    "CharacterizationStore",
    "ConfigResult",
    "Dataset",
    "DatasetSplit",
    "GENERATOR_VERSION",
    "StoreMeta",
    "SuiteSweepResult",
    "SweepPoint",
    "SweepTiming",
    "TaskTiming",
    "build_dataset",
    "characterize_benchmark",
    "characterize_suite",
    "characterize_suite_parallel",
    "design_space_fingerprint",
    "expand_suite",
    "sweep_instructions",
    "sweep_working_set",
]
