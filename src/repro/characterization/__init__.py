"""Characterisation substrate: per-(benchmark, configuration) cache and
energy measurements (the SimpleScalar role), a persistent store, and the
ANN dataset builder.

Measurement is performed by the single-pass stack-distance engine
(:mod:`repro.cache.stackdist`), one benchmark after another in suite
order.  The store carries
content-addressing metadata (:class:`StoreMeta`) so on-disk caches are
keyed by seed, design space and generator version.
"""

from .dataset import Dataset, DatasetSplit, build_dataset, expand_suite
from .explorer import (
    GENERATOR_VERSION,
    BenchmarkCharacterization,
    ConfigResult,
    characterize_benchmark,
    characterize_suite,
)
from .store import CharacterizationStore, StoreMeta, design_space_fingerprint

__all__ = [
    "BenchmarkCharacterization",
    "CharacterizationStore",
    "ConfigResult",
    "Dataset",
    "DatasetSplit",
    "GENERATOR_VERSION",
    "StoreMeta",
    "build_dataset",
    "characterize_benchmark",
    "characterize_suite",
    "design_space_fingerprint",
    "expand_suite",
]
