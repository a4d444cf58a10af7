"""Set-associative cache substrate.

This package provides everything the reproduction needs from a cache
simulator: the configuration design space of the paper's Table 1
(:mod:`repro.cache.config`), the per-access reference model and the fast
trace path (:mod:`repro.cache.cache`), the single-pass stack-distance
characterisation engine (:mod:`repro.cache.stackdist`), replacement policies
(:mod:`repro.cache.replacement`) and the reconfiguration tuner model
(:mod:`repro.cache.tuner`).  The scheduler needs one configurable L1 per
core; the private and shared L2 models of ablations A4 and A12 live
with those benchmarks, in ``tests/ablation/caches.py``.
"""

from .cache import AccessResult, Cache, simulate_trace
from .config import (
    BASE_CONFIG,
    CACHE_SIZES_KB,
    DESIGN_SPACE,
    LINE_SIZES_B,
    CacheConfig,
    associativities_for_size,
    configs_for_size,
    design_space,
)
from .replacement import (
    FIFOPolicy,
    LRUPolicy,
    PLRUPolicy,
    POLICY_NAMES,
    RandomPolicy,
    ReplacementPolicy,
    make_policy,
)
from .stackdist import StackDistanceProfile, profile_trace, simulate_many
from .stats import CacheStats
from .tuner import CacheTuner, ReconfigurationCost, TunerCostModel

__all__ = [
    "AccessResult",
    "BASE_CONFIG",
    "CACHE_SIZES_KB",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "CacheTuner",
    "DESIGN_SPACE",
    "FIFOPolicy",
    "LINE_SIZES_B",
    "LRUPolicy",
    "PLRUPolicy",
    "POLICY_NAMES",
    "RandomPolicy",
    "ReconfigurationCost",
    "ReplacementPolicy",
    "StackDistanceProfile",
    "TunerCostModel",
    "associativities_for_size",
    "configs_for_size",
    "design_space",
    "make_policy",
    "profile_trace",
    "simulate_many",
    "simulate_trace",
]
