"""Set-associative cache substrate.

This package provides everything the reproduction needs from a cache
simulator: the configuration design space of the paper's Table 1
(:mod:`repro.cache.config`), the per-access reference model and the fast
trace path (:mod:`repro.cache.cache`), the single-pass stack-distance
characterisation engine (:mod:`repro.cache.stackdist`) and the
reconfiguration tuner model (:mod:`repro.cache.tuner`).  Replacement is
LRU throughout: the paper's design space varies size, associativity and
line size, never the replacement policy.  The scheduler needs one
configurable L1 per core; the private and shared L2 models of ablations
A4 and A12 live with those benchmarks, in ``tests/ablation/caches.py``.
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
    "LINE_SIZES_B",
    "ReconfigurationCost",
    "StackDistanceProfile",
    "TunerCostModel",
    "associativities_for_size",
    "configs_for_size",
    "design_space",
    "profile_trace",
    "simulate_many",
    "simulate_trace",
]
