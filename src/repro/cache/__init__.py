"""Set-associative cache substrate.

This package provides everything the reproduction needs from a cache
simulator: the configuration design space of the paper's Table 1
(:mod:`repro.cache.config`), the per-access reference model and the fast
trace path (:mod:`repro.cache.cache`), the single-pass stack-distance
characterisation engine (:mod:`repro.cache.stackdist`), replacement policies
(:mod:`repro.cache.replacement`), a two-level private hierarchy
(:mod:`repro.cache.hierarchy`) and the reconfiguration tuner model
(:mod:`repro.cache.tuner`).
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
from .hierarchy import DEFAULT_L2_CONFIG, CacheHierarchy, HierarchyResult
from .shared import SharedL2Result, SharedL2System, interference_penalty
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
    "CacheHierarchy",
    "CacheStats",
    "CacheTuner",
    "DEFAULT_L2_CONFIG",
    "DESIGN_SPACE",
    "FIFOPolicy",
    "HierarchyResult",
    "LINE_SIZES_B",
    "LRUPolicy",
    "PLRUPolicy",
    "POLICY_NAMES",
    "RandomPolicy",
    "ReconfigurationCost",
    "ReplacementPolicy",
    "SharedL2Result",
    "SharedL2System",
    "StackDistanceProfile",
    "TunerCostModel",
    "associativities_for_size",
    "configs_for_size",
    "design_space",
    "interference_penalty",
    "make_policy",
    "profile_trace",
    "simulate_many",
    "simulate_trace",
]
