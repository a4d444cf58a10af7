"""Persistent characterisation store.

Characterising a large suite (especially the ANN dataset's benchmark
variants) is the expensive part of the reproduction, so the results can
be saved to and loaded from JSON.  The store is the single source the
scheduler simulation and the ANN dataset builder read from.

On-disk stores are *content-addressed*: a :class:`StoreMeta` records the
seed, a fingerprint of the characterised design space, the generator
version and an optional variant tag, and its :meth:`StoreMeta.cache_key`
is embedded in the cache filename by :mod:`repro.experiment`.  A store
characterised under one seed can therefore never be served for another,
and bumping :data:`~repro.characterization.explorer.GENERATOR_VERSION`
invalidates every stale cache at once.  Stores saved by older versions
of this module (flat JSON, no metadata) still load, with ``meta`` left
``None`` so callers treat them as unverifiable.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union

from repro._util import load_json_document, write_json_atomic
from repro.cache.config import CacheConfig
from repro.cache.stats import CacheStats
from repro.energy.model import EnergyBreakdown, ExecutionEstimate
from repro.workloads.counters import HardwareCounters

from .explorer import GENERATOR_VERSION, BenchmarkCharacterization, ConfigResult

__all__ = ["CharacterizationStore", "StoreMeta", "design_space_fingerprint"]

#: Version of the on-disk JSON layout (not of the measurements; that is
#: :data:`~repro.characterization.explorer.GENERATOR_VERSION`).
STORE_FORMAT = 2


def design_space_fingerprint(configs: Iterable[CacheConfig]) -> str:
    """Stable short hash of a set of configurations.

    Order-insensitive: the fingerprint identifies *which* configurations
    a store covers, not the order they were characterised in.
    """
    names = ",".join(sorted(config.name for config in configs))
    return hashlib.blake2s(names.encode("utf-8"), digest_size=8).hexdigest()


@dataclass(frozen=True)
class StoreMeta:
    """Identity of a characterisation: what produced its numbers.

    Two stores with equal metadata are interchangeable — the
    characterisation pipeline is deterministic in (seed, design space,
    generator version, variant).
    """

    #: Seed the traces were generated from.
    seed: int
    #: :func:`design_space_fingerprint` of the characterised configs.
    configs_fingerprint: str
    #: Pipeline version the store was produced by.
    generator_version: str = GENERATOR_VERSION
    #: Free-form tag distinguishing store flavours sharing a seed and
    #: design space (e.g. the dataset store's variants-per-family).
    variant: str = ""

    def cache_key(self) -> str:
        """Short content hash used in on-disk cache filenames."""
        blob = "|".join(
            (
                str(self.seed),
                self.configs_fingerprint,
                self.generator_version,
                self.variant,
            )
        )
        return hashlib.blake2s(blob.encode("utf-8"), digest_size=8).hexdigest()


def _stats_to_dict(stats: CacheStats) -> dict:
    return dict(vars(stats))


def _stats_from_dict(data: Mapping) -> CacheStats:
    return CacheStats(**data)


def _estimate_to_dict(estimate: ExecutionEstimate) -> dict:
    return {
        "config": estimate.config.name,
        "instructions": estimate.instructions,
        "total_cycles": estimate.total_cycles,
        "miss_cycles": estimate.miss_cycles,
        "static_nj": estimate.energy.static_nj,
        "dynamic_nj": estimate.energy.dynamic_nj,
    }


def _estimate_from_dict(data: Mapping) -> ExecutionEstimate:
    return ExecutionEstimate(
        config=CacheConfig.from_name(data["config"]),
        instructions=data["instructions"],
        total_cycles=data["total_cycles"],
        miss_cycles=data["miss_cycles"],
        energy=EnergyBreakdown(
            static_nj=data["static_nj"], dynamic_nj=data["dynamic_nj"]
        ),
    )


class CharacterizationStore:
    """Mapping of benchmark name → :class:`BenchmarkCharacterization`.

    ``meta`` identifies what produced the measurements (see
    :class:`StoreMeta`); it is ``None`` for ad-hoc stores and for stores
    loaded from legacy JSON files that predate the metadata.
    """

    def __init__(
        self,
        characterizations: Optional[
            Mapping[str, BenchmarkCharacterization]
        ] = None,
        *,
        meta: Optional[StoreMeta] = None,
    ) -> None:
        self._data: Dict[str, BenchmarkCharacterization] = dict(
            characterizations or {}
        )
        self.meta = meta

    # -- mapping interface ------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self):
        return iter(self._data)

    def names(self) -> Sequence[str]:
        """All benchmark names in insertion order."""
        return list(self._data)

    def add(self, characterization: BenchmarkCharacterization) -> None:
        """Insert one characterisation (replacing any previous one)."""
        self._data[characterization.benchmark] = characterization

    def get(self, name: str) -> BenchmarkCharacterization:
        """Characterisation for one benchmark."""
        try:
            return self._data[name]
        except KeyError:
            raise KeyError(f"benchmark {name!r} not in store") from None

    # -- convenience lookups used by the scheduler -------------------------

    def estimate(self, name: str, config: CacheConfig) -> ExecutionEstimate:
        """Cycles/energy of ``name`` under ``config``."""
        return self.get(name).result(config).estimate

    def best_config(self, name: str) -> CacheConfig:
        """True lowest-energy configuration of a benchmark."""
        return self.get(name).best_config()

    def best_size_kb(self, name: str) -> int:
        """Cache size of the benchmark's true best configuration."""
        return self.get(name).best_size_kb()

    def counters(self, name: str) -> HardwareCounters:
        """Base-configuration profiling counters of a benchmark."""
        return self.get(name).counters

    # -- persistence -------------------------------------------------------

    def to_json(self, path: Union[str, Path]) -> None:
        """Serialise the whole store (and its metadata) to a JSON file."""
        benchmarks = {}
        for name, char in self._data.items():
            benchmarks[name] = {
                "counters": asdict(char.counters),
                "results": {
                    config.name: {
                        "stats": _stats_to_dict(result.stats),
                        "estimate": _estimate_to_dict(result.estimate),
                    }
                    for config, result in char.results.items()
                },
            }
        blob = {
            "format": STORE_FORMAT,
            "meta": asdict(self.meta) if self.meta is not None else None,
            "benchmarks": benchmarks,
        }
        write_json_atomic(path, blob)

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "CharacterizationStore":
        """Load a store previously saved with :meth:`to_json`.

        Legacy flat files (pre-metadata) load with ``meta = None``.  A
        file that is not JSON, not an object, of an unknown ``format`` or
        missing fields raises :class:`ValueError` naming ``path``.
        """
        return load_json_document(path, "characterisation store", cls._from_blob)

    @classmethod
    def _from_blob(cls, blob: dict) -> "CharacterizationStore":
        if "format" not in blob:  # legacy flat {name: entry} layout
            meta = None
            benchmarks = blob
        elif blob["format"] == STORE_FORMAT:
            meta_blob = blob.get("meta")
            meta = StoreMeta(**meta_blob) if meta_blob is not None else None
            benchmarks = blob["benchmarks"]
        else:
            raise ValueError(
                f"unknown format {blob['format']!r}, wanted {STORE_FORMAT}"
            )
        store = cls(meta=meta)
        try:
            for name, entry in benchmarks.items():
                results = {}
                for config_name, payload in entry["results"].items():
                    config = CacheConfig.from_name(config_name)
                    results[config] = ConfigResult(
                        config=config,
                        stats=_stats_from_dict(payload["stats"]),
                        estimate=_estimate_from_dict(payload["estimate"]),
                    )
                store.add(
                    BenchmarkCharacterization(
                        benchmark=name,
                        counters=HardwareCounters(**entry["counters"]),
                        results=results,
                    )
                )
        except (KeyError, AttributeError) as error:
            raise ValueError(f"malformed entry ({error!r})") from None
        return store

    def subset(self, names: Iterable[str]) -> "CharacterizationStore":
        """A new store restricted to the given benchmark names."""
        return CharacterizationStore(
            {name: self.get(name) for name in names}, meta=self.meta
        )
