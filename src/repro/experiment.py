"""High-level experiment API.

Everything the examples and benchmark harness do is composed from four
calls:

* :func:`default_store` — characterise the EEMBC-analogue suite over the
  full design space (cached to disk because it is the expensive step);
* :func:`default_predictor` — build the paper's bagged-ANN predictor,
  trained on the variant-expanded dataset (or an oracle for upper-bound
  runs);
* :func:`run_four_systems` — simulate the base / optimal /
  energy-centric / proposed systems on one arrival stream;
* :func:`run_campaign` — replicate (policy × seed × load) grids over a
  process pool with mean / CI aggregation (see :mod:`repro.campaign`);
* :func:`quick_experiment` — all of the above with sensible defaults.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.ann.training import TrainingConfig
from repro.cache.config import DESIGN_SPACE
from repro.characterization.dataset import build_dataset, expand_suite
from repro.characterization.explorer import characterize_suite
from repro.characterization.store import (
    CharacterizationStore,
    StoreMeta,
    design_space_fingerprint,
)
from repro.campaign import (
    CampaignCell,
    CampaignResult,
    MetricAggregate,
    ReplicationResult,
    ReplicationSpec,
    run_campaign,
)
from repro.core.modelstore import (
    ModelMeta,
    dataset_fingerprint,
    load_ann_predictor,
    save_ann_predictor,
    training_config_key,
)
from repro.core.policies import POLICY_NAMES
from repro.core.predictor import AnnPredictor, BestCorePredictor, OraclePredictor
from repro.core.results import SimulationResult
from repro.core.simulation import make_simulation
from repro.energy.tables import EnergyTable
from repro.workloads.arrivals import JobArrival, uniform_arrivals
from repro.workloads.eembc import eembc_suite

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "MetricAggregate",
    "ReplicationResult",
    "ReplicationSpec",
    "default_dataset",
    "default_store",
    "default_predictor",
    "run_campaign",
    "run_four_systems",
    "quick_experiment",
]

logger = logging.getLogger(__name__)

#: Default on-disk cache location for suite characterisation.  The
#: actual file carries the :meth:`StoreMeta.cache_key` in its name (see
#: :func:`_keyed_cache_path`), so caches for different seeds, design
#: spaces or generator versions never collide.
DEFAULT_CACHE = Path.home() / ".cache" / "repro" / "eembc_characterization.json"


def _keyed_cache_path(path: Union[str, Path], meta) -> Path:
    """Content-addressed variant of a cache path: stem.<key>.json.

    ``meta`` is anything with a ``cache_key()`` — a characterisation
    :class:`StoreMeta` or a trained-model
    :class:`~repro.core.modelstore.ModelMeta`.
    """
    path = Path(path)
    return path.with_name(f"{path.stem}.{meta.cache_key()}{path.suffix}")


def _load_cached_store(
    path: Path,
    meta: StoreMeta,
    expected_names: Optional[set] = None,
    kind: str = "store",
) -> Optional[CharacterizationStore]:
    """Load a cached store iff its metadata matches and it is complete.

    Returns ``None`` (forcing recharacterisation) when the file is
    missing, unreadable (say, truncated by a killed writer), predates the
    metadata format, was produced under different metadata — in
    particular a different seed — or lacks any of ``expected_names``.
    """
    if not path.exists():
        logger.info("%s cache miss: %s does not exist", kind, path)
        return None
    try:
        store = CharacterizationStore.from_json(path)
    except ValueError as error:
        logger.warning("%s cache miss: %s", kind, error)
        return None
    if store.meta != meta:
        logger.info(
            "%s cache miss: %s metadata mismatch (cached %s, wanted %s)",
            kind, path, store.meta, meta,
        )
        return None
    if expected_names is not None and not expected_names.issubset(
        set(store.names())
    ):
        logger.info(
            "%s cache miss: %s lacks benchmarks %s",
            kind, path, sorted(expected_names - set(store.names())),
        )
        return None
    logger.debug("%s cache hit: %s", kind, path)
    return store


def default_store(
    cache_path: Optional[Union[str, Path]] = DEFAULT_CACHE,
    *,
    seed: int = 0,
) -> CharacterizationStore:
    """Characterisation of the 15-benchmark suite over all 18 configs.

    Results are cached to a content-addressed file derived from
    ``cache_path`` (pass ``None`` to disable).  The cache key covers the
    seed, the design-space fingerprint and the generator version, and the
    stored metadata is validated on load, so a store characterised under
    one seed is never served for another.
    """
    meta = StoreMeta(
        seed=seed, configs_fingerprint=design_space_fingerprint(DESIGN_SPACE)
    )
    expected = {spec.name for spec in eembc_suite()}
    if cache_path is not None:
        path = _keyed_cache_path(cache_path, meta)
        cached = _load_cached_store(path, meta, expected)
        if cached is not None:
            return cached
    logger.info("characterising the suite from scratch (seed=%d)", seed)
    store = CharacterizationStore(
        characterize_suite(eembc_suite(), seed=seed),
        meta=meta,
    )
    if cache_path is not None:
        path = _keyed_cache_path(cache_path, meta)
        path.parent.mkdir(parents=True, exist_ok=True)
        store.to_json(path)
        logger.info("wrote characterisation store cache: %s", path)
    return store


#: Default on-disk cache for the variant-expanded ANN dataset store.
DEFAULT_DATASET_CACHE = (
    Path.home() / ".cache" / "repro" / "eembc_dataset_characterization.json"
)


def default_dataset(
    variants_per_family: int = 12,
    *,
    cache_path: Optional[Union[str, Path]] = DEFAULT_DATASET_CACHE,
    seed: int = 0,
    base_store: Optional[CharacterizationStore] = None,
):
    """The variant-expanded ANN training dataset (cached on disk).

    Returns ``(dataset, store)`` like
    :func:`repro.characterization.build_dataset`; the expensive variant
    characterisation is reused from the content-addressed cache when
    present.  The cache key includes ``variants_per_family`` besides the
    seed / design space / generator version, so differently expanded
    datasets are cached side by side and never cross-served.  The cache
    file is rewritten only when something was actually characterised —
    a pure cache hit performs no disk write.

    ``base_store`` seeds the build with already-characterised benchmarks
    (typically the suite store from :func:`default_store`): entries whose
    metadata proves they were produced under the same seed, design space
    and generator version are reused instead of re-characterised.  Each
    family's variant 0 *is* the original benchmark, so a suite store
    saves exactly those characterisations.
    """
    meta = StoreMeta(
        seed=seed,
        configs_fingerprint=design_space_fingerprint(DESIGN_SPACE),
        variant=f"dataset:variants={variants_per_family}",
    )
    store = None
    disk_names: Optional[set] = None
    if cache_path is not None:
        # A partial store is still a hit: build_dataset characterises
        # whatever is missing.
        store = _load_cached_store(
            _keyed_cache_path(cache_path, meta), meta, kind="dataset"
        )
        if store is not None:
            disk_names = set(store.names())
    if base_store is not None and base_store.meta is not None:
        base_meta = base_store.meta
        if (
            base_meta.seed == meta.seed
            and base_meta.configs_fingerprint == meta.configs_fingerprint
            and base_meta.generator_version == meta.generator_version
        ):
            if store is None:
                store = CharacterizationStore(meta=meta)
            for name in base_store.names():
                if name not in store:
                    store.add(base_store.get(name))
    dataset, store = build_dataset(
        eembc_suite(),
        variants_per_family=variants_per_family,
        seed=seed,
        store=store,
    )
    store.meta = meta
    if cache_path is not None:
        expected = {
            spec.name
            for spec in expand_suite(eembc_suite(), variants_per_family)
        }
        if disk_names is None or not expected.issubset(disk_names):
            path = _keyed_cache_path(cache_path, meta)
            path.parent.mkdir(parents=True, exist_ok=True)
            store.to_json(path)
            logger.info("wrote dataset store cache: %s", path)
    return dataset, store


#: Default on-disk cache for trained ANN predictors.  Like the other
#: caches the real file carries the :meth:`ModelMeta.cache_key` in its
#: name, so models trained from different datasets, topologies,
#: hyperparameters or seeds never collide.
DEFAULT_MODEL_CACHE = Path.home() / ".cache" / "repro" / "eembc_trained_model.json"


def default_predictor(
    store: Optional[CharacterizationStore] = None,
    *,
    kind: str = "ann",
    variants_per_family: int = 12,
    n_members: int = 10,
    epochs: int = 200,
    seed: int = 0,
    model_cache_path: Optional[Union[str, Path]] = DEFAULT_MODEL_CACHE,
    dataset_cache_path: Optional[Union[str, Path]] = DEFAULT_DATASET_CACHE,
) -> BestCorePredictor:
    """Build the best-core predictor.

    ``kind='ann'`` trains the paper's bagged MLP on the variant-expanded
    dataset (``n_members`` defaults below the paper's 30 to keep the
    default experience fast; the ANN-accuracy benchmark uses the full
    ensemble).  ``kind='oracle'`` returns perfect predictions from the
    store and requires one.

    For ``kind='ann'`` a passed ``store`` seeds the dataset build: its
    matching characterisations (one per family — variant 0 is the
    original benchmark) are reused instead of re-simulated.  Trained
    weights are cached content-addressed under ``model_cache_path``
    (key: dataset fingerprint, topology, training config, seed) — a
    repeat call with identical inputs loads them and performs zero
    training epochs.
    """
    if kind == "oracle":
        if store is None:
            raise ValueError("the oracle predictor needs a store")
        return OraclePredictor(store)
    if kind != "ann":
        raise ValueError(f"unknown predictor kind {kind!r}")
    dataset, _ = default_dataset(
        variants_per_family,
        cache_path=dataset_cache_path,
        seed=seed,
        base_store=store,
    )
    predictor = AnnPredictor(n_members=n_members, seed=seed)
    config = TrainingConfig(epochs=epochs, seed=seed)
    meta = ModelMeta(
        dataset_fingerprint=dataset_fingerprint(dataset),
        topology=repr(predictor.ensemble.members[0].topology),
        n_members=n_members,
        training_key=training_config_key(config),
        seed=seed,
    )
    if model_cache_path is not None:
        cached = load_ann_predictor(
            _keyed_cache_path(model_cache_path, meta), expected_meta=meta
        )
        if cached is not None:
            return cached
    logger.info(
        "training the ANN predictor from scratch "
        "(members=%d, epochs=%d, seed=%d)",
        n_members, epochs, seed,
    )
    # Paper-style split: shuffled 70/15/15 over all inputs (§IV.D), so the
    # deployed benchmarks' families are represented in training.  Pass
    # ``by_family=True`` to Dataset.split for held-out-family evaluation.
    split = dataset.split(seed=seed, by_family=False)
    predictor.fit(split.train, val_dataset=split.val, config=config)
    if model_cache_path is not None:
        save_ann_predictor(
            _keyed_cache_path(model_cache_path, meta), predictor, meta
        )
    return predictor


def run_four_systems(
    arrivals: Sequence[JobArrival],
    store: CharacterizationStore,
    predictor: BestCorePredictor,
    *,
    policies: Sequence[str] = POLICY_NAMES,
    engine: str = "auto",
) -> Dict[str, SimulationResult]:
    """Simulate the selected systems on one arrival stream.

    The base system runs on the homogeneous machine, the other three on
    the paper's heterogeneous quad-core; all share the characterisation
    store and energy constants.  ``engine`` selects the event loop
    (``auto`` / ``fast`` / ``reference``); since these runs attach no
    hooks, the default resolves to the fast engine.
    """
    energy_table = EnergyTable()
    return {
        name: make_simulation(
            name, store, predictor, energy_table, engine=engine
        ).run(arrivals)
        for name in policies
    }


def quick_experiment(
    n_jobs: int = 1000,
    *,
    seed: int = 0,
    mean_interarrival_cycles: int = 56_000,
    predictor_kind: str = "ann",
    cache_path: Optional[Union[str, Path]] = DEFAULT_CACHE,
) -> Dict[str, SimulationResult]:
    """End-to-end four-system comparison with default components."""
    store = default_store(cache_path, seed=seed)
    predictor = default_predictor(store, kind=predictor_kind, seed=seed)
    arrivals = uniform_arrivals(
        eembc_suite(),
        count=n_jobs,
        seed=seed,
        mean_interarrival_cycles=mean_interarrival_cycles,
    )
    return run_four_systems(arrivals, store, predictor)
