"""Tests for the high-level experiment API."""

import json

import pytest

import repro.characterization.dataset
import repro.experiment
from repro.experiment import (
    _keyed_cache_path,
    default_dataset,
    default_predictor,
    default_store,
    quick_experiment,
    run_four_systems,
)
from repro.characterization import CharacterizationStore
from repro.core.predictor import AnnPredictor, OraclePredictor
from repro.workloads import eembc_suite, uniform_arrivals
from repro.workloads.eembc import EEMBC_NAMES


class TestDefaultStore:
    def test_contains_whole_suite(self):
        store = default_store(cache_path=None)
        assert set(EEMBC_NAMES) <= set(store.names())

    def test_disk_cache_round_trip(self, tmp_path):
        path = tmp_path / "store.json"
        first = default_store(cache_path=path)
        # The cache is content-addressed: stem.<key>.json next to path.
        assert list(tmp_path.glob("store.*.json"))
        second = default_store(cache_path=path)
        for name in EEMBC_NAMES:
            assert first.best_config(name) == second.best_config(name)

    def test_stale_cache_rebuilt(self, tmp_path):
        path = tmp_path / "store.json"
        # A cache missing suite benchmarks is rebuilt, even with
        # matching metadata at the right keyed path.
        full = default_store(cache_path=path)
        keyed = _keyed_cache_path(path, full.meta)
        full.subset(["a2time"]).to_json(keyed)
        store = default_store(cache_path=path)
        assert set(EEMBC_NAMES) <= set(store.names())

    def test_cache_is_keyed_by_seed(self, tmp_path):
        path = tmp_path / "store.json"
        s0 = default_store(cache_path=path, seed=0)
        s7 = default_store(cache_path=path, seed=7)
        # Two distinct files; neither run clobbered the other.
        assert len(list(tmp_path.glob("store.*.json"))) == 2
        # cacheb's trace is seed-sensitive: the two stores must differ.
        assert s0.counters("cacheb") != s7.counters("cacheb")

    def test_cached_load_serves_matching_seed_only(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.json"
        s0 = default_store(cache_path=path, seed=0)
        s7 = default_store(cache_path=path, seed=7)
        # Both seeds are now cached: loading must not recharacterise,
        # and each seed must get exactly its own numbers back.
        def boom(*args, **kwargs):
            raise AssertionError("recharacterised despite a valid cache")

        monkeypatch.setattr(
            repro.experiment, "characterize_suite", boom
        )
        again0 = default_store(cache_path=path, seed=0)
        again7 = default_store(cache_path=path, seed=7)
        assert again0.meta.seed == 0
        assert again7.meta.seed == 7
        assert again0.counters("cacheb") == s0.counters("cacheb")
        assert again7.counters("cacheb") == s7.counters("cacheb")

    def test_legacy_flat_cache_is_rebuilt(self, tmp_path):
        path = tmp_path / "store.json"
        full = default_store(cache_path=path, seed=0)
        keyed = _keyed_cache_path(path, full.meta)
        # Downgrade the file to the pre-metadata flat layout.
        benchmarks = json.loads(keyed.read_text())["benchmarks"]
        keyed.write_text(json.dumps(benchmarks))
        assert CharacterizationStore.from_json(keyed).meta is None
        store = default_store(cache_path=path, seed=0)
        assert store.meta == full.meta
        assert set(EEMBC_NAMES) <= set(store.names())

    def test_parallel_workers_match_serial(self, tmp_path):
        serial = default_store(cache_path=None, seed=0)
        parallel = default_store(cache_path=None, seed=0, workers=2)
        for name in EEMBC_NAMES:
            assert serial.counters(name) == parallel.counters(name)
            assert serial.best_config(name) == parallel.best_config(name)


class TestDefaultDataset:
    def test_variant_expansion(self, tmp_path):
        path = tmp_path / "dataset.json"
        dataset, store = default_dataset(
            2, cache_path=path, seed=0
        )
        assert len(dataset) == 2 * len(EEMBC_NAMES)
        assert list(tmp_path.glob("dataset.*.json"))
        # Second call reuses the cache.
        dataset2, _ = default_dataset(2, cache_path=path, seed=0)
        assert dataset2.names == dataset.names

    def test_dataset_cache_keyed_by_variants(self, tmp_path):
        path = tmp_path / "dataset.json"
        default_dataset(2, cache_path=path, seed=0)
        default_dataset(3, cache_path=path, seed=0)
        # Different expansions land in different cache files.
        assert len(list(tmp_path.glob("dataset.*.json"))) == 2

    def test_pure_cache_hit_writes_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "dataset.json"
        default_dataset(2, cache_path=path, seed=0)

        def boom(*args, **kwargs):
            raise AssertionError("rewrote the cache on a pure hit")

        monkeypatch.setattr(CharacterizationStore, "to_json", boom)
        dataset, _ = default_dataset(2, cache_path=path, seed=0)
        assert len(dataset) == 2 * len(EEMBC_NAMES)

    def test_partial_cache_completed_and_written(self, tmp_path):
        path = tmp_path / "dataset.json"
        _, store = default_dataset(2, cache_path=path, seed=0)
        keyed = list(tmp_path.glob("dataset.*.json"))[0]
        # Truncate the cache to one family's variants; the next call
        # must re-characterise the rest and rewrite the file.
        partial = store.subset(["a2time", "a2time.v1"])
        partial.meta = store.meta
        partial.to_json(keyed)
        before = keyed.read_text()
        dataset, _ = default_dataset(2, cache_path=path, seed=0)
        assert len(dataset) == 2 * len(EEMBC_NAMES)
        assert keyed.read_text() != before

    def test_base_store_reused_without_recharacterisation(
        self, tmp_path, monkeypatch
    ):
        # With one variant per family the expanded suite is exactly the
        # base suite, so a matching suite store covers every sample.
        base = default_store(cache_path=None, seed=0)

        def boom(*args, **kwargs):
            raise AssertionError("re-characterised despite a base store")

        monkeypatch.setattr(
            repro.characterization.dataset, "characterize_benchmark", boom
        )
        dataset, _ = default_dataset(
            1, cache_path=None, seed=0, base_store=base
        )
        assert len(dataset) == len(EEMBC_NAMES)

    def test_mismatched_base_store_ignored(self, tmp_path, monkeypatch):
        base = default_store(cache_path=None, seed=7)
        calls = []
        original = repro.characterization.dataset.characterize_benchmark

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(
            repro.characterization.dataset,
            "characterize_benchmark",
            counting,
        )
        # A seed-7 store must not be served for a seed-0 dataset: every
        # benchmark is characterised fresh.
        default_dataset(1, cache_path=None, seed=0, base_store=base)
        assert len(calls) == len(EEMBC_NAMES)


class TestDefaultPredictor:
    def test_oracle_requires_store(self):
        with pytest.raises(ValueError):
            default_predictor(None, kind="oracle")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            default_predictor(None, kind="svm")

    def test_oracle_returns_oracle(self):
        store = default_store(cache_path=None)
        predictor = default_predictor(store, kind="oracle")
        assert isinstance(predictor, OraclePredictor)

    def test_second_call_trains_zero_epochs(self, tmp_path, monkeypatch):
        """Acceptance: a repeat call is a pure model-store load."""
        kwargs = dict(
            variants_per_family=2,
            n_members=3,
            epochs=10,
            seed=0,
            model_cache_path=tmp_path / "model.json",
            dataset_cache_path=tmp_path / "dataset.json",
        )
        first = default_predictor(None, **kwargs)

        def boom(*args, **kwargs):
            raise AssertionError("trained despite a cached model")

        monkeypatch.setattr(AnnPredictor, "fit", boom)
        second = default_predictor(None, **kwargs)
        dataset, _ = default_dataset(
            2, cache_path=tmp_path / "dataset.json", seed=0
        )
        assert (
            first.predict_sizes_kb(dataset.features)
            == second.predict_sizes_kb(dataset.features)
        ).all()

    def test_model_cache_keyed_by_training_inputs(self, tmp_path):
        kwargs = dict(
            variants_per_family=2,
            n_members=2,
            epochs=5,
            model_cache_path=tmp_path / "model.json",
            dataset_cache_path=tmp_path / "dataset.json",
        )
        default_predictor(None, seed=0, **kwargs)
        default_predictor(None, seed=1, **kwargs)
        # Distinct seeds → distinct content-addressed model files.
        assert len(list(tmp_path.glob("model.*.json"))) == 2

    def test_passed_store_seeds_dataset_build(self, monkeypatch, tmp_path):
        """Satellite fix: kind='ann' no longer ignores its store."""
        store = default_store(cache_path=None, seed=0)

        def boom(*args, **kwargs):
            raise AssertionError("re-characterised despite a base store")

        monkeypatch.setattr(
            repro.characterization.dataset, "characterize_benchmark", boom
        )
        predictor = default_predictor(
            store,
            variants_per_family=1,
            n_members=2,
            epochs=5,
            seed=0,
            model_cache_path=tmp_path / "model.json",
            dataset_cache_path=None,
        )
        assert predictor.predict_sizes_kb(
            default_dataset(1, cache_path=None, seed=0,
                            base_store=store)[0].features[:2]
        ).shape == (2,)


class TestRunFourSystems:
    @pytest.fixture(scope="class")
    def setup(self):
        store = default_store(cache_path=None)
        predictor = OraclePredictor(store)
        arrivals = uniform_arrivals(eembc_suite(), count=120, seed=0)
        return store, predictor, arrivals

    def test_all_four_policies(self, setup):
        store, predictor, arrivals = setup
        results = run_four_systems(arrivals, store, predictor)
        assert set(results) == {
            "base", "optimal", "energy_centric", "proposed"
        }
        for result in results.values():
            assert result.jobs_completed == 120

    def test_policy_subset(self, setup):
        store, predictor, arrivals = setup
        results = run_four_systems(
            arrivals, store, predictor, policies=("base", "proposed")
        )
        assert set(results) == {"base", "proposed"}

    def test_same_arrivals_everywhere(self, setup):
        store, predictor, arrivals = setup
        results = run_four_systems(
            arrivals, store, predictor, policies=("base", "proposed")
        )
        for result in results.values():
            ids = sorted(r.job_id for r in result.jobs)
            assert ids == list(range(120))


class TestQuickExperiment:
    def test_oracle_quick_run(self, tmp_path):
        results = quick_experiment(
            n_jobs=80, seed=0, predictor_kind="oracle",
            cache_path=tmp_path / "store.json",
        )
        assert results["proposed"].jobs_completed == 80
        assert (
            results["proposed"].total_energy_nj
            < results["base"].total_energy_nj
        )
