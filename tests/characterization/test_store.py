"""Tests for the characterisation store and its persistence."""

import json

import pytest

from repro.cache.config import BASE_CONFIG, DESIGN_SPACE, configs_for_size
from repro.characterization.explorer import GENERATOR_VERSION, characterize_suite
from repro.characterization.store import (
    CharacterizationStore,
    StoreMeta,
    design_space_fingerprint,
)
from repro.workloads.eembc import eembc_suite


@pytest.fixture(scope="module")
def store():
    # Small but real: three benchmarks over the 2KB and 4KB subspaces.
    configs = configs_for_size(2) + configs_for_size(4) + configs_for_size(8)
    return CharacterizationStore(
        characterize_suite(eembc_suite()[:3], configs=configs)
    )


class TestMappingInterface:
    def test_contains_and_len(self, store):
        assert len(store) == 3
        assert "a2time" in store
        assert "matrix" not in store

    def test_names_order(self, store):
        assert store.names() == ["a2time", "aifftr", "aifirf"]

    def test_get_unknown_rejected(self, store):
        with pytest.raises(KeyError):
            store.get("nonexistent")

    def test_lookups(self, store):
        estimate = store.estimate("a2time", BASE_CONFIG)
        assert estimate.total_cycles > 0
        assert store.best_config("a2time").size_kb == store.best_size_kb("a2time")
        assert store.counters("a2time").instructions > 0

    def test_subset(self, store):
        sub = store.subset(["a2time"])
        assert len(sub) == 1
        with pytest.raises(KeyError):
            store.subset(["missing"])


class TestPersistence:
    def test_json_round_trip(self, store, tmp_path):
        path = tmp_path / "store.json"
        store.to_json(path)
        loaded = CharacterizationStore.from_json(path)
        assert set(loaded.names()) == set(store.names())
        for name in store.names():
            original = store.get(name)
            restored = loaded.get(name)
            assert set(restored.results) == set(original.results)
            for config in original.results:
                a = original.result(config)
                b = restored.result(config)
                assert a.stats.hits == b.stats.hits
                assert a.stats.misses == b.stats.misses
                assert a.estimate.total_cycles == b.estimate.total_cycles
                assert a.estimate.total_energy_nj == pytest.approx(
                    b.estimate.total_energy_nj
                )
            assert restored.counters == original.counters

    def test_round_trip_preserves_best_config(self, store, tmp_path):
        path = tmp_path / "store.json"
        store.to_json(path)
        loaded = CharacterizationStore.from_json(path)
        for name in store.names():
            assert loaded.best_config(name) == store.best_config(name)

    def test_add_replaces(self, store):
        fresh = CharacterizationStore()
        char = store.get("a2time")
        fresh.add(char)
        fresh.add(char)
        assert len(fresh) == 1


def _meta(**overrides):
    defaults = dict(
        seed=0,
        configs_fingerprint=design_space_fingerprint(DESIGN_SPACE),
    )
    defaults.update(overrides)
    return StoreMeta(**defaults)


class TestStoreMeta:
    def test_fingerprint_order_insensitive(self):
        forward = design_space_fingerprint(DESIGN_SPACE)
        backward = design_space_fingerprint(tuple(reversed(DESIGN_SPACE)))
        assert forward == backward

    def test_fingerprint_distinguishes_spaces(self):
        full = design_space_fingerprint(DESIGN_SPACE)
        partial = design_space_fingerprint(configs_for_size(2))
        assert full != partial

    def test_cache_key_varies_with_every_field(self):
        base = _meta()
        assert base.generator_version == GENERATOR_VERSION
        variants = (
            _meta(seed=1),
            _meta(configs_fingerprint=design_space_fingerprint(
                configs_for_size(4)
            )),
            _meta(generator_version="0"),
            _meta(variant="dataset:variants=12"),
        )
        keys = {base.cache_key()} | {m.cache_key() for m in variants}
        assert len(keys) == 5

    def test_cache_key_deterministic(self):
        assert _meta().cache_key() == _meta().cache_key()

    def test_meta_round_trips_through_json(self, store, tmp_path):
        meta = _meta(seed=42, variant="unit-test")
        tagged = CharacterizationStore(
            {name: store.get(name) for name in store.names()}, meta=meta
        )
        path = tmp_path / "tagged.json"
        tagged.to_json(path)
        loaded = CharacterizationStore.from_json(path)
        assert loaded.meta == meta
        assert loaded.names() == tagged.names()

    def test_subset_preserves_meta(self, store):
        meta = _meta(seed=5)
        tagged = CharacterizationStore(
            {name: store.get(name) for name in store.names()}, meta=meta
        )
        assert tagged.subset(["a2time"]).meta == meta

    def test_legacy_flat_json_loads_with_none_meta(self, store, tmp_path):
        path = tmp_path / "legacy.json"
        store.to_json(path)
        # Strip the envelope down to the pre-metadata flat layout.
        benchmarks = json.loads(path.read_text())["benchmarks"]
        path.write_text(json.dumps(benchmarks))
        loaded = CharacterizationStore.from_json(path)
        assert loaded.meta is None
        assert set(loaded.names()) == set(store.names())
        for name in store.names():
            assert loaded.best_config(name) == store.best_config(name)


class TestMalformedFiles:
    @pytest.mark.parametrize("text, reason", [
        ('{"format": 99}', "unknown format 99"),
        ('{"format": 2, "meta": nul', "not a valid"),
        ("[1, 2]", "expected a JSON object"),
        ('{"format": 2, "meta": null, "benchmarks": {"x": {}}}', "malformed"),
    ])
    def test_rejected_with_path(self, tmp_path, text, reason):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            CharacterizationStore.from_json(path)
        assert str(path) in str(info.value)
        assert reason in str(info.value)

    def test_write_leaves_no_temporary_file(self, store, tmp_path):
        path = tmp_path / "store.json"
        store.to_json(path)
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]
