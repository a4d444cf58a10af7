"""Tests for the per-domain predictor (paper §IV.D multiple-ANN idea)."""

import pytest

from repro.ann.training import TrainingConfig
from repro.cache.config import configs_for_size
from repro.characterization.dataset import build_dataset
from repro.core.predictor import AnnPredictor
from repro.workloads.eembc import EEMBC_DOMAINS, eembc_suite
from tests.ablation.models import DomainPredictor, KNNRegressor, RegressorPredictor

ALL_CONFIGS = configs_for_size(2) + configs_for_size(4) + configs_for_size(8)
FAST = TrainingConfig(epochs=60, seed=0)


@pytest.fixture(scope="module")
def small_dataset():
    # Two families from each domain keep the fixture fast.
    names = ("a2time", "puwmod", "aifftr", "idctrn", "matrix", "pntrch")
    specs = [s for s in eembc_suite() if s.name in names]
    return build_dataset(
        specs, variants_per_family=4, configs=ALL_CONFIGS, seed=0
    )


class TestDomainMapping:
    def test_every_family_has_a_domain(self):
        for spec in eembc_suite():
            assert spec.name in EEMBC_DOMAINS

    def test_three_domains(self):
        assert set(EEMBC_DOMAINS.values()) == {"control", "dsp", "memory"}

    def test_empty_mapping_rejected(self):
        with pytest.raises(ValueError):
            DomainPredictor({})


class TestFitPredict:
    def test_one_subpredictor_per_domain(self, small_dataset):
        dataset, _ = small_dataset
        predictor = DomainPredictor(
            EEMBC_DOMAINS,
            make_predictor=lambda i: AnnPredictor(n_members=2, seed=i),
        )
        predictor.fit(dataset, config=FAST)
        assert set(predictor.by_domain) == {"control", "dsp", "memory"}

    def test_variant_names_route_through_family(self, small_dataset):
        dataset, store = small_dataset
        predictor = DomainPredictor(
            EEMBC_DOMAINS,
            make_predictor=lambda i: AnnPredictor(n_members=2, seed=i),
        )
        predictor.fit(dataset, config=FAST)
        size = predictor.predict_size_kb(
            "a2time.v2", store.counters("a2time.v2")
        )
        assert size in (2, 4, 8)

    def test_predict_before_fit_rejected(self, small_dataset):
        dataset, store = small_dataset
        predictor = DomainPredictor(EEMBC_DOMAINS)
        with pytest.raises(RuntimeError):
            predictor.predict_size_kb("a2time", store.counters("a2time"))

    def test_unknown_family_rejected(self, small_dataset):
        dataset, store = small_dataset
        predictor = DomainPredictor(
            EEMBC_DOMAINS,
            make_predictor=lambda i: AnnPredictor(n_members=1, seed=i),
        )
        predictor.fit(dataset, config=FAST)
        with pytest.raises(KeyError):
            predictor.predict_size_kb("doom", store.counters("a2time"))

    def test_unmapped_dataset_family_rejected(self, small_dataset):
        dataset, _ = small_dataset
        predictor = DomainPredictor({"a2time": "control"})
        with pytest.raises(KeyError):
            predictor.fit(dataset, config=FAST)

    def test_non_ann_factory(self, small_dataset):
        dataset, store = small_dataset
        predictor = DomainPredictor(
            EEMBC_DOMAINS,
            make_predictor=lambda i: RegressorPredictor(KNNRegressor(k=1)),
        )
        predictor.fit(dataset, config=FAST)
        size = predictor.predict_size_kb("matrix", store.counters("matrix"))
        assert size in (2, 4, 8)

    def test_routing_uses_correct_submodel(self, small_dataset):
        dataset, store = small_dataset
        predictor = DomainPredictor(
            EEMBC_DOMAINS,
            make_predictor=lambda i: RegressorPredictor(KNNRegressor(k=1)),
        )
        predictor.fit(dataset, config=FAST)
        # 1-NN per domain memorises its training rows: canonical
        # benchmarks present in the dataset predict exactly.
        for name in ("a2time", "matrix", "aifftr"):
            assert predictor.predict_size_kb(
                name, store.counters(name)
            ) == store.best_size_kb(name)
