"""A1 — ablation: bagging ensemble size (design choice, paper §IV.D).

The paper trains 30 randomly-initialised ANNs and averages their
outputs.  This ablation sweeps the ensemble size to show what bagging
buys: prediction accuracy and canonical-benchmark energy degradation as
a function of member count.  The timed kernel is a single-member fit
(the unit of cost the ensemble multiplies).
"""

import numpy as np

from repro.analysis import format_table
from repro.ann.metrics import class_accuracy
from repro.ann.training import TrainingConfig
from repro.core.predictor import AnnPredictor
from repro.experiment import default_dataset
from repro.workloads import eembc_suite

ENSEMBLE_SIZES = (1, 3, 10, 30)


def evaluate(n_members, dataset, split, dataset_store, seed=2):
    predictor = AnnPredictor(n_members=n_members, seed=seed)
    predictor.fit(
        split.train,
        val_dataset=split.val,
        config=TrainingConfig(epochs=200, seed=seed),
    )
    pred = predictor.predict_sizes_kb(split.test.features)
    accuracy = class_accuracy(pred, split.test.labels_kb)
    degradations = []
    for spec in eembc_suite():
        char = dataset_store.get(spec.name)
        predicted = predictor.predict_size_kb(spec.name, char.counters)
        degradations.append(
            char.energy_degradation(char.best_config_for_size(predicted))
        )
    return accuracy, float(np.mean(degradations))


def test_bench_ablation_bagging(benchmark):
    dataset, dataset_store = default_dataset(variants_per_family=12, seed=0)
    split = dataset.split(seed=0, by_family=False)

    benchmark.pedantic(
        lambda: evaluate(1, dataset, split, dataset_store),
        rounds=3, iterations=1,
    )

    rows = []
    scores = {}
    for n in ENSEMBLE_SIZES:
        accuracy, degradation = evaluate(n, dataset, split, dataset_store)
        scores[n] = (accuracy, degradation)
        rows.append((n, f"{accuracy:.3f}", f"{degradation * 100:.2f}%"))
    print()
    print(format_table(
        ("ensemble size", "test accuracy", "mean energy degradation"), rows
    ))

    # Bagging must not hurt: the full 30-member ensemble is at least as
    # accurate as a single net, and its degradation no worse.
    assert scores[30][0] >= scores[1][0] - 1e-9
    assert scores[30][1] <= scores[1][1] + 1e-9
