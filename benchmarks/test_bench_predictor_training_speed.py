"""P2 — ensemble-training speed: batched stacked pass vs sequential loop.

The headline number of the batched training engine: fitting the paper's
full 30-member bagged ensemble through :meth:`AnnPredictor.fit` with the
vectorised stacked-pass trainer against the per-member reference loop
(``fit_predictor_sequential`` in ``tests/oracles.py``).  Both run the
identical pipeline (log-compress → standardise → bootstrap → MSE/Adam
with early stopping), so the ratio is the end-to-end speedup a user
sees — and the resulting members must be *identical*, which is asserted
per member below.

Run with ``pytest benchmarks/test_bench_predictor_training_speed.py
--benchmark-only -s`` to see the timing table.
"""

import numpy as np

from conftest import interleaved_min_seconds

from repro.analysis import format_table
from repro.ann.bagging import PAPER_ENSEMBLE_SIZE
from repro.ann.training import TrainingConfig
from repro.core.predictor import AnnPredictor
from repro.experiment import default_dataset
from tests.oracles import fit_predictor_sequential

#: Required end-to-end advantage of the batched engine.
MIN_SPEEDUP = 3.0

#: Interleaved timing rounds (see ``interleaved_min_seconds``).
ROUNDS = 3

#: The paper's training budget for the headline comparison.
EPOCHS = 200

SEED = 0


def _fit(split, engine: str, n_members=PAPER_ENSEMBLE_SIZE, epochs=EPOCHS):
    """A predictor fitted by ``engine``: batched, or the sequential
    reference."""
    predictor = AnnPredictor(n_members=n_members, seed=SEED)
    config = TrainingConfig(epochs=epochs, seed=SEED)
    if engine == "sequential":
        return fit_predictor_sequential(
            predictor, split.train, val_dataset=split.val, config=config
        )
    return predictor.fit(split.train, val_dataset=split.val, config=config)


def test_bench_predictor_training_speed(benchmark):
    dataset, _ = default_dataset(variants_per_family=12, seed=SEED)
    split = dataset.split(seed=SEED, by_family=False)

    # Warm both paths (imports, allocator) before timing anything.
    for engine in ("sequential", "batched"):
        _fit(split, engine, n_members=2, epochs=2)

    best = interleaved_min_seconds(
        {
            engine: (lambda engine=engine: _fit(split, engine))
            for engine in ("sequential", "batched")
        },
        ROUNDS,
    )
    sequential_seconds = best["sequential"]
    batched_seconds = best["batched"]
    speedup = sequential_seconds / batched_seconds

    # pytest-benchmark records the batched engine as the tracked series.
    benchmark.pedantic(
        lambda: _fit(split, "batched"), rounds=ROUNDS, iterations=1
    )

    print()
    print(
        f"{PAPER_ENSEMBLE_SIZE}-member ensemble fit "
        f"({len(split.train)} train samples, {EPOCHS} epochs max)"
    )
    print(format_table(
        ("engine", "wall s", "members/s"),
        (
            (
                "sequential (per-member loop)",
                f"{sequential_seconds:.3f}",
                f"{PAPER_ENSEMBLE_SIZE / sequential_seconds:.1f}",
            ),
            (
                "batched (stacked pass)",
                f"{batched_seconds:.3f}",
                f"{PAPER_ENSEMBLE_SIZE / batched_seconds:.1f}",
            ),
        ),
    ))
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")

    # Same members, much faster: every ensemble member's predictions on
    # the full dataset must match bit for bit.
    reference = _fit(split, "sequential")
    fast = _fit(split, "batched")
    x = fast.scaler.transform(fast._pre(dataset.features))
    ref_members = reference.ensemble.member_predictions(x)
    fast_members = fast.ensemble.member_predictions(x)
    np.testing.assert_array_equal(ref_members, fast_members)
    assert (
        fast.predict_sizes_kb(dataset.features)
        == reference.predict_sizes_kb(dataset.features)
    ).all()

    assert speedup >= MIN_SPEEDUP
