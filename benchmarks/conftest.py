"""Shared state for the benchmark harness.

Heavy artefacts (suite characterisation, the trained predictor, the
four-system simulation at paper scale) are built once per session and
shared across all benchmark files.

The headline run uses seed 1, one of the seeds on which the trained ANN
mispredicts one benchmark — matching the paper's setting where the
energy-centric system's naive always-stall rule visibly backfires (see
EXPERIMENTS.md).
"""

import sys
import time
from pathlib import Path
from typing import Callable, Dict

import pytest

# benchmarks/ is not a package, so make the repo root importable: the
# QoS ablation shares its scenario builders with tests/scenarios.py,
# and the speed benchmarks time the references in tests/oracles.py.
_ROOT = str(Path(__file__).resolve().parent.parent)
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from repro.experiment import (
    default_predictor,
    default_store,
    run_four_systems,
)
from repro.workloads import eembc_suite, uniform_arrivals

#: Seed of the headline evaluation.
SEED = 1

#: Arrival count of the headline evaluation (paper: 5000).
N_JOBS = 5000


def interleaved_min_seconds(
    sides: Dict[str, Callable[[], object]], rounds: int
) -> Dict[str, float]:
    """Per-side minimum wall seconds of ``sides`` (name -> callable).

    Every round calls each side once, in reverse order on odd rounds,
    so host drift and warm-up hit all sides alike.  The minimum is the
    least-noise estimate of what the code costs.  The benchmarks that
    compare two code paths all time them with this one estimator.
    """
    names = list(sides)
    best = dict.fromkeys(names, float("inf"))
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            sides[name]()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


@pytest.fixture(scope="session")
def store():
    """Suite characterisation over the full design space (cached)."""
    return default_store()


@pytest.fixture(scope="session")
def predictor(store):
    """The trained bagged-ANN predictor (dataset cached on disk)."""
    return default_predictor(store, seed=SEED)


@pytest.fixture(scope="session")
def arrivals():
    """The paper's 5000 uniformly-distributed arrivals."""
    return uniform_arrivals(eembc_suite(), count=N_JOBS, seed=SEED)


@pytest.fixture(scope="session")
def four_results(store, predictor, arrivals):
    """Base / optimal / energy-centric / proposed at paper scale."""
    return run_four_systems(arrivals, store, predictor)
