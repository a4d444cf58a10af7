"""Seeded randomized property harness over the simulation grid.

Samples (policy, discipline, preemption, arrival-stream) combinations
with a fixed-seed PRNG and runs each with the full validation layer
attached — the ledger and invariants are the properties; any
conservation failure raises out of the run.  On top of that, each
sampled run cross-checks:

* traced vs untraced: attaching a recorder never changes results;
* trace replay: the recorded event stream balances on its own;
* serial vs campaign: the campaign runner reproduces a directly-run
  simulation bit-for-bit, with any worker count.
"""

import dataclasses
import random

import pytest

from repro.obs import ListRecorder
from repro.validate import replay_trace
from repro.workloads.arrivals import JobArrival, with_qos

from .conftest import SUITE_NAMES, make_simulation

SEEDS = (0, 1, 2)


def sample_case(rng):
    policy = rng.choice(("base", "optimal", "energy_centric", "proposed"))
    discipline = rng.choice(("fifo", "priority", "edf"))
    preemptive = discipline != "fifo" and rng.random() < 0.5
    count = rng.randrange(8, 25)
    gap = rng.choice((30_000, 60_000, 120_000))
    arrivals = [
        JobArrival(
            job_id=i,
            benchmark=rng.choice(SUITE_NAMES),
            arrival_cycle=i * gap + rng.randrange(0, gap),
        )
        for i in range(count)
    ]
    if discipline != "fifo":
        arrivals = with_qos(
            arrivals,
            service_estimate=lambda name: 400_000,
            priority_levels=rng.randrange(2, 5),
            deadline_slack=rng.uniform(1.5, 4.0),
            seed=rng.randrange(100),
        )
    return policy, discipline, preemptive, arrivals


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzzed_grid_conserves_energy(seed, small_store, oracle,
                                      energy_table):
    rng = random.Random(seed)
    for _ in range(6):
        policy, discipline, preemptive, arrivals = sample_case(rng)
        recorder = ListRecorder()
        traced = make_simulation(
            policy, small_store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
            validate=True, recorder=recorder,
        ).run(arrivals)
        untraced = make_simulation(
            policy, small_store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
            validate=True,
        ).run(arrivals)
        assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)

        report = replay_trace(recorder.events)
        assert report.completions == traced.jobs_completed
        assert report.preemptions == traced.preemption_count
        assert not report.unfinished_jobs


def test_campaign_matches_direct_simulation(default_campaign_store):
    """One campaign replication == the same spec simulated directly."""
    from repro.campaign import run_campaign
    from repro.core.predictor import OraclePredictor
    from repro.workloads import eembc_suite, uniform_arrivals

    store = default_campaign_store
    campaign = run_campaign(
        store,
        policies=("base", "proposed"),
        seeds=(0,),
        loads=((30, 56_000),),
        workers=1,
        validate=True,
    )
    predictor = OraclePredictor(store)
    arrivals = uniform_arrivals(
        eembc_suite(), count=30, seed=0, mean_interarrival_cycles=56_000
    )
    for replication in campaign.replications:
        direct = make_simulation(
            replication.spec.policy, store, predictor, validate=True
        ).run(arrivals)
        assert replication.total_energy_nj == direct.total_energy_nj
        assert replication.idle_energy_nj == direct.idle_energy_nj
        assert replication.mean_waiting_cycles == (
            direct.mean_waiting_cycles
        )


def test_campaign_worker_count_invariant(default_campaign_store):
    """Validated campaigns stay worker-count deterministic."""
    from repro.campaign import run_campaign

    kwargs = dict(
        policies=("base", "proposed"),
        seeds=(0, 1),
        loads=((25, 56_000),),
        validate=True,
    )
    serial = run_campaign(default_campaign_store, workers=1, **kwargs)
    parallel = run_campaign(default_campaign_store, workers=2, **kwargs)
    assert serial.replications == parallel.replications


@pytest.fixture(scope="module")
def default_campaign_store():
    from repro.experiment import default_store

    return default_store(cache_path=None)
