"""Power-capped DVFS task graphs: the golden DAG × power runs.

The shape of the pipeline benchmark's ``dag-power`` workload, at 40
graphs: edf and heft over the full suite on the paper's system, under
a 1.5e6 nJ global cap with 25 % slack and the default DVFS table, with
the ledger checked live (``validate=True``).  A second variant adds a
4 KB cluster cap.  Results and final pool state are pinned by digest;
every run must both degrade and throttle, so the ladder walk decides
real dispatches; and a traced run must replay to a balanced ledger.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core import SchedulerSimulation, make_policy, paper_system
from repro.experiment import default_store
from repro.obs.recorder import ListRecorder
from repro.power import DEFAULT_DVFS_TABLE, PowerConfig
from repro.validate.replay import replay_trace
from repro.workloads.dag import generate_task_graphs
from repro.workloads.eembc import eembc_suite

POWER = {
    "global": PowerConfig(
        cap_nj=1.5e6, slack_pct=25.0, dvfs=DEFAULT_DVFS_TABLE
    ),
    "cluster": PowerConfig(
        cap_nj=1.5e6,
        cluster_caps_nj=((4, 4e5),),
        slack_pct=25.0,
        dvfs=DEFAULT_DVFS_TABLE,
    ),
}

#: (variant, policy) -> (sha256 prefix of the canonical result + pool
#: state, grants, degraded, throttled, deadline misses).
GOLDEN = {
    ("global", "edf"): ("c392133227482a7e", 232, 8, 96, 113),
    ("global", "heft"): ("1fb54a55831104e5", 232, 5, 89, 103),
    ("cluster", "edf"): ("ad621a1fcbe60592", 232, 7, 95, 81),
    ("cluster", "heft"): ("5cbd6a9e5c99357c", 232, 7, 99, 82),
}

TASKS = 232


@pytest.fixture(scope="module")
def store():
    return default_store(cache_path=None)


@pytest.fixture(scope="module")
def graphs():
    return generate_task_graphs(
        count=40,
        seed=1,
        benchmarks=[spec.name for spec in eembc_suite()],
        mean_interarrival_cycles=2_000_000,
    )


def _simulation(store, variant, name, recorder=None):
    return SchedulerSimulation(
        paper_system(),
        make_policy(name),
        store,
        power=POWER[variant],
        validate=True,
        recorder=recorder,
    )


@pytest.mark.parametrize("variant, name", sorted(GOLDEN))
def test_golden_dag_power_run(variant, name, store, graphs):
    sim = _simulation(store, variant, name)
    result = sim.run_dags(graphs)
    pool = sim.power_pool
    outputs = {"result": dataclasses.asdict(result), "power": pool.state_dict()}
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    expected_digest, grants, degraded, throttled, misses = GOLDEN[
        (variant, name)
    ]
    assert result.jobs_completed == TASKS
    assert (pool.grants, pool.degraded, pool.throttled) == (
        grants, degraded, throttled
    )
    assert result.deadline_misses == misses
    assert pool.degraded > 0 and pool.throttled > 0
    assert pool.idle()
    assert digest == expected_digest


@pytest.mark.parametrize("name", ("edf", "heft"))
def test_traced_dag_power_run_replays(name, store, graphs):
    recorder = ListRecorder()
    sim = _simulation(store, "cluster", name, recorder)
    result = sim.run_dags(graphs)
    report = replay_trace(recorder.events)
    assert report.completions == result.jobs_completed == TASKS
    assert report.token_grants == sim.power_pool.grants
    assert report.power_throttled > 0
    assert report.tokens_net_nj == pytest.approx(
        sim.power_pool.consumed_nj, rel=1e-9
    )
