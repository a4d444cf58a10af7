"""The spec is the run: every front end's result is ``run_spec``'s.

``repro compare`` runs four :class:`~repro.campaign.ReplicationSpec`
values, ``repro stream`` one, and every :func:`~repro.campaign.run_campaign`
replication one, all through :func:`~repro.campaign.run_spec`.  Each test
here runs a front end and then the matching specs directly, and asserts
the two results are equal.
"""

import dataclasses
import json

import pytest

from repro.analysis.export import results_to_json
from repro.campaign import (
    CAMPAIGN_METRICS,
    DagLoad,
    ReplicationSpec,
    StreamLoad,
    power_grid,
    run_campaign,
    run_spec,
)
from repro.cli import main
from repro.core import POLICY_NAMES, OraclePredictor
from repro.experiment import default_store
from repro.power.dvfs import DEFAULT_DVFS_TABLE


@pytest.fixture(scope="module")
def store():
    # The store the CLI loads, so both sides run on the same data.
    return default_store()


@pytest.mark.parametrize("argv,power", [
    ([], None),
    (["--power-cap", "400000", "--power-slack", "10", "--dvfs"],
     power_grid([400_000.0], slacks=[10.0], dvfs=DEFAULT_DVFS_TABLE)[0]),
], ids=["plain", "powered"])
def test_compare_is_four_specs(argv, power, store, tmp_path, capsys):
    cli_json = tmp_path / "cli.json"
    assert main(["compare", "--jobs", "40", "--seed", "3",
                 "--interarrival", "30000", "--predictor", "oracle",
                 "--json", str(cli_json)] + argv) == 0
    capsys.readouterr()
    results = {
        policy: run_spec(
            ReplicationSpec(policy=policy, seed=3, count=40,
                            mean_interarrival_cycles=30_000, power=power),
            store, OraclePredictor(store),
        )[0]
        for policy in POLICY_NAMES
    }
    spec_json = tmp_path / "spec.json"
    results_to_json(results, spec_json)
    assert cli_json.read_bytes() == spec_json.read_bytes()


@pytest.mark.parametrize("argv,load,count,gap", [
    (["--max-jobs", "300"], StreamLoad(), 300, 56_000.0),
    (["--max-jobs", "5000", "--duration", "12000000", "--process", "mmpp",
      "--burst-factor", "6", "--interarrival", "30000.5",
      "--queue-capacity", "4", "--admission", "shed"],
     StreamLoad(process="mmpp", queue_capacity=4, admission="shed",
                process_args=(("burst_factor", 6.0),),
                duration_cycles=12_000_000),
     5000, 30_000.5),
    (["--duration", "15000000", "--process", "diurnal",
      "--interarrival", "56000.5", "--amplitude", "0.3",
      "--period", "4000000", "--warmup", "1000000"],
     StreamLoad(process="diurnal", warmup_cycles=1_000_000,
                process_args=(("amplitude", 0.3),
                              ("period_cycles", 4_000_000)),
                duration_cycles=15_000_000),
     None, 56_000.5),
], ids=["max-jobs", "mmpp-duration", "diurnal-duration-only"])
def test_stream_is_one_spec(argv, load, count, gap, store, tmp_path,
                            capsys):
    cli_json = tmp_path / "cli.json"
    assert main(["stream", "--seed", "2", "--json", str(cli_json)]
                + argv) == 0
    capsys.readouterr()
    spec = ReplicationSpec(policy="proposed", seed=2, count=count,
                           mean_interarrival_cycles=gap, stream=load)
    result, _, process = run_spec(spec, store, OraclePredictor(store))
    assert process.mean_interarrival_cycles == gap
    payload = dataclasses.asdict(result)
    del payload["sim_result"]
    assert json.loads(cli_json.read_text()) == json.loads(
        json.dumps(payload)
    )


@pytest.mark.parametrize("axis", [
    {},
    {"dag": DagLoad(tasks_min=2, tasks_max=4), "policies": ("edf",)},
    {"stream": StreamLoad(process="mmpp", queue_capacity=8,
                          admission="drop")},
], ids=["batch", "dag", "stream"])
def test_campaign_replication_is_its_spec(axis, store):
    grid = dict(policies=("base", "proposed"), seeds=(0, 1),
                loads=((30, 40_000),))
    grid.update(axis)
    campaign = run_campaign(store, workers=1, **grid)
    assert len(campaign.replications) == 2 * len(grid["policies"])
    for replication in campaign.replications:
        result, _, load = run_spec(replication.spec, store,
                                   OraclePredictor(store))
        for name in CAMPAIGN_METRICS:
            if name == "mean_waiting_cycles" and "stream" in axis:
                expected = result.waiting["mean"]
            else:
                expected = getattr(result, name)
            assert replication.metric(name) == expected, name
        if "dag" in axis:
            assert replication.observed["dag.graphs"] == len(load)
            assert replication.observed["dag.deadline_misses"] == (
                result.deadline_misses
            )
