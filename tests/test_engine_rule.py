"""Every front end asks the one engine × feature rule.

Each row of the table is one (engine, hook, telemetry, policy, load)
combination.  :func:`~repro.core.simulation.select_engine` gives the
verdict, and every front end that can express the row must agree with
it: :class:`~repro.core.simulation.SchedulerSimulation` (``run`` /
``run_dags`` / ``stream``), :func:`~repro.campaign.run_campaign` and the
CLI all accept the row, or all reject it with the rule's message.

The ``recorder`` hook is a trace recorder on a simulation and ``compare
--trace`` on the CLI.  Campaigns attach no trace recorder, so there the
metrics registry (``collect_metrics`` / ``campaign --metrics-out``),
the other per-event observability hook, stands in for it.  Campaigns
take no telemetry, ``compare`` runs only the paper's policies, and the
``stream`` command has no ``--engine`` or hook flags; a row no command
expresses is checked on the library front ends only.
"""

import itertools
import re
from pathlib import Path

import pytest

from repro.campaign import DagLoad, StreamLoad, run_campaign
from repro.cli import main
from repro.core import OraclePredictor, make_policy, make_simulation
from repro.core.policies import ProposedPolicy
from repro.core.simulation import select_engine
from repro.experiment import default_store
from repro.obs import Telemetry
from repro.obs.recorder import ListRecorder
from repro.sim.stream import StreamConfig
from repro.workloads import eembc_suite, make_process, uniform_arrivals
from repro.workloads.dag import generate_task_graphs

ROWS = list(itertools.product(
    ("auto", "fast", "reference"),
    ("none", "validate", "recorder"),
    (False, True),
    ("proposed", "edf"),
    ("batch", "dag", "stream"),
))


def row_id(row):
    engine, hook, telemetry, policy, load = row
    return "-".join(
        (engine, hook, "telemetry" if telemetry else "plain", policy, load)
    )


@pytest.fixture(scope="module")
def store():
    return default_store(cache_path=None)


def verdict(call):
    """``None`` if ``call`` runs, else its ``ValueError`` message."""
    try:
        call()
    except ValueError as error:
        return str(error)
    return None


def simulate(store, engine, hook, telemetry, policy, load):
    sim = make_simulation(
        policy, store, OraclePredictor(store),
        engine=engine,
        validate=hook == "validate",
        recorder=ListRecorder() if hook == "recorder" else None,
        telemetry=Telemetry() if telemetry else None,
    )
    if load == "batch":
        sim.run(uniform_arrivals(eembc_suite(), count=6, seed=0))
    elif load == "dag":
        sim.run_dags(
            generate_task_graphs(count=2, seed=0, tasks_min=2, tasks_max=3)
        )
    else:
        sim.stream(
            make_process("poisson", eembc_suite(),
                         mean_interarrival_cycles=56_000, seed=0),
            StreamConfig(max_jobs=6),
        )


def campaign(store, engine, hook, policy, load):
    run_campaign(
        store,
        policies=(policy,),
        seeds=(0,),
        loads=((4, 120_000),),
        engine=engine,
        validate=hook == "validate",
        collect_metrics=hook == "recorder",
        stream=StreamLoad() if load == "stream" else None,
        dag=DagLoad(tasks_min=2, tasks_max=3) if load == "dag" else None,
    )


def cli_argv(engine, hook, telemetry, policy, load, tmp_path):
    """The CLI invocation of a row (``None``: no command expresses it)."""
    if not telemetry:
        argv = ["campaign", "--policies", policy, "--seeds", "0",
                "--jobs", "4", "--interarrival", "120000",
                "--workers", "1", "--engine", engine]
        if hook == "validate":
            argv.append("--validate")
        elif hook == "recorder":
            argv += ["--metrics-out", str(tmp_path / "metrics.json")]
        if load == "dag":
            argv += ["--dag", "--dag-tasks-min", "2", "--dag-tasks-max", "3"]
        elif load == "stream":
            argv += ["--stream", "poisson"]
        return argv
    telemetry_out = ["--telemetry-out", str(tmp_path / "telemetry.jsonl")]
    if policy != "proposed" or load == "dag":
        return None
    if load == "batch":
        argv = ["compare", "--jobs", "6", "--predictor", "oracle",
                "--engine", engine] + telemetry_out
        if hook == "validate":
            argv.append("--validate")
        elif hook == "recorder":
            argv += ["--trace", str(tmp_path / "trace.jsonl")]
        return argv
    if engine == "auto" and hook == "none":
        return ["stream", "--max-jobs", "6"] + telemetry_out
    return None


@pytest.mark.parametrize("row", ROWS, ids=[row_id(row) for row in ROWS])
def test_front_ends_agree_with_the_rule(row, store, capsys, tmp_path):
    engine, hook, telemetry, policy, load = row
    expected = verdict(lambda: select_engine(
        engine, make_policy(policy), hooks=hook != "none",
        telemetry=telemetry, load=load,
    ))

    assert verdict(lambda: simulate(store, *row)) == expected
    if not telemetry:
        assert verdict(
            lambda: campaign(store, engine, hook, policy, load)
        ) == expected

    argv = cli_argv(*row, tmp_path)
    if argv is None:
        return
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err
    if expected is None:
        assert code == 0, err
    else:
        assert code == 2
        assert err == f"error: {expected}\n"


def test_table_covers_accepts_and_rejects():
    verdicts = [
        verdict(lambda: select_engine(
            engine, make_policy(policy), hooks=hook != "none",
            telemetry=telemetry, load=load,
        ))
        for engine, hook, telemetry, policy, load in ROWS
    ]
    # Every distinct rejection in the rule shows up in the table.
    assert verdicts.count(None) > 0
    assert len({v for v in verdicts if v is not None}) == 5


class _ChoosesDvfs(ProposedPolicy):
    """A policy overriding ``choose_dvfs`` (it keeps the default point)."""

    def choose_dvfs(self, job, core, table):
        return None


#: Column features of the engine table in docs/performance.md, in order.
_TABLE_COLUMNS = (
    {},
    {"hooks": True},
    {"telemetry": True},
    {"policy": "edf"},
    {"power": True},
    {"power": True, "policy": _ChoosesDvfs()},
)
_TABLE_LOADS = {"batch": "batch", "task": "dag", "stream": "stream"}


def engine_table():
    """(row label, cells) of the "Engine selection" table."""
    doc = Path(__file__).resolve().parents[1] / "docs" / "performance.md"
    section = doc.read_text().split("### Engine selection", 1)[1]
    section = section.split("\n#", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("| ")]
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in lines[1:]
    ]


def test_docs_engine_table_matches_the_rule():
    rows = engine_table()
    assert len(rows) == 7
    for label, *cells in rows:
        assert len(cells) == len(_TABLE_COLUMNS), label
        load = _TABLE_LOADS[re.match(r"\w+", label).group()]
        engines = re.findall(r"`(auto|fast|reference)`",
                             label.rsplit(",", 1)[1])
        assert engines, label
        for engine in engines:
            for cell, feature in zip(cells, _TABLE_COLUMNS):
                feature = dict(feature)
                policy = feature.pop("policy", "proposed")
                if isinstance(policy, str):
                    policy = make_policy(policy)
                try:
                    got = select_engine(engine, policy, load=load, **feature)
                except ValueError:
                    got = "rejected"
                if load == "stream" and got == "fast":
                    got = "stream"
                assert got == cell, (label, engine, feature)
