"""Every front end asks the one engine × feature rule.

Each row of the table is one (engine, hook, telemetry, policy, load)
combination.  :func:`~repro.core.simulation.select_engine` gives the
verdict, and every front end that can express the row must agree with
it: :class:`~repro.core.simulation.SchedulerSimulation` (``run`` /
``run_dags``), the simulation core
(:class:`~repro.sim.stream.StreamingSimulation`, for the stream rows
its constructor can express: no hook, no telemetry, no engine choice),
:func:`~repro.campaign.run_spec` (the one run path behind ``compare``,
``stream`` and campaigns), :func:`~repro.campaign.run_campaign` and the
CLI all accept the row, or all reject it with the rule's message.

The ``recorder`` hook is a trace recorder on a simulation and ``compare
--trace`` on the CLI.  Campaigns attach no trace recorder, so there the
metrics registry (``collect_metrics`` / ``campaign --metrics-out``),
the other per-event observability hook, stands in for it.  Campaigns
take no telemetry, ``compare`` runs only the paper's policies, and the
``stream`` command has no ``--engine`` or hook flags; a row no command
expresses is checked on the library front ends only.

Plug-in policies (subclasses of the paper's policies, which no command
or spec can name) are checked on :class:`SchedulerSimulation`: the rule
routes every class outside :data:`~repro.sim.stream.CORE_POLICIES` to the
reference loop, and the core's own constructors refuse it with the same
message.
"""

import itertools
import re
from pathlib import Path

import pytest

from repro.campaign import (
    DagLoad,
    ReplicationSpec,
    StreamLoad,
    run_campaign,
    run_spec,
)
from repro.cli import main
from repro.core import (
    OraclePredictor,
    SchedulerSimulation,
    make_policy,
    make_simulation,
    paper_system,
)
from repro.core.simulation import select_engine
from repro.experiment import default_store
from repro.obs import Telemetry
from repro.obs.recorder import ListRecorder
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads import eembc_suite, make_process, uniform_arrivals
from repro.workloads.dag import generate_task_graphs

from tests.scenarios import CUSTOM_POLICIES, RenamedBasePolicy

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


def core_expresses(engine, hook, telemetry):
    """Whether the core's constructor can express a stream row.  It
    picks no engine and takes no hook; and where the rule reports a
    telemetry conflict first, it names the policy class it does not
    implement."""
    return engine != "reference" and hook == "none" and not telemetry


def simulate(store, engine, hook, telemetry, policy, load):
    """Run one row; ``policy`` is a name or a policy class.

    A stream row runs on the core directly (see :func:`core_expresses`).
    """
    if load == "stream":
        policy = make_policy(policy) if isinstance(policy, str) else policy()
        return StreamingSimulation(
            paper_system(), policy, store, predictor=OraclePredictor(store),
            config=StreamConfig(max_jobs=6),
        ).run(make_process("poisson", eembc_suite(),
                           mean_interarrival_cycles=56_000, seed=0))
    kwargs = dict(
        engine=engine,
        validate=hook == "validate",
        recorder=ListRecorder() if hook == "recorder" else None,
        telemetry=Telemetry() if telemetry else None,
    )
    if isinstance(policy, str):
        sim = make_simulation(policy, store, OraclePredictor(store),
                              **kwargs)
    else:
        sim = SchedulerSimulation(paper_system(), policy(), store,
                                  predictor=OraclePredictor(store), **kwargs)
    if load == "batch":
        return sim.run(uniform_arrivals(eembc_suite(), count=6, seed=0))
    return sim.run_dags(
        generate_task_graphs(count=2, seed=0, tasks_min=2, tasks_max=3)
    )


def spec_run(store, engine, hook, telemetry, policy, load):
    """Run one row as a :class:`ReplicationSpec` through ``run_spec``."""
    spec = ReplicationSpec(
        policy=policy,
        seed=0,
        count=2 if load == "dag" else 6,
        mean_interarrival_cycles=56_000,
        engine=engine,
        stream=StreamLoad() if load == "stream" else None,
        dag=DagLoad(tasks_min=2, tasks_max=3) if load == "dag" else None,
    )
    return run_spec(
        spec, store, OraclePredictor(store),
        validate=hook == "validate",
        recorder=ListRecorder() if hook == "recorder" else None,
        telemetry=Telemetry() if telemetry else None,
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

    if load != "stream" or core_expresses(engine, hook, telemetry):
        assert verdict(lambda: simulate(store, *row)) == expected
    assert verdict(lambda: spec_run(store, *row)) == expected
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


CUSTOM_ROWS = list(itertools.product(
    CUSTOM_POLICIES, ("auto", "fast", "reference"), ("batch", "dag", "stream"),
))


@pytest.mark.parametrize(
    "cls,engine,load", CUSTOM_ROWS,
    ids=["-".join((cls.__name__, engine, load))
         for cls, engine, load in CUSTOM_ROWS],
)
def test_plugin_policies_run_on_the_reference_loop(cls, engine, load,
                                                    store):
    """A policy class the core does not implement runs where the
    reference loop can run it, and is refused, by name, elsewhere."""
    expected = verdict(lambda: select_engine(engine, cls(), load=load))
    if load == "stream" or engine == "fast":
        assert cls.__name__ in expected
    else:
        assert expected is None
        assert select_engine(engine, cls(), load=load) == "reference"
    if load != "stream" or core_expresses(engine, "none", False):
        assert verdict(
            lambda: simulate(store, engine, "none", False, cls, load)
        ) == expected
    if engine == "auto" and load != "stream":
        assert simulate(store, "auto", "none", False, cls, load) == (
            simulate(store, "reference", "none", False, cls, load)
        )


@pytest.mark.parametrize("cls", CUSTOM_POLICIES,
                         ids=lambda cls: cls.__name__)
def test_core_constructors_refuse_plugin_policies(cls, store):
    with pytest.raises(ValueError, match=cls.__name__) as refused:
        StreamingSimulation(
            paper_system(), cls(), store,
            predictor=OraclePredictor(store),
            config=StreamConfig(max_jobs=6),
        )
    assert str(refused.value) == verdict(
        lambda: select_engine("fast", cls())
    )


#: Column features of the engine table in docs/performance.md, in order.
_TABLE_COLUMNS = (
    {},
    {"hooks": True},
    {"telemetry": True},
    {"policy": "edf"},
    {"policy": RenamedBasePolicy()},
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
