"""Checkpoint/resume determinism for the streaming engine.

The contract: kill a streaming run at ANY point, restore the snapshot
into a freshly constructed engine with a fresh arrival process, and the
resumed run is bit-identical to the uninterrupted one — same
:class:`StreamResult`, and byte-identical final snapshots (the strong
form: not just the summary but the entire serialised state agrees).

Hypothesis drives the kill point; the policy × discipline grid is
covered by parametrisation.  Schema-version and fingerprint mismatches
must fail loudly instead of resuming a subtly different run.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import make_policy
from repro.core.system import base_system, paper_system
from repro.sim.stream import (
    OBSERVE_BLOCK,
    STREAM_SNAPSHOT_VERSION,
    StreamConfig,
    StreamingSimulation,
    read_checkpoint,
)
from repro.workloads.arrivals import PoissonProcess, QoSProcess
from repro.workloads.eembc import eembc_benchmark

from tests.scenarios import (
    SUITE_NAMES,
    build_energy_table,
    build_oracle,
    build_small_store,
)

N_JOBS = 150
SEED = 7

GRID = [
    ("base", "fifo", False),
    ("proposed", "fifo", False),
    ("proposed", "priority", True),
    ("optimal", "edf", False),
    ("energy_centric", "priority", False),
]


@pytest.fixture(scope="module")
def store():
    return build_small_store()


@pytest.fixture(scope="module")
def oracle(store):
    return build_oracle(store)


@pytest.fixture(scope="module")
def energy_table():
    return build_energy_table()


@pytest.fixture(scope="module")
def specs():
    return [eembc_benchmark(name) for name in SUITE_NAMES]


def _process(specs, *, qos=False):
    process = PoissonProcess(
        specs, mean_interarrival_cycles=25_000.0, seed=SEED
    )
    if qos:
        process = QoSProcess(
            process,
            service_estimate=lambda name: 400_000,
            priority_levels=4,
            seed=SEED,
        )
    return process


def _engine(policy_name, discipline, preemptive, store, oracle,
            energy_table, config=None):
    policy = make_policy(policy_name)
    system = base_system() if policy_name == "base" else paper_system()
    return StreamingSimulation(
        system,
        policy,
        store,
        predictor=oracle if policy.uses_predictor else None,
        energy_table=energy_table,
        config=config or StreamConfig(max_jobs=N_JOBS),
        discipline=discipline,
        preemptive=preemptive,
    )


def _finish(engine):
    while engine.advance():
        pass
    return engine.result()


class TestKillAndResume:
    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    @settings(max_examples=8, deadline=None)
    @given(kill_at=st.integers(min_value=1, max_value=N_JOBS - 1))
    def test_resume_is_bit_identical(
        self, policy, discipline, preemptive, kill_at, store, oracle,
        energy_table, specs,
    ):
        qos = discipline != "fifo"
        args = (policy, discipline, preemptive, store, oracle,
                energy_table)

        straight = _engine(*args)
        straight.start(_process(specs, qos=qos))
        baseline = _finish(straight)

        killed = _engine(*args)
        killed.start(_process(specs, qos=qos))
        killed.advance(max_completions=kill_at)
        # The JSON round trip is part of the contract: what resumes is
        # what a checkpoint file would hold, not live Python objects.
        snapshot = json.loads(json.dumps(killed.snapshot()))

        resumed = _engine(*args)
        result = resumed.resume(snapshot, _process(specs, qos=qos))
        assert result == baseline
        assert json.dumps(
            resumed.snapshot(), sort_keys=True
        ) == json.dumps(straight.snapshot(), sort_keys=True)

    @pytest.mark.parametrize("kill_at", (1, N_JOBS // 2, N_JOBS - 1))
    def test_retained_resume_is_bit_identical(
        self, kill_at, store, oracle, energy_table, specs
    ):
        # A retained run feeds its statistics lazily, so the snapshot
        # must carry exactly the completions before the kill.
        config = StreamConfig(
            max_jobs=N_JOBS, warmup_cycles=1_000_000, retain_jobs=True
        )
        args = ("proposed", "priority", True, store, oracle,
                energy_table)
        straight = _engine(*args, config=config)
        straight.start(_process(specs, qos=True))
        baseline = _finish(straight)
        assert baseline.sim_result is not None

        killed = _engine(*args, config=config)
        killed.start(_process(specs, qos=True))
        killed.advance(max_completions=kill_at)
        snapshot = json.loads(json.dumps(killed.snapshot()))

        resumed = _engine(*args, config=config)
        result = resumed.resume(snapshot, _process(specs, qos=True))
        assert result == baseline
        assert json.dumps(
            resumed.snapshot(), sort_keys=True
        ) == json.dumps(straight.snapshot(), sort_keys=True)

    def test_double_kill_chain(
        self, store, oracle, energy_table, specs
    ):
        """Resume a resumed run: checkpoints compose transitively."""
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        straight = _engine(*args)
        straight.start(_process(specs))
        baseline = _finish(straight)

        first = _engine(*args)
        first.start(_process(specs))
        first.advance(max_completions=40)
        second = _engine(*args)
        second.restore(
            json.loads(json.dumps(first.snapshot())), _process(specs)
        )
        second.advance(max_completions=50)
        third = _engine(*args)
        result = third.resume(
            json.loads(json.dumps(second.snapshot())), _process(specs)
        )
        assert result == baseline

    def test_resume_under_block_admission(
        self, store, oracle, energy_table, specs
    ):
        config = StreamConfig(
            max_jobs=N_JOBS, queue_capacity=3, admission="block"
        )
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        straight = _engine(*args, config=config)
        straight.start(_process(specs))
        baseline = _finish(straight)

        killed = _engine(*args, config=config)
        killed.start(_process(specs))
        killed.advance(max_completions=60)
        resumed = _engine(*args, config=config)
        result = resumed.resume(
            json.loads(json.dumps(killed.snapshot())), _process(specs)
        )
        assert result == baseline


class TestCongestedResume:
    """Kill points while the ready queue is backed up.

    Under ``energy_centric`` (and ``optimal`` while benchmarks wait
    for profiling) many dispatch passes find nothing to place, and the
    core then treats the queue as settled until a start, completion or
    preemption.  That is loop-local state: a snapshot holds none of
    it, and a resumed run must start unsettled rather than inherit
    it.
    """

    CAPACITY = 12

    @staticmethod
    def _process(specs, discipline):
        process = PoissonProcess(
            specs, mean_interarrival_cycles=15_000.0, seed=SEED
        )
        if discipline == "edf":
            # Half the jobs without a deadline: EDF order is not
            # arrival order.
            process = QoSProcess(
                process,
                service_estimate=lambda name: 400_000,
                deadline_fraction=0.5,
                seed=SEED,
            )
        return process

    @pytest.mark.parametrize("policy", ("energy_centric", "optimal"))
    @pytest.mark.parametrize("admission", ("shed", "block"))
    @pytest.mark.parametrize("discipline", ("fifo", "edf"))
    def test_resume_is_bit_identical(
        self, policy, admission, discipline, store, oracle, energy_table,
        specs,
    ):
        config = StreamConfig(
            max_jobs=N_JOBS, queue_capacity=self.CAPACITY,
            admission=admission,
        )
        args = (policy, discipline, False, store, oracle, energy_table)
        straight = _engine(*args, config=config)
        straight.start(self._process(specs, discipline))
        baseline = _finish(straight)
        final = json.dumps(straight.snapshot(), sort_keys=True)

        for kill_at in (15, 30, 45):
            killed = _engine(*args, config=config)
            killed.start(self._process(specs, discipline))
            killed.advance(max_completions=kill_at)
            snapshot = json.loads(json.dumps(killed.snapshot()))
            assert snapshot["version"] == STREAM_SNAPSHOT_VERSION == 5
            assert len(snapshot["engine"]["queue"]) >= self.CAPACITY - 2

            resumed = _engine(*args, config=config)
            result = resumed.resume(
                snapshot, self._process(specs, discipline)
            )
            assert result == baseline
            assert json.dumps(resumed.snapshot(), sort_keys=True) == final

    @pytest.mark.parametrize("discipline,preemptive", (
        ("fifo", False), ("priority", True), ("edf", False),
    ))
    @pytest.mark.parametrize("policy", ("energy_centric", "proposed"))
    def test_shedding_resume_is_bit_identical(
        self, policy, discipline, preemptive, store, oracle, energy_table,
        specs,
    ):
        # The core rebuilds its per-benchmark lanes from the restored
        # queue; a resumed run must shed, place and count stalls as if
        # it had never stopped, with 20 or more jobs queued at the kill.
        def process():
            return QoSProcess(
                PoissonProcess(
                    specs, mean_interarrival_cycles=12_000.0, seed=SEED
                ),
                service_estimate=lambda name: 400_000,
                priority_levels=4,
                deadline_fraction=0.5,
                seed=SEED,
            )

        config = StreamConfig(
            max_jobs=N_JOBS, queue_capacity=24, admission="shed",
        )
        args = (policy, discipline, preemptive, store, oracle, energy_table)
        straight = _engine(*args, config=config)
        straight.start(process())
        baseline = _finish(straight)
        assert baseline.jobs_shed > 0
        final = json.dumps(straight.snapshot(), sort_keys=True)

        for kill_at in (15, 30):
            killed = _engine(*args, config=config)
            killed.start(process())
            killed.advance(max_completions=kill_at)
            snapshot = json.loads(json.dumps(killed.snapshot()))
            assert len(snapshot["engine"]["queue"]) >= 20

            resumed = _engine(*args, config=config)
            assert resumed.resume(snapshot, process()) == baseline
            assert json.dumps(resumed.snapshot(), sort_keys=True) == final


class TestBlockBoundaries:
    """Kill points on and beside a histogram block boundary.

    A recycled run buffers its waiting/turnaround observations and
    feeds the histograms ``OBSERVE_BLOCK`` at a time.  The buffer is
    flushed before :meth:`advance` returns, so a snapshot at any
    completion count holds every observation made so far.
    """

    LONG_JOBS = 6_000
    ARGS = ("proposed", "fifo", False)

    @pytest.fixture(scope="class")
    def straight(self, store, oracle, energy_table, specs):
        engine = _engine(
            *self.ARGS, store, oracle, energy_table,
            config=StreamConfig(max_jobs=self.LONG_JOBS),
        )
        engine.start(_process(specs))
        result = _finish(engine)
        return result, json.dumps(engine.snapshot(), sort_keys=True)

    @pytest.mark.parametrize(
        "kill_at",
        (OBSERVE_BLOCK - 1, OBSERVE_BLOCK, OBSERVE_BLOCK + 1, 4_999),
    )
    def test_resume_across_block_boundary(
        self, kill_at, straight, store, oracle, energy_table, specs
    ):
        baseline, final_snapshot = straight
        config = StreamConfig(max_jobs=self.LONG_JOBS)
        args = (*self.ARGS, store, oracle, energy_table)
        killed = _engine(*args, config=config)
        killed.start(_process(specs))
        killed.advance(max_completions=kill_at)
        snapshot = json.loads(json.dumps(killed.snapshot()))
        # No warm-up: every completion is one observation, all of them
        # already in the histograms.
        assert snapshot["engine"]["completed"] == kill_at
        assert snapshot["engine"]["observed"] == kill_at
        for name in ("waiting", "turnaround"):
            assert snapshot["stats"][name]["count"] == kill_at

        resumed = _engine(*args, config=config)
        assert resumed.resume(snapshot, _process(specs)) == baseline
        assert json.dumps(
            resumed.snapshot(), sort_keys=True
        ) == final_snapshot

    def test_histograms_hold_every_observation_between_calls(
        self, store, oracle, energy_table, specs
    ):
        engine = _engine(
            *self.ARGS, store, oracle, energy_table,
            config=StreamConfig(
                max_jobs=self.LONG_JOBS, warmup_cycles=3_000_000
            ),
        )
        engine.start(_process(specs))
        more = True
        while more:
            more = engine.advance(max_events=2_503)
            snapshot = engine.snapshot()
            observed = snapshot["engine"]["observed"]
            for name in ("waiting", "turnaround"):
                assert snapshot["stats"][name]["count"] == observed
        assert OBSERVE_BLOCK < observed < self.LONG_JOBS


class TestCheckpointFiles:
    def test_run_writes_resumable_file(
        self, tmp_path, store, oracle, energy_table, specs
    ):
        path = tmp_path / "stream.ckpt"
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        baseline = _engine(*args).run(_process(specs))

        checkpointed = _engine(*args).run(
            _process(specs),
            checkpoint_path=str(path), checkpoint_every=30,
        )
        assert checkpointed == baseline
        # The final checkpoint is the finished run: resuming it does no
        # further work and reproduces the same result.
        snapshot = read_checkpoint(str(path))
        assert snapshot["version"] == STREAM_SNAPSHOT_VERSION
        resumed = _engine(*args).resume(snapshot, _process(specs))
        assert resumed == baseline
        assert not list(tmp_path.glob("*.tmp"))

    def test_mid_run_file_resumes(
        self, tmp_path, store, oracle, energy_table, specs
    ):
        path = tmp_path / "stream.ckpt"
        args = ("proposed", "priority", True, store, oracle,
                energy_table)
        straight = _engine(*args)
        straight.start(_process(specs, qos=True))
        baseline = _finish(straight)

        killed = _engine(*args)
        killed.start(_process(specs, qos=True))
        killed.advance(max_completions=77)
        killed.write_checkpoint(str(path))

        resumed = _engine(*args)
        result = resumed.resume(
            read_checkpoint(str(path)), _process(specs, qos=True)
        )
        assert result == baseline


#: A version-5 checkpoint written mid-stream: ``_fixture_engine()``
#: started on ``_fixture_process()``,
#: ``advance(max_events=FIXTURE_EVENTS)``, then ``write_checkpoint``.
#: It holds buffered arrival rows and a deferred (blocked) arrival with
#: a priority and a deadline.  Its ``engine``, ``knowledge`` and
#: ``process`` sections are those of the version-4 file beside it,
#: written when arrivals were frozen dataclasses.
FIXTURE = Path(__file__).parent / "data" / "stream_v5_block_qos.json"
FIXTURE_EVENTS = 194


def _fixture_process(specs):
    return QoSProcess(
        PoissonProcess(
            specs, mean_interarrival_cycles=25_000.0, seed=SEED, chunk=64
        ),
        service_estimate=lambda name: 400_000,
        priority_levels=4,
        deadline_fraction=0.5,
        seed=SEED,
    )


def _fixture_engine(store, oracle, energy_table):
    return _engine(
        "proposed", "priority", False, store, oracle, energy_table,
        config=StreamConfig(
            max_jobs=N_JOBS, queue_capacity=3, admission="block"
        ),
    )


class TestCommittedCheckpoint:
    """Checkpoints are read by later builds than the one that wrote
    them: the committed file must keep resuming bit-identically."""

    def test_fixture_holds_arrival_rows(self):
        engine = read_checkpoint(str(FIXTURE))["engine"]
        assert engine["abuf"]
        job_id, name, cycle, priority, deadline = engine["deferred"]
        assert priority > 0 and deadline > cycle

    def test_resume_equals_uninterrupted_run(
        self, store, oracle, energy_table, specs
    ):
        straight = _fixture_engine(store, oracle, energy_table)
        straight.start(_fixture_process(specs))
        baseline = _finish(straight)

        resumed = _fixture_engine(store, oracle, energy_table)
        result = resumed.resume(
            read_checkpoint(str(FIXTURE)), _fixture_process(specs)
        )
        assert result == baseline
        assert json.dumps(resumed.snapshot()) == json.dumps(
            straight.snapshot()
        )

    def test_writer_still_writes_the_same_bytes(
        self, tmp_path, store, oracle, energy_table, specs
    ):
        path = tmp_path / "stream.ckpt"
        engine = _fixture_engine(store, oracle, energy_table)
        engine.start(_fixture_process(specs))
        engine.advance(max_events=FIXTURE_EVENTS)
        engine.write_checkpoint(str(path))
        assert path.read_bytes() == FIXTURE.read_bytes()


class TestLoudFailures:
    def test_version_mismatch(self, store, oracle, energy_table, specs):
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        engine = _engine(*args)
        engine.start(_process(specs))
        engine.advance(max_completions=10)
        snapshot = engine.snapshot()
        snapshot["version"] = STREAM_SNAPSHOT_VERSION + 1
        fresh = _engine(*args)
        with pytest.raises(ValueError, match="snapshot version"):
            fresh.restore(snapshot, _process(specs))

    def test_fingerprint_mismatch_policy(
        self, store, oracle, energy_table, specs
    ):
        donor = _engine("proposed", "fifo", False, store, oracle,
                        energy_table)
        donor.start(_process(specs))
        donor.advance(max_completions=10)
        snapshot = donor.snapshot()
        other = _engine("optimal", "fifo", False, store, oracle,
                        energy_table)
        with pytest.raises(ValueError, match="policy"):
            other.restore(snapshot, _process(specs))

    def test_fingerprint_mismatch_config(
        self, store, oracle, energy_table, specs
    ):
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        donor = _engine(*args)
        donor.start(_process(specs))
        donor.advance(max_completions=10)
        snapshot = donor.snapshot()
        other = _engine(
            *args,
            config=StreamConfig(max_jobs=N_JOBS, queue_capacity=8),
        )
        with pytest.raises(ValueError, match="config"):
            other.restore(snapshot, _process(specs))

    def test_fingerprint_mismatch_process(
        self, store, oracle, energy_table, specs
    ):
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        donor = _engine(*args)
        donor.start(_process(specs))
        donor.advance(max_completions=10)
        snapshot = donor.snapshot()
        other = _engine(*args)
        different = PoissonProcess(
            specs, mean_interarrival_cycles=99_000.0, seed=SEED
        )
        with pytest.raises(ValueError, match="process"):
            other.restore(snapshot, different)

    def test_restore_needs_fresh_engine(
        self, store, oracle, energy_table, specs
    ):
        args = ("proposed", "fifo", False, store, oracle, energy_table)
        engine = _engine(*args)
        engine.start(_process(specs))
        engine.advance(max_completions=10)
        snapshot = engine.snapshot()
        with pytest.raises(RuntimeError, match="freshly constructed"):
            engine.restore(snapshot, _process(specs))


def _mutated_fixture(tmp_path, section, value):
    """A copy of the committed checkpoint with one arrival row replaced:
    ``section`` is ``"deferred"`` or an index into the arrival buffer."""
    snapshot = json.loads(FIXTURE.read_text())
    engine = snapshot["engine"]
    if section == "deferred":
        engine["deferred"] = value
    else:
        engine["abuf"][section] = value
    path = tmp_path / "mutated.ckpt"
    path.write_text(json.dumps(snapshot))
    return path


class TestMistypedArrivalRows:
    """Every field of every checkpointed arrival row is checked when the
    checkpoint is read, so a mistyped one is a ``ValueError`` naming the
    file, never a ``TypeError`` from inside the loop."""

    @pytest.mark.parametrize("section,row,message", [
        ("deferred", ["x", "puwmod", 0, 0, None], "job_id"),
        ("deferred", [74, "idctrn", 1907894, True, 3107894], "priority"),
        ("deferred", [74, "idctrn", 1907894.5, 3, None], "arrival cycle"),
        ("deferred", [74, "idctrn", 1907894, 3, "late"], "deadline"),
        ("deferred", [74, "idctrn", 1907894, 3, 5], "deadline"),
        ("deferred", [74, "idctrn", 2 ** 63, 3, None], "arrival cycle"),
        ("deferred", [74, "nosuch", 1907894, 3, None], "benchmark"),
        ("deferred", [74, ["idctrn"], 1907894, 3, None], "benchmark"),
        ("deferred", [74, "idctrn", 1907894], "5 fields"),
        (0, [False, "idctrn", 1936604, 3, None], "job_id"),
        (1, {"job_id": 76}, "5 fields"),
    ])
    def test_mistyped_row_names_the_file(
        self, tmp_path, section, row, message
    ):
        path = _mutated_fixture(tmp_path, section, row)
        with pytest.raises(ValueError) as raised:
            read_checkpoint(str(path))
        text = str(raised.value)
        assert text.startswith(f"{path} is not a valid stream checkpoint")
        assert message in text

    def test_restore_rejects_before_touching_the_engine(
        self, tmp_path, store, oracle, energy_table, specs
    ):
        snapshot = json.loads(FIXTURE.read_text())
        snapshot["engine"]["deferred"] = ["x", "puwmod", 0, 0, None]
        engine = _fixture_engine(store, oracle, energy_table)
        with pytest.raises(ValueError, match="job_id"):
            engine.restore(snapshot, _fixture_process(specs))
        assert not engine.started


#: The committed checkpoint's first tuning session (``[3, 2, {...}]``),
#: waiting- and turnaround-time histograms, QoS process RNG and inner
#: Poisson process.
SESSION = json.loads(FIXTURE.read_text())["knowledge"]["sessions"][0]
WAITING = json.loads(FIXTURE.read_text())["stats"]["waiting"]
TURNAROUND = json.loads(FIXTURE.read_text())["stats"]["turnaround"]
RNG = json.loads(FIXTURE.read_text())["process"]["rng"]
INNER = json.loads(FIXTURE.read_text())["process"]["inner"]
#: A telemetry state as a run with a sink checkpoints it.
TELEMETRY = {
    "schema": 1, "samples": 0, "out_bytes": 0, "trace_events": 0,
    "trace_bytes": 0, "finalized": False,
}

#: One field of the committed checkpoint's ``engine``, ``knowledge``,
#: ``stats`` or ``process`` section replaced (or the whole ``telemetry``
#: section, for key ``None``), and a fragment of the message that must
#: name it.
MISTYPED_FIELDS = [
    ("engine", "queue", ["x"], "queued job slot"),
    ("engine", "queue", [7], "not one of the 7 job slots"),
    ("engine", "queue", None, "'queue'"),
    ("engine", "jarr", None, "'jarr'"),
    ("engine", "jbid", None, "'jbid'"),
    ("engine", "jarr", [1835274] * 6 + [1.5], "job arrival cycle"),
    ("engine", "waiting", [1.5], "'waiting'"),
    ("engine", "waiting", [228] * 6 + [1.5], "job waiting cycles"),
    ("engine", "waiting", [228] * 6 + [-1], "job waiting cycles"),
    ("engine", "now", "x", "engine now"),
    ("engine", "now", 2 ** 63, "engine now"),
    ("engine", "jbid", [2, 1, 2, "x", 2, 3, 1], "job benchmark index"),
    ("engine", "jbid", [2, 1, 2, True, 2, 3, 1], "job benchmark index"),
    ("engine", "jbid", [2, 1, 2, 99, 2, 3, 1],
     "not one of the snapshot's 4 benchmarks"),
    ("engine", "sortkey", [-1, -1, -1, "x", 0, -2, -3], "job sort key"),
    ("engine", "sortkey", [-1, -1, -1, None, 0, -2, -3], "job sort key"),
    ("engine", "queue", [3, 3, 6, 2], "repeats a job slot"),
    ("engine", "queue", [3, 6, 2, 5], "slot 5 is also running"),
    ("engine", "cur_job", [5, 1], "one entry per core (4)"),
    ("engine", "cur_job", None, "one entry per core (4)"),
    ("engine", "cur_job", [5, 1, 4, 9], "running job slot 9"),
    ("engine", "cur_job", [5, 1, 4, "x"], "running job slot"),
    ("engine", "cur_job", [5, 1, 4, -2], "running job slot"),
    ("knowledge", "profiled", 5, "profiled"),
    ("knowledge", "profiled", [True, True, True], "profiled"),
    ("knowledge", "profiled", [True, True, True, 1], "profiled"),
    ("engine", "free_slots", ["x"], "free job slot"),
    ("engine", "free_slots", [3], "free job slot 3 is queued or running"),
    ("engine", "gen_done", "x", "engine 'gen_done'"),
    ("engine", "core_dvfs", [None], "'core_dvfs'"),
    ("engine", "epoch", [1], "'epoch'"),
    ("engine", "cur_cfg", [99, 0, 0, 0], "not one of the 18 configurations"),
    ("engine", "cur_job", [5, 1, 0, 4], "core 2's pending execution"),
    ("engine", "n_busy", 3, "'n_busy' 3"),
    ("engine", "busy_until", None, "'busy_until'"),
    ("engine", "comp_heap", ["x"], "completion event"),
    ("engine", "comp_heap", [[3841470, 67, 9, 12]], "completion event[2] 9"),
    ("engine", "pending", [1, None, None], "'pending'"),
    ("engine", "records", [5], "job record"),
    ("engine", "processed", "x", "engine 'processed'"),
    ("engine", "dynamic_nj", "x", "engine 'dynamic_nj'"),
    ("engine", "remaining", [1.0] * 6 + ["x"], "job remaining work"),
    ("engine", "charged", [0.0] * 6 + [None], "job energy"),
    ("engine", "per_power", [[[0.5, "x"]], [], [], []], "idle cycles"),
    ("engine", "res_closed", [5, [], [], []], "core residency intervals"),
    ("engine", "preempted_now", ["x"], "preempted job label"),
    ("engine", "power", {
        "held": [], "granted_nj": 0.0, "refunded_nj": 0.0, "grants": 0,
        "refunds": 0, "throttled": 0, "degraded": 0, "overdrafts": 0,
    }, "engine 'power'"),
    ("knowledge", "tuned", [[1], [2], [3], "x"], "tuned size 1"),
    ("knowledge", "touch_order", [9], "touched benchmark 9"),
    ("knowledge", "pred_raw", None, "'pred_raw'"),
    ("knowledge", "executed", 5, "'executed'"),
    ("knowledge", "best_known", [[[8, "x", 9]], [], [], []],
     "best-known execution[1]"),
    ("knowledge", "sessions", [[0, 4, {}]], "tuning session 'phase'"),
    ("knowledge", "sessions", [[3, 2, {**SESSION[2], "first_index": 9}]],
     "tuning session 'first_index'"),
    ("knowledge", "sessions", [[3, 4, SESSION[2]]], "tunes another size"),
    ("knowledge", "sessions", [[3, 2, {**SESSION[2], "best_config": None}]],
     "must have a 'best_config'"),
    ("knowledge", "pred_size", [2, 4, 8, None], "benchmark 3"),
    ("engine", "epoch", [13, 12, 27, 20], "core 3's pending execution"),
    ("engine", "last_arrival_cycle", 2 ** 62, "'last_arrival_cycle'"),
    ("engine", "comp_heap", [
        [99, 67, 1, 12], [3934094, 69, 3, 19], [3933866, 68, 2, 27],
        [3985334, 70, 0, 13],
    ], "before now"),
    ("engine", "res_busy", [558612, 219476, 282692, 2 ** 62],
     "core 3's residency interval"),
    ("stats", "waiting", {**WAITING, "buckets": WAITING["buckets"][::-1]},
     "histogram 'stream.waiting_cycles' bucket must be >= "),
    ("stats", "waiting", {**WAITING, "buckets": WAITING["buckets"][1:]},
     "'buckets' hold 55 observations, not 'count' 67"),
    ("stats", "waiting", {**WAITING, "buckets": [[0, 67.0]]},
     "bucket 0's count must be an integer"),
    ("stats", "turnaround", {**TURNAROUND, "buckets": [[-7, 67]]},
     "bucket -7 is not a bucket key"),
    ("stats", "turnaround", {}, "histogram 'stream.turnaround_cycles'"),
    ("stats", "waiting", 5, "histogram 'stream.waiting_cycles'"),
    ("process", "rng", 5, "qos process 'rng' must be a PCG64"),
    ("process", "rng", {}, "qos process 'rng' must be a PCG64"),
    ("process", "rng", {**RNG, "state": {}}, "'rng' state must be an"),
    ("process", "rng", {**RNG, "state": {**RNG["state"], "state": -1}},
     "'rng' state must be >= 0"),
    ("process", "rng", {**RNG, "state": {**RNG["state"], "inc": 2 ** 128}},
     "'rng' inc must be <= "),
    ("process", "rng", {**RNG, "state": {**RNG["state"], "inc": 2}},
     "'rng' inc must be odd"),
    ("process", "rng", {**RNG, "uinteger": None}, "'rng' uinteger"),
    ("process", "rng", {**RNG, "has_uint32": 2}, "'rng' has_uint32"),
    ("process", "inner", 5, "a poisson process state is a JSON object"),
    ("process", "inner", {**INNER, "rng": {}}, "poisson process 'rng'"),
    ("process", "inner", {**INNER, "next_id": "x"},
     "poisson process 'next_id'"),
    ("process", "inner", {**INNER, "next_id": 3}, "'next_id' 3 is below 128"),
    ("process", "inner", {**INNER, "clock": None}, "poisson process 'clock'"),
    ("process", "inner", {**INNER, "clock": -1.0}, "'clock' must be >= 0"),
    ("process", "inner", {**INNER, "clock": 2.0 ** 63},
     "'clock' is too large"),
    ("process", "inner", {**INNER, "clock": 5.0}, "'clock' 5.0 is before"),
    ("telemetry", None, 5, "a telemetry state is a JSON object"),
    ("telemetry", None, {**TELEMETRY, "schema": 2},
     "unsupported telemetry schema 2"),
    ("telemetry", None, {**TELEMETRY, "schema": True}, "telemetry 'schema'"),
    ("telemetry", None, {**TELEMETRY, "samples": None},
     "telemetry 'samples'"),
    ("telemetry", None, {**TELEMETRY, "out_bytes": -5},
     "telemetry 'out_bytes' must be >= 0"),
    ("telemetry", None, {**TELEMETRY, "trace_bytes": "x"},
     "telemetry 'trace_bytes'"),
    ("telemetry", None, {**TELEMETRY, "finalized": "x"},
     "telemetry 'finalized'"),
]


class TestMistypedEngineFields:
    """Every field of the engine, knowledge, stats, process and
    telemetry sections is checked when a checkpoint is read, so a
    mistyped one never reaches ``restore`` as a ``TypeError``, an
    ``IndexError``, a half-restored engine or process, or a silently
    resumed run."""

    @staticmethod
    def _mutated(section, key, value):
        snapshot = json.loads(FIXTURE.read_text())
        if key is None:
            snapshot[section] = value
        else:
            snapshot[section][key] = value
        return snapshot

    @pytest.mark.parametrize("section,key,value,message", MISTYPED_FIELDS)
    def test_mistyped_field_names_the_file(
        self, tmp_path, section, key, value, message
    ):
        path = tmp_path / "mutated.ckpt"
        path.write_text(json.dumps(self._mutated(section, key, value)))
        with pytest.raises(ValueError) as raised:
            read_checkpoint(str(path))
        text = str(raised.value)
        assert text.startswith(f"{path} is not a valid stream checkpoint")
        assert message in text

    def test_profiled_benchmark_has_a_prediction(self, tmp_path):
        snapshot = json.loads(FIXTURE.read_text())
        snapshot["knowledge"]["pred_raw"][3] = None
        snapshot["knowledge"]["pred_size"][3] = None
        path = tmp_path / "mutated.ckpt"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match="profiled: True"):
            read_checkpoint(str(path))

    @pytest.mark.parametrize("section,key,value,message", MISTYPED_FIELDS)
    def test_resume_rejects_before_touching_the_engine(
        self, section, key, value, message,
        store, oracle, energy_table, specs,
    ):
        engine = _fixture_engine(store, oracle, energy_table)
        process = _fixture_process(specs)
        fresh = process.state_dict()
        with pytest.raises(ValueError, match=re.escape(message)):
            engine.resume(self._mutated(section, key, value), process)
        assert not engine.started
        assert process.state_dict() == fresh
