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
            assert snapshot["version"] == STREAM_SNAPSHOT_VERSION == 4
            assert len(snapshot["engine"]["queue"]) >= self.CAPACITY - 2

            resumed = _engine(*args, config=config)
            result = resumed.resume(
                snapshot, self._process(specs, discipline)
            )
            assert result == baseline
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


#: A version-4 checkpoint written mid-stream by the engine as it stood
#: when arrivals were frozen dataclasses: ``_fixture_engine()`` started
#: on ``_fixture_process()``, ``advance(max_events=FIXTURE_EVENTS)``,
#: then ``write_checkpoint``.  It holds buffered arrival rows and a
#: deferred (blocked) arrival with a priority and a deadline.
FIXTURE = Path(__file__).parent / "data" / "stream_v4_block_qos.json"
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
