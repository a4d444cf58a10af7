"""Oracle equivalence and behaviour of the open-system streaming engine.

The streaming engine (:mod:`repro.sim.stream`) feeds the fast engine's
event loop from a generator-backed arrival process in bounded memory.
Its correctness contract has two halves:

* **Closed-batch equivalence** — a finite stream (``max_jobs=N``, no
  admission bound, per-job retention on) must produce a
  :class:`SimulationResult` *bit-identical* to
  ``StreamingSimulation.run_batch(poisson_arrivals(count=N))``, across
  the full policy × discipline × preemption grid.  The batch route is
  the oracle.
* **Open-system semantics** — admission control (drop / shed / block),
  warm-up truncation, duration bounds, bounded slot tables and the
  windowed quantile metrics, none of which have a batch counterpart.

The up-front rejection of hook-bearing stream specs by
:func:`~repro.campaign.run_spec` is pinned here too (a stream spec's
results, which need the full-suite store, are pinned in
``tests/test_run_spec.py`` and ``tests/test_campaign.py``).
"""

import io
import itertools
import json

import pytest

from repro.campaign import ReplicationSpec, StreamLoad, run_spec
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.system import base_system, paper_system
from repro.obs import MetricsRegistry, Telemetry
from repro.sim.stream import (
    ADMISSION_POLICIES,
    OBSERVE_BLOCK,
    StreamConfig,
    StreamingSimulation,
)
from repro.workloads.arrivals import (
    PoissonProcess,
    QoSProcess,
    poisson_arrivals,
    with_qos,
)
from repro.workloads.eembc import eembc_benchmark

from tests.oracles import SampleOracle
from tests.scenarios import (
    SUITE_NAMES,
    build_energy_table,
    build_oracle,
    build_small_store,
)

DISCIPLINES = ("fifo", "priority", "edf")

#: Every (policy, discipline, preemption) combination the simulation
#: accepts (fifo+preemptive is rejected by the constructor).
GRID = [
    (policy, discipline, preemptive)
    for policy, discipline, preemptive in itertools.product(
        POLICY_NAMES, DISCIPLINES, (False, True)
    )
    if not (preemptive and discipline == "fifo")
]

N_JOBS = 400
MEAN_GAP = 30_000.0
SEED = 3


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


def _process(specs, *, qos=False, mean_gap=MEAN_GAP, seed=SEED):
    process = PoissonProcess(
        specs, mean_interarrival_cycles=mean_gap, seed=seed
    )
    if qos:
        process = QoSProcess(
            process,
            service_estimate=lambda name: 400_000,
            priority_levels=4,
            seed=seed,
        )
    return process


def _streaming(policy_name, store, oracle, energy_table, config=None,
               **kwargs):
    policy = make_policy(policy_name)
    system = (
        base_system() if policy_name == "base" else paper_system()
    )
    return StreamingSimulation(
        system,
        policy,
        store,
        predictor=oracle if policy.uses_predictor else None,
        energy_table=energy_table,
        config=config,
        **kwargs,
    )


class TestClosedBatchEquivalence:
    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    def test_finite_stream_bit_identical_to_batch(
        self, policy, discipline, preemptive, store, oracle,
        energy_table, specs,
    ):
        qos = discipline != "fifo"
        arrivals = poisson_arrivals(
            specs, count=N_JOBS,
            mean_interarrival_cycles=MEAN_GAP, seed=SEED,
        )
        if qos:
            arrivals = with_qos(
                arrivals,
                service_estimate=lambda name: 400_000,
                priority_levels=4,
                seed=SEED,
            )
        batch = _streaming(
            policy, store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
        ).run_batch(arrivals)
        streaming = _streaming(
            policy, store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, retain_jobs=True),
            discipline=discipline, preemptive=preemptive,
        )
        result = streaming.run(_process(specs, qos=qos))
        assert result.sim_result == batch
        assert result.jobs_completed == N_JOBS
        assert result.jobs_generated == N_JOBS
        assert result.makespan_cycles == batch.makespan_cycles

    def test_preloaded_profiles_equivalent(
        self, store, oracle, energy_table, specs
    ):
        arrivals = poisson_arrivals(
            specs, count=N_JOBS,
            mean_interarrival_cycles=MEAN_GAP, seed=SEED,
        )
        batch = _streaming(
            "proposed", store, oracle, energy_table,
            preload_profiles=True,
        ).run_batch(arrivals)
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, retain_jobs=True),
            preload_profiles=True,
        )
        assert streaming.run(_process(specs)).sim_result == batch


class TestBoundedMemory:
    def test_slot_table_stays_small_without_retention(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=5_000),
        )
        result = streaming.run(_process(specs, mean_gap=56_000.0))
        assert result.jobs_completed == 5_000
        slots = len(streaming._s["jbid"])
        assert slots < 200, slots
        assert streaming._s["records"] == []

    def test_retention_keeps_every_job(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=300, retain_jobs=True),
        )
        result = streaming.run(_process(specs))
        assert len(result.sim_result.jobs) == 300
        assert len(streaming._s["jbid"]) == 300


class TestAdmissionControl:
    def test_drop_rejects_and_accounts(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=1_000, queue_capacity=4, admission="drop"
            ),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_dropped > 0
        assert result.jobs_shed == 0
        assert (
            result.jobs_completed + result.jobs_dropped == 1_000
        )
        assert result.shed_rate == pytest.approx(
            result.jobs_dropped / 1_000
        )

    def test_shed_evicts_queued_jobs(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=1_000, queue_capacity=4, admission="shed"
            ),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_shed > 0
        assert result.jobs_dropped == 0
        assert result.jobs_completed + result.jobs_shed == 1_000

    def test_shed_under_priority_evicts_worst(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=600, queue_capacity=4, admission="shed"
            ),
            discipline="priority",
        )
        result = streaming.run(
            _process(specs, qos=True, mean_gap=6_000.0)
        )
        assert result.jobs_shed > 0
        assert result.jobs_completed + result.jobs_shed == 600

    def test_block_completes_everything(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=800, queue_capacity=4, admission="block"
            ),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_completed == 800
        assert result.jobs_dropped == 0 and result.jobs_shed == 0
        assert result.blocked_cycles > 0
        assert result.max_queue_len <= 4 + 1  # one forced admission slot

    def test_unbounded_queue_never_drops(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=400),
        )
        result = streaming.run(_process(specs, mean_gap=6_000.0))
        assert result.jobs_completed == 400
        assert result.jobs_dropped == 0 and result.jobs_shed == 0


class TestStreamBounds:
    def test_duration_truncates_generation(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(duration_cycles=20_000_000),
        )
        result = streaming.run(_process(specs, mean_gap=25_000.0))
        assert 0 < result.jobs_generated
        assert result.jobs_completed == result.jobs_generated
        # Every admitted arrival happened inside the horizon; the jobs
        # themselves may complete after it.
        assert result.makespan_cycles >= 0

    def test_warmup_truncates_metrics_only(
        self, store, oracle, energy_table, specs
    ):
        cold = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS),
        ).run(_process(specs))
        warm = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS, warmup_cycles=3_000_000),
        ).run(_process(specs))
        # Engine arithmetic is untouched; only observation changes.
        assert warm.makespan_cycles == cold.makespan_cycles
        assert warm.total_energy_nj == cold.total_energy_nj
        assert warm.jobs_completed == cold.jobs_completed
        assert 0 < warm.observed_jobs < cold.observed_jobs
        assert cold.observed_jobs == cold.jobs_completed

    def test_quantile_snapshots_track_waiting(
        self, store, oracle, energy_table, specs
    ):
        result = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=N_JOBS),
        ).run(_process(specs, mean_gap=6_000.0))
        waiting = result.waiting
        assert waiting["count"] == result.observed_jobs
        assert (
            waiting["p50"] <= waiting["p90"] <= waiting["p99"]
            <= waiting["max"]
        )
        assert result.turnaround["min"] >= waiting["min"]

    def test_retained_statistics_match_recycled(
        self, store, oracle, energy_table, specs
    ):
        # A retained run feeds its histograms lazily from the job
        # records; a recycled run feeds them at every completion.
        recycled, retained = (
            _streaming(
                "proposed", store, oracle, energy_table,
                StreamConfig(
                    max_jobs=N_JOBS, warmup_cycles=3_000_000,
                    retain_jobs=retain,
                ),
            ).run(_process(specs))
            for retain in (False, True)
        )
        assert 0 < retained.observed_jobs < retained.jobs_completed
        assert retained.observed_jobs == recycled.observed_jobs
        assert retained.waiting == recycled.waiting
        assert retained.turnaround == recycled.turnaround


class TestBlockFeed:
    """Statistics fed in blocks agree with the exact sample's.

    The run spans more than two histogram blocks, with a warm-up, so
    block flushes, telemetry flushes and the warm-up filter all occur.
    """

    LONG_JOBS = 9_000
    WARMUP = 3_000_000

    def _run(self, specs, store, oracle, energy_table, *, retain,
             telemetry=None):
        return _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(
                max_jobs=self.LONG_JOBS, warmup_cycles=self.WARMUP,
                retain_jobs=retain,
            ),
            telemetry=telemetry,
        ).run(_process(specs))

    @pytest.fixture(scope="class")
    def retained(self, specs, store, oracle, energy_table):
        return self._run(specs, store, oracle, energy_table, retain=True)

    def _observed(self, jobs):
        """Jobs the statistics see, in completion order."""
        return [job for job in jobs if job.arrival_cycle >= self.WARMUP]

    def test_recycled_statistics_match_retained_and_oracle(
        self, retained, specs, store, oracle, energy_table
    ):
        recycled = self._run(
            specs, store, oracle, energy_table, retain=False
        )
        observed = self._observed(retained.sim_result.jobs)
        assert 2 * OBSERVE_BLOCK < len(observed) < self.LONG_JOBS
        assert recycled.observed_jobs == len(observed)

        waiting = SampleOracle(job.waiting_cycles for job in observed)
        turnaround = SampleOracle(
            job.completion_cycle - job.arrival_cycle for job in observed
        )
        assert recycled.waiting == retained.waiting
        assert recycled.turnaround == retained.turnaround
        assert waiting.mismatches(recycled.waiting) == []
        assert turnaround.mismatches(recycled.turnaround) == []

    def test_telemetry_samples_match_oracle(
        self, retained, specs, store, oracle, energy_table
    ):
        out = io.StringIO()
        self._run(
            specs, store, oracle, energy_table, retain=False,
            telemetry=Telemetry(out=out, sample_every=7),
        )
        lines = [json.loads(line) for line in out.getvalue().splitlines()]
        samples = [line for line in lines if line["kind"] == "sample"]
        assert len(samples) >= self.LONG_JOBS // 7

        jobs = retained.sim_result.jobs
        waiting = SampleOracle()
        fed = 0
        for sample in samples:
            # A sample reads the histogram after ``done`` completions.
            for job in self._observed(jobs[fed:sample["done"]]):
                waiting.observe(job.waiting_cycles)
            fed = sample["done"]
            assert waiting.mismatches(sample["waiting"]) == [], sample["i"]
        assert fed == self.LONG_JOBS


class TestHotLoop:
    def test_advance_keeps_hot_state_out_of_closure_cells(self):
        # Before CPython 3.12 a name captured by a nested function or a
        # comprehension becomes a closure cell for the whole frame, and
        # every access to it pays an extra indirection.  Nothing in
        # the loop may capture anything.
        cells = set(StreamingSimulation.advance.__code__.co_cellvars)
        assert not cells


class TestValidation:
    def test_config_requires_a_bound(self):
        with pytest.raises(ValueError, match="max_jobs"):
            StreamConfig()

    def test_config_rejects_bad_admission(self):
        with pytest.raises(ValueError, match="admission"):
            StreamConfig(max_jobs=10, admission="reject")

    def test_admission_policies_tuple(self):
        assert ADMISSION_POLICIES == ("drop", "shed", "block")

    @pytest.mark.parametrize("field, value", [
        ("max_jobs", 50.5),
        ("max_jobs", True),
        ("max_jobs", "50"),
        ("duration_cycles", 1e6),
        ("warmup_cycles", 0.0),
        ("warmup_cycles", False),
        ("warmup_cycles", None),
        ("queue_capacity", 2.5),
        ("queue_capacity", True),
    ])
    def test_config_requires_int_counts(self, field, value):
        kwargs = {"max_jobs": 10, field: value}
        with pytest.raises(ValueError, match=rf"{field}.*{value!r}"):
            StreamConfig(**kwargs)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_config_requires_bool_retain_jobs(self, value):
        with pytest.raises(ValueError, match=rf"retain_jobs.*{value!r}"):
            StreamConfig(max_jobs=10, retain_jobs=value)

    def test_engine_requires_config(
        self, store, oracle, energy_table, specs
    ):
        # Only a closed batch runs without one (it sets its own).
        unconfigured = _streaming("proposed", store, oracle, energy_table)
        with pytest.raises(ValueError, match="StreamConfig"):
            unconfigured.run(_process(specs))
        assert not unconfigured.started

    def test_batch_needs_a_core_without_config(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=20),
        )
        arrivals = poisson_arrivals(specs, count=20, seed=SEED)
        with pytest.raises(RuntimeError, match="without a StreamConfig"):
            streaming.run_batch(arrivals)
        assert not streaming.started
        batch = _streaming("proposed", store, oracle, energy_table)
        batch.run_batch(arrivals)
        with pytest.raises(RuntimeError, match="runs exactly once"):
            batch.run_batch(arrivals)
        with pytest.raises(RuntimeError, match="runs exactly once"):
            batch.run(_process(specs))

    def test_runs_exactly_once(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=20),
        )
        streaming.run(_process(specs))
        with pytest.raises(RuntimeError, match="exactly once"):
            streaming.run(_process(specs))

    def test_result_requires_finished_run(
        self, store, oracle, energy_table, specs
    ):
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=200),
        )
        streaming.start(_process(specs))
        with pytest.raises(RuntimeError, match="pending events"):
            streaming.result()

    def test_unknown_benchmark_raises(
        self, store, oracle, energy_table
    ):
        foreign = [eembc_benchmark("cacheb")]
        streaming = _streaming(
            "proposed", store, oracle, energy_table,
            StreamConfig(max_jobs=5),
        )
        with pytest.raises(KeyError, match="cacheb"):
            streaming.run(_process(foreign))


class TestStreamSpecFrontEnd:
    @pytest.mark.parametrize(
        "kwargs,engine",
        (
            ({"metrics": MetricsRegistry()}, "auto"),
            ({"validate": True}, "auto"),
            ({}, "reference"),
        ),
        ids=("metrics", "validate", "reference"),
    )
    def test_hooked_stream_spec_rejected_up_front(
        self, kwargs, engine, store, oracle
    ):
        spec = ReplicationSpec("proposed", 0, 10, 30_000, engine=engine,
                               stream=StreamLoad())
        with pytest.raises(ValueError, match="windowed metrics"):
            run_spec(spec, store, oracle, **kwargs)
