"""Oracle equivalence of the struct-of-arrays fast engine.

The fast engine (the simulation core's closed-batch route,
:meth:`repro.sim.stream.StreamingSimulation.run_batch`) must be
*bit-identical* to the reference event loop — same
:class:`SimulationResult` down to every float, and the same post-run
object state (cores, profiling table, tuning sessions, accumulators)
after the glue layer's write-back.  The
reference loop is the oracle: these tests run both engines on the same
inputs and compare, across the full policy x discipline x preemption
grid, under preloaded profiles, and on Hypothesis-generated streams.

Engine *selection* is pinned here too: ``auto`` must pick the fast
engine exactly when tracing, metrics, validation and fault injection
are all off, and an explicit ``engine="fast"`` with any hook attached
must be rejected up front.  A plug-in policy (any class outside
:data:`~repro.sim.stream.CORE_POLICIES`, even a subclass of a paper
policy) must run on the reference loop under ``auto``, and the core
must refuse it rather than run a built-in policy instead.
"""

import dataclasses
import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.config import BASE_CONFIG
from repro.campaign import run_campaign
from repro.characterization.store import CharacterizationStore
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.simulation import SchedulerSimulation
from repro.core.system import paper_system, scaled_system
from repro.energy.model import EnergyBreakdown
from repro.obs import ListRecorder, MetricsRegistry
from repro.power.budget import PowerConfig
from repro.power.dvfs import DEFAULT_DVFS_TABLE
from repro.sim import stream as stream_module
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads.arrivals import JobArrival

from tests.scenarios import (
    CUSTOM_POLICIES,
    SUITE_NAMES,
    arrivals_for,
    build_energy_table,
    build_oracle,
    build_small_store,
    make_simulation,
    qos_arrivals,
)

DISCIPLINES = ("fifo", "priority", "edf")

#: The golden grid: every (policy, discipline, preemption) combination
#: the simulation accepts (preemption needs an urgency order, so
#: fifo+preemptive is excluded — the constructor rejects it).
GRID = [
    (policy, discipline, preemptive)
    for policy, discipline, preemptive in itertools.product(
        POLICY_NAMES, DISCIPLINES, (False, True)
    )
    if not (preemptive and discipline == "fifo")
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
def revisit_store(store):
    """``store`` with each benchmark's 8 KB energies reshaped to fall
    with associativity and line size, from half its cheapest energy at
    the base configuration.  Every benchmark's best size is then 8 KB,
    and every 8 KB tuning sweep ends on the base configuration, which
    the benchmark's profiling run has already executed, so that sweep
    step adds no execution record."""
    reshaped = {}
    for name in store.names():
        char = store.get(name)
        cheapest = min(
            (result.estimate.energy for result in char.results.values()),
            key=lambda energy: energy.total_nj,
        )
        base = EnergyBreakdown(
            static_nj=cheapest.static_nj / 2,
            dynamic_nj=cheapest.dynamic_nj / 2,
        )
        results = dict(char.results)
        for config, result in char.results.items():
            if config.size_kb == BASE_CONFIG.size_kb:
                weight = 2.0 - config.assoc / 8 - config.line_b / 128
                energy = EnergyBreakdown(
                    static_nj=base.static_nj * weight,
                    dynamic_nj=base.dynamic_nj * weight,
                )
                results[config] = dataclasses.replace(
                    result,
                    estimate=dataclasses.replace(
                        result.estimate, energy=energy
                    ),
                )
        reshaped[name] = dataclasses.replace(char, results=results)
    return CharacterizationStore(reshaped)


@pytest.fixture(scope="module")
def revisit_oracle(revisit_store):
    return build_oracle(revisit_store)


def _pair(policy, store, oracle, energy_table, **kwargs):
    """The same simulation configured for each engine."""
    return tuple(
        make_simulation(
            policy, store, predictor=oracle, energy_table=energy_table,
            engine=engine, **kwargs,
        )
        for engine in ("reference", "fast")
    )


def _assert_state_parity(ref, fast):
    """Post-run object state must match what the reference leaves."""
    assert fast.engine.now == ref.engine.now
    assert fast.engine.processed == ref.engine.processed
    assert fast.engine._sequence == ref.engine._sequence
    assert fast.queue.enqueued_total == ref.queue.enqueued_total
    assert fast.queue.max_length == ref.queue.max_length
    for rc, fc in zip(ref.cores, fast.cores):
        assert fc.current_job is None and rc.current_job is None
        assert fc.busy_cycles == rc.busy_cycles
        assert fc.executions == rc.executions
        assert fc.tuner.current == rc.tuner.current
        assert fc.tuner.reconfigurations == rc.tuner.reconfigurations
        assert fc.tuner.total_energy_nj == rc.tuner.total_energy_nj
        assert fc._residency_closed == rc._residency_closed
        assert fc._residency_start == rc._residency_start
        assert fc._residency_busy == rc._residency_busy
    assert fast.table.benchmarks() == ref.table.benchmarks()
    for name in ref.table.benchmarks():
        rp, fp = ref.table.profile(name), fast.table.profile(name)
        assert fp.predicted_size_kb == rp.predicted_size_kb
        assert fp.tuned_sizes == rp.tuned_sizes
        assert set(fp.executions) == set(rp.executions)
        for config, record in rp.executions.items():
            other = fp.executions[config]
            assert other.total_energy_nj == record.total_energy_nj
            assert other.total_cycles == record.total_cycles
    assert (
        set(fast.heuristic._sessions) == set(ref.heuristic._sessions)
    )
    for key, rs in ref.heuristic._sessions.items():
        fs = fast.heuristic._sessions[key]
        assert fs.done == rs.done
        assert fs.best_config == rs.best_config
        assert fs.explored == rs.explored


class TestGoldenGrid:
    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    def test_bit_identical_results_and_state(
        self, policy, discipline, preemptive, store, oracle, energy_table
    ):
        arrivals = (
            qos_arrivals(repeats=8, gap=30_000, seed=2)
            if discipline != "fifo"
            else arrivals_for(SUITE_NAMES * 8, gap=30_000)
        )
        # The same jobs out of arrival order, in equal-time pairs: the
        # fast front end sorts the batch stably, the reference heap
        # breaks time ties by input order.
        shuffled = [
            a._replace(arrival_cycle=a.arrival_cycle - a.arrival_cycle % 60_000)
            for a in arrivals
        ]
        random.Random(3).shuffle(shuffled)
        for batch in (arrivals, shuffled):
            ref, fast = _pair(
                policy, store, oracle, energy_table,
                discipline=discipline, preemptive=preemptive,
            )
            ref_result = ref.run(batch)
            fast_result = fast.run(batch)
            assert ref_result == fast_result
            _assert_state_parity(ref, fast)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_preloaded_profiles(self, policy, store, oracle, energy_table):
        arrivals = arrivals_for(SUITE_NAMES * 6, gap=25_000)
        ref, fast = _pair(
            policy, store, oracle, energy_table, preload_profiles=True,
        )
        assert ref.run(arrivals) == fast.run(arrivals)
        _assert_state_parity(ref, fast)

    def test_congested_stream_stalls_match(self, store, oracle,
                                           energy_table):
        # Dense arrivals exercise the stall/non-best decision paths.
        arrivals = arrivals_for(SUITE_NAMES * 30, gap=5_000)
        ref, fast = _pair("proposed", store, oracle, energy_table)
        ref_result = ref.run(arrivals)
        fast_result = fast.run(arrivals)
        assert ref_result == fast_result
        assert ref_result.stall_decisions > 0  # the path was exercised

    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    def test_congested_scans_match(
        self, policy, discipline, preemptive, store, oracle, energy_table
    ):
        # A backed-up queue: most dispatch passes place nothing, so the
        # core's per-benchmark ready lanes (one visit per lane head) and
        # its settled-queue arrival rounds carry the run.
        arrivals = (
            qos_arrivals(repeats=30, gap=5_000)
            if discipline != "fifo"
            else arrivals_for(SUITE_NAMES * 30, gap=5_000)
        )
        ref, fast = _pair(
            policy, store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
        )
        assert ref.run(arrivals) == fast.run(arrivals)
        _assert_state_parity(ref, fast)
        assert ref.queue.max_length >= 20


#: A cap that throttles while the queue is backed up; the DVFS ladder
#: and slack let some throttled dispatches degrade instead.
LANE_CAP = PowerConfig(
    cap_nj=300_000.0, slack_pct=25.0, dvfs=DEFAULT_DVFS_TABLE,
)


def _lane_paths(events):
    """How often a reference trace takes the two dispatch paths that
    the core's per-benchmark lanes must reproduce job by job.

    Within one dispatch pass (the events of one cycle up to a
    dispatch's ``energy_accrued``):

    * ``throttled_then_same``: a job throttled by the power gate
      (``wait``) and a later job of the same benchmark placed;
    * ``stalled_behind``: two or more stall decisions for one benchmark
      and then a job of another benchmark placed.
    """
    paths = Counter()
    cycle = None
    pass_events = []
    for event in events:
        if getattr(event, "cycle", None) != cycle:
            cycle = getattr(event, "cycle", None)
            pass_events = []
        if event.kind == "power_throttled" and event.reason == "wait":
            pass_events.append(("throttled", event.benchmark, event.job_id))
        elif event.kind == "stall_decision":
            pass_events.append(("stalled", event.benchmark, event.job_id))
        elif event.kind == "energy_accrued":
            if any(
                kind == "throttled" and benchmark == event.benchmark
                and job_id != event.job_id
                for kind, benchmark, job_id in pass_events
            ):
                paths["throttled_then_same"] += 1
            stalls = Counter(
                benchmark for kind, benchmark, _ in pass_events
                if kind == "stalled"
            )
            if any(
                count >= 2 and benchmark != event.benchmark
                for benchmark, count in stalls.items()
            ):
                paths["stalled_behind"] += 1
            pass_events = []
    return paths


class TestCongestedLanes:
    """The core's dispatch pass visits one job per benchmark: a lane's
    head stands for the benchmark, a throttled head yields to the
    lane's next job, and proposed's stall counter adds the jobs the
    pass skipped.  Every one of those shortcuts must be invisible."""

    @pytest.mark.parametrize("capped", (False, True))
    @pytest.mark.parametrize("discipline,preemptive", (
        ("fifo", False), ("priority", False), ("priority", True),
        ("edf", False),
    ))
    @pytest.mark.parametrize("policy", ("energy_centric", "proposed"))
    def test_congested_lanes_match_reference(
        self, policy, discipline, preemptive, capped, store, oracle,
        energy_table,
    ):
        arrivals = (
            qos_arrivals(repeats=30, gap=5_000)
            if discipline != "fifo"
            else arrivals_for(SUITE_NAMES * 30, gap=5_000)
        )
        power = LANE_CAP if capped else None
        recorder = ListRecorder()
        ref = make_simulation(
            policy, store, predictor=oracle, energy_table=energy_table,
            engine="reference", recorder=recorder, discipline=discipline,
            preemptive=preemptive, power=power,
        )
        fast = make_simulation(
            policy, store, predictor=oracle, energy_table=energy_table,
            engine="fast", discipline=discipline, preemptive=preemptive,
            power=power,
        )
        ref_result = ref.run(arrivals)
        assert fast.run(arrivals) == ref_result
        _assert_state_parity(ref, fast)
        assert ref.queue.max_length >= 20
        paths = _lane_paths(recorder.events)
        if capped:
            assert ref.power_pool.throttled > 0
            assert fast.power_pool.throttled == ref.power_pool.throttled
            assert fast.power_pool.degraded == ref.power_pool.degraded
            if preemptive:
                # A preempted job's remaining work is cheaper, so it
                # can be placed right after its lane's head throttled.
                assert paths["throttled_then_same"] > 0
        if policy == "proposed":
            assert ref_result.stall_decisions > 0
            assert paths["stalled_behind"] > 0


def _jobs(max_cycle):
    """Random ``(benchmark, arrival cycle, priority, has deadline)``
    rows with arrival cycles in ``0..max_cycle``, over a random subset
    of the suite: with one or two benchmarks, tuning sweeps finish."""
    return st.lists(
        st.sampled_from(SUITE_NAMES), min_size=1, unique=True,
    ).flatmap(lambda names: st.lists(
        st.tuples(
            st.sampled_from(names),
            st.integers(0, max_cycle),
            st.integers(0, 3),
            st.booleans(),
        ),
        min_size=1,
        max_size=25,
    ))


#: Systems of 2-8 cores with repeated sizes, so the core's idle-core
#: mask is wider than the paper system's 4 bits.  ``scaled_system``
#: needs one core of the base configuration's 8 KB to host profiling.
_SYSTEMS = st.lists(
    st.sampled_from((2, 4, 8)), min_size=1, max_size=7,
).flatmap(lambda sizes: st.permutations(sizes + [8])).map(scaled_system)

_AXES = dict(
    policy=st.sampled_from(POLICY_NAMES),
    discipline=st.sampled_from(DISCIPLINES),
    preemptive=st.booleans(),
    system=_SYSTEMS,
    revisit=st.booleans(),
)


class TestPropertyEquivalence:
    """Random streams on random systems, profiles not preloaded: jobs
    queue while profiling, prediction and tuning sessions finish, and
    preemption frees cores, which is when the core's placement plans
    must be dropped or re-keyed.  ``revisit`` runs on
    :func:`revisit_store`, whose sweeps end on an executed config."""

    @given(raw=_jobs(2_000_000), **_AXES)
    # One benchmark's whole 8 KB sweep, whose last step records a
    # config its profiling run already executed.
    @example(
        raw=[("pntrch", cycle, 0, False)
             for cycle in range(0, 2_400_000, 300_000)],
        policy="proposed", discipline="fifo", preemptive=False,
        system=paper_system(), revisit=True,
    )
    @settings(deadline=None)
    def test_random_streams_bit_identical(
        self, raw, policy, discipline, preemptive, system, revisit, store,
        oracle, revisit_store, revisit_oracle, energy_table,
    ):
        if revisit:
            store, oracle = revisit_store, revisit_oracle
        self._check(raw, policy, discipline, preemptive, system, store,
                    oracle, energy_table)

    @given(raw=_jobs(200_000), **_AXES)  # dense: queues form
    @settings(deadline=None)
    def test_dense_random_streams_bit_identical(
        self, raw, policy, discipline, preemptive, system, revisit, store,
        oracle, revisit_store, revisit_oracle, energy_table,
    ):
        if revisit:
            store, oracle = revisit_store, revisit_oracle
        self._check(raw, policy, discipline, preemptive, system, store,
                    oracle, energy_table)

    @pytest.mark.parametrize(
        "policy", ("optimal", "energy_centric", "proposed")
    )
    def test_wide_system_plan_tables_bounded(
        self, policy, store, oracle, energy_table, monkeypatch,
    ):
        # Sixteen cores give up to 2**16 idle-core sets, more than a
        # benchmark's plan table keeps.  A table at its cap is emptied
        # before the next plan goes in, so a small cap must cost more
        # plan misses and still place every job as the reference does.
        system = scaled_system((2, 4, 8, 8) * 4)
        rng = random.Random(16)
        raw = [
            (rng.choice(SUITE_NAMES), rng.randrange(3_000_000),
             rng.randrange(4), False)
            for _ in range(300)
        ]
        misses = []
        plan = StreamingSimulation._placement_plan

        def counted(sim, b, idle_mask):
            misses[-1] += 1
            return plan(sim, b, idle_mask)

        monkeypatch.setattr(StreamingSimulation, "_placement_plan", counted)
        for cap in (stream_module._PLAN_TABLE_CAP, 2):
            monkeypatch.setattr(stream_module, "_PLAN_TABLE_CAP", cap)
            misses.append(0)
            self._check(raw, policy, "priority", True, system, store,
                        oracle, energy_table)
        assert misses[1] > misses[0] > 0

    @staticmethod
    def _check(raw, policy, discipline, preemptive, system, store, oracle,
               energy_table):
        if preemptive and discipline == "fifo":
            discipline = "priority"
        arrivals = [
            JobArrival(
                job_id=i, benchmark=name, arrival_cycle=cycle,
                priority=priority,
                deadline_cycle=cycle + 5_000_000 if has_deadline else None,
            )
            for i, (name, cycle, priority, has_deadline) in enumerate(
                sorted(raw, key=lambda r: r[1])
            )
        ]
        ref, fast = _pair(
            policy, store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive, system=system,
        )
        assert ref.run(arrivals) == fast.run(arrivals)
        _assert_state_parity(ref, fast)


class TestEngineSelection:
    def test_auto_picks_fast_when_clean(self, store, oracle):
        sim = make_simulation("proposed", store, predictor=oracle)
        assert sim.engine_mode == "auto"
        assert sim._resolve_engine() == "fast"

    @pytest.mark.parametrize("hook", ["recorder", "metrics", "validate"])
    def test_auto_falls_back_with_hooks(self, hook, store, oracle):
        kwargs = {
            "recorder": {"recorder": ListRecorder()},
            "metrics": {"metrics": MetricsRegistry()},
            "validate": {"validate": True},
        }[hook]
        sim = make_simulation("proposed", store, predictor=oracle,
                              **kwargs)
        assert sim._resolve_engine() == "reference"

    def test_auto_falls_back_with_faults(self, store, oracle):
        from repro.faults import FaultPlan

        sim = make_simulation("proposed", store, predictor=oracle,
                              faults=FaultPlan(name="empty"))
        assert sim._resolve_engine() == "reference"

    def test_explicit_fast_with_hooks_rejected(self, store, oracle):
        with pytest.raises(ValueError, match="incompatible"):
            make_simulation("proposed", store, predictor=oracle,
                            validate=True, engine="fast")

    def test_unknown_engine_rejected(self, store, oracle):
        with pytest.raises(ValueError, match="unknown engine"):
            make_simulation("proposed", store, predictor=oracle,
                            engine="warp")

    def test_explicit_reference_respected(self, store, oracle):
        sim = make_simulation("proposed", store, predictor=oracle,
                              engine="reference")
        assert sim._resolve_engine() == "reference"

    def test_fast_engine_runs_once(self, store, oracle, energy_table):
        from repro.core.fastpath import build_fast

        fast = build_fast(make_simulation("proposed", store,
                                          predictor=oracle,
                                          energy_table=energy_table,
                                          engine="fast"))
        assert isinstance(fast, StreamingSimulation)
        arrivals = arrivals_for(SUITE_NAMES, gap=50_000)
        fast.run_batch(arrivals)
        with pytest.raises(RuntimeError, match="runs exactly once"):
            fast.run_batch(arrivals)


class TestCustomPolicies:
    """Plug-in policies: the reference loop, or a refusal — never a
    built-in policy's result under the plug-in's name."""

    def _sim(self, cls, store, oracle, energy_table, engine="auto"):
        return SchedulerSimulation(
            paper_system(), cls(), store, predictor=oracle,
            energy_table=energy_table, engine=engine,
        )

    @pytest.mark.parametrize("cls", CUSTOM_POLICIES,
                             ids=lambda cls: cls.__name__)
    def test_auto_runs_the_reference_loop(self, cls, store, oracle,
                                          energy_table):
        arrivals = arrivals_for(SUITE_NAMES * 6, gap=30_000)
        auto = self._sim(cls, store, oracle, energy_table)
        assert auto._resolve_engine() == "reference"
        reference = self._sim(cls, store, oracle, energy_table,
                              engine="reference")
        assert auto.run(arrivals) == reference.run(arrivals)

    def test_subclass_does_not_run_its_parent(self, store, oracle,
                                              energy_table):
        # The core's proposed branch would ignore the override.
        arrivals = arrivals_for(SUITE_NAMES * 6, gap=30_000)
        plugin = self._sim(CUSTOM_POLICIES[1], store, oracle,
                           energy_table).run(arrivals)
        builtin = make_simulation(
            "proposed", store, predictor=oracle, energy_table=energy_table,
        ).run(arrivals)
        assert plugin.total_energy_nj != builtin.total_energy_nj

    @pytest.mark.parametrize("cls", CUSTOM_POLICIES,
                             ids=lambda cls: cls.__name__)
    def test_core_front_ends_refuse(self, cls, store, oracle,
                                    energy_table):
        name = cls.__name__
        with pytest.raises(ValueError, match=name):
            self._sim(cls, store, oracle, energy_table, engine="fast")
        # The core itself, for a stream and for a closed batch.
        for config in (StreamConfig(max_jobs=8), None):
            with pytest.raises(ValueError, match=name):
                StreamingSimulation(
                    paper_system(), cls(), store, predictor=oracle,
                    energy_table=energy_table, config=config,
                )


class TestCampaignEngine:
    @pytest.fixture(scope="class")
    def full_store(self):
        # The campaign generates arrivals over the full EEMBC suite, so
        # it needs the full-suite characterisation.
        from repro.experiment import default_store

        return default_store(cache_path=None)

    def test_campaign_fast_matches_reference(self, full_store):
        oracle = build_oracle(full_store)
        results = {}
        for engine in ("reference", "fast"):
            results[engine] = run_campaign(
                full_store, oracle,
                policies=("proposed",),
                seeds=(0, 1),
                loads=[(40, 50_000)],
                engine=engine,
            )
        ref, fast = results["reference"], results["fast"]
        assert len(ref.replications) == len(fast.replications)
        for a, b in zip(ref.replications, fast.replications):
            assert a.jobs_completed == b.jobs_completed
            assert a.makespan_cycles == b.makespan_cycles
            assert a.total_energy_nj == b.total_energy_nj
            assert a.idle_energy_nj == b.idle_energy_nj
            assert a.dynamic_energy_nj == b.dynamic_energy_nj
            assert a.mean_waiting_cycles == b.mean_waiting_cycles
            assert a.non_best_decisions == b.non_best_decisions

    def test_congested_cli_campaign_fast_matches_reference(self, tmp_path):
        # energy_centric under congestion stalls for its predicted size
        # on every pass; both engines must still write the same rows.
        from repro.cli import main

        runs = {}
        for engine in ("fast", "reference"):
            path = tmp_path / f"congested_{engine}.json"
            argv = (
                "campaign --policies energy_centric optimal --seeds 0 1 "
                "--jobs 400 --interarrival 20000 --predictor oracle "
                f"--workers 1 --engine {engine} --json {path}"
            ).split()
            assert main(argv) == 0
            runs[engine] = json.loads(path.read_text())
            for run in runs[engine]:
                run["spec"].pop("engine")
        assert len(runs["fast"]) == 4
        assert runs["fast"] == runs["reference"]

    def test_campaign_fast_conflicts_rejected(self, store, oracle):
        # The conflict is raised before any simulation is built, so the
        # small store is fine here.
        with pytest.raises(ValueError, match="incompatible"):
            run_campaign(
                store, oracle,
                policies=("proposed",),
                seeds=(0,),
                loads=[(10, 50_000)],
                engine="fast",
                validate=True,
            )
