"""Property tests for the power axis.

Three contracts from the issue, Hypothesis-driven where the input space
matters and pinned where the scenario is the specification:

* token conservation — the pool's account agrees with the validation
  ledger's ``fsum``-exact token lists at ``2**-40`` relative tolerance,
  on randomly drawn cap/slack/DVFS/queue-shape combinations;
* a pinned congested sweep shows the energy / deadline trade-off:
  tokens consumed monotone non-increasing and the deadline-miss rate
  monotone non-decreasing as the cap tightens;
* DVFS/pool state survives ``state_dict``/``load_state`` exactly, and a
  powered streaming run killed at any point resumes bit-identically
  (byte-identical final snapshots, same settled token account).
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.config import configs_for_size
from repro.core.fastpath import build_fast
from repro.core.policies import make_policy
from repro.core.system import paper_system
from repro.power.budget import PowerConfig, TokenPool
from repro.power.dvfs import DEFAULT_DVFS_TABLE
from repro.sim.stream import (
    STREAM_SNAPSHOT_VERSION,
    StreamConfig,
    StreamingSimulation,
)
from repro.validate.ledger import REL_TOLERANCE
from repro.workloads.arrivals import PoissonProcess, QoSProcess
from repro.workloads.eembc import eembc_benchmark

from .conftest import SUITE_NAMES, make_simulation, qos_arrivals

#: The pinned congested scenario: EDF-ordered QoS stream dense enough
#: that the cap binds, caps descending through the region where the
#: trade-off is monotone (the loose end, where the first degraded
#: dispatches can *help* EDF by rebalancing load, is pinned separately
#: by the bit-identity suite's uncapped baseline).
PINNED_CAPS = (1_000_000.0, 500_000.0, 250_000.0, 125_000.0)


def _pinned_arrivals():
    return qos_arrivals(repeats=10, gap=12_000, seed=2)


def _run_pinned(store, oracle, energy_table, cap, *, engine="fast",
                validate=False):
    sim = make_simulation(
        "proposed", store, oracle, energy_table,
        discipline="edf", preemptive=False, engine=engine,
        validate=validate, power=PowerConfig(cap_nj=cap),
    )
    result = sim.run(_pinned_arrivals())
    return sim, result


class TestTokenConservation:
    @given(
        cap=st.sampled_from((200_000.0, 400_000.0, 800_000.0)),
        slack=st.sampled_from((0.0, 25.0)),
        dvfs=st.booleans(),
        shape=st.sampled_from(
            (("fifo", False), ("priority", False), ("priority", True),
             ("edf", False), ("edf", True))
        ),
        gap=st.integers(min_value=8_000, max_value=40_000),
        seed=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_pool_agrees_with_ledger(
        self, cap, slack, dvfs, shape, gap, seed, small_store, oracle,
        energy_table,
    ):
        discipline, preemptive = shape
        power = PowerConfig(
            cap_nj=cap,
            slack_pct=slack,
            dvfs=DEFAULT_DVFS_TABLE if dvfs else None,
        )
        sim = make_simulation(
            "proposed", small_store, oracle, energy_table,
            discipline=discipline, preemptive=preemptive,
            validate=True, power=power,
        )
        arrivals = qos_arrivals(repeats=5, gap=gap, seed=seed)
        # validate=True already raises on any ledger/invariant breach,
        # including the run-end token-conservation check.
        result = sim.run(arrivals)
        assert result.jobs_completed == len(arrivals)

        pool = sim.power_pool
        ledger = sim._validator.ledger
        # Every grant settled: nothing still held after the drain.
        assert pool.idle()
        assert pool.grants == len(ledger.token_grants)
        assert pool.refunds == len(ledger.token_refunds)
        # The pool's running gauges agree with the ledger's exact fsum
        # account at the validation tolerance.
        net = ledger.token_granted_nj - ledger.token_refunded_nj
        assert math.isclose(
            pool.consumed_nj, net, rel_tol=REL_TOLERANCE, abs_tol=1e-9
        )
        assert pool.grants >= result.jobs_completed


class TestPinnedMonotoneFrontier:
    @pytest.fixture(scope="class")
    def sweep(self, small_store, oracle, energy_table):
        rows = []
        for cap in PINNED_CAPS:
            sim, result = _run_pinned(
                small_store, oracle, energy_table, cap
            )
            rows.append(
                (cap, sim.power_pool.consumed_nj,
                 result.deadline_miss_rate, sim.power_pool.throttled)
            )
        return rows

    def test_energy_monotone_non_increasing(self, sweep):
        consumed = [row[1] for row in sweep]
        assert consumed == sorted(consumed, reverse=True), sweep

    def test_miss_rate_monotone_non_decreasing(self, sweep):
        misses = [row[2] for row in sweep]
        assert misses == sorted(misses), sweep
        # The pinned caps genuinely bind: the extremes differ.
        assert misses[-1] > misses[0]

    def test_caps_bind(self, sweep):
        assert all(row[3] > 0 for row in sweep), sweep

    def test_ledger_validates_sweep_extremes(self, small_store, oracle,
                                             energy_table):
        """The acceptance criterion: the pinned sweep's conservation is
        ledger-checked, not just pool-reported (reference engine)."""
        for cap in (PINNED_CAPS[0], PINNED_CAPS[-1]):
            sim, result = _run_pinned(
                small_store, oracle, energy_table, cap,
                engine="reference", validate=True,
            )
            pool = sim.power_pool
            ledger = sim._validator.ledger
            assert pool.idle()
            net = ledger.token_granted_nj - ledger.token_refunded_nj
            assert math.isclose(
                pool.consumed_nj, net,
                rel_tol=REL_TOLERANCE, abs_tol=1e-9,
            )

    @pytest.mark.parametrize("cap", (PINNED_CAPS[0], PINNED_CAPS[-1]))
    def test_reference_and_fast_agree_powered(self, cap, small_store,
                                              oracle, energy_table):
        """Engine equivalence holds with the power axis *enabled* too."""
        ref_sim, ref = _run_pinned(
            small_store, oracle, energy_table, cap, engine="reference"
        )
        fast_sim, fast = _run_pinned(
            small_store, oracle, energy_table, cap, engine="fast"
        )
        assert ref == fast
        assert (
            fast_sim.power_pool.state_dict()
            == ref_sim.power_pool.state_dict()
        )

    @pytest.mark.parametrize("discipline", ("priority", "edf"))
    def test_reference_and_fast_agree_dvfs_cluster_preemptive(
        self, discipline, small_store, oracle, energy_table
    ):
        """DVFS, a cluster cap and preemption: both engines walk the
        same memoised ladders, and price preempted remainders live."""
        runs = {}
        for engine in ("reference", "fast"):
            sim = make_simulation(
                "proposed", small_store, oracle, energy_table,
                discipline=discipline, preemptive=True, engine=engine,
                power=LADDER_POWER,
            )
            runs[engine] = (sim, sim.run(_pinned_arrivals()))
        (ref_sim, ref), (fast_sim, fast) = runs["reference"], runs["fast"]
        assert ref == fast
        state = ref_sim.power_pool.state_dict()
        assert fast_sim.power_pool.state_dict() == state
        assert state["degraded"] > 0 and state["refunds"] > 0

        # One memo entry per (benchmark, core size, pin) key at most,
        # however many preemptions there were.
        memo = ref_sim._power_ladders
        sizes = {spec.cache_size_kb for spec in paper_system().cores}
        keys_per_bench = sum(1 + len(configs_for_size(s)) for s in sizes)
        assert 0 < len(memo) <= len(SUITE_NAMES) * keys_per_bench
        for benchmark, size, pin in memo:
            assert pin is None or pin.size_kb == size

        # The core memoised the same ladders, on interned ids.
        engine = build_fast(fast_sim)
        assert engine.run_batch(_pinned_arrivals()) == fast
        fast_memo = {
            (engine.bench_names[b], size,
             None if pin is None else engine.cfg_objs[pin]):
            [(price, work, rank, engine.cfg_objs[cid], point)
             for price, work, rank, (cid, point) in ladder]
            for (b, size, pin), (ladder, _) in engine._power_ladders.items()
        }
        assert fast_memo == {
            key: [(price, work, rank, config, point)
                  for price, work, rank, (config, point) in ladder]
            for key, (ladder, _) in memo.items()
        }

    @pytest.mark.parametrize("discipline", ("fifo", "edf"))
    def test_reference_and_fast_agree_congested_energy_centric(
        self, discipline, small_store, oracle, energy_table
    ):
        """A backed-up energy-centric queue under a cluster cap and
        DVFS: a dispatch pass that throttles a job must not leave the
        core treating the queue as settled."""
        arrivals = qos_arrivals(repeats=30, gap=5_000, seed=2)
        runs = {}
        for engine in ("reference", "fast"):
            sim = make_simulation(
                "energy_centric", small_store, oracle, energy_table,
                discipline=discipline, preemptive=False, engine=engine,
                power=LADDER_POWER,
            )
            runs[engine] = (sim, sim.run(arrivals))
        (ref_sim, ref), (fast_sim, fast) = runs["reference"], runs["fast"]
        assert ref == fast
        state = ref_sim.power_pool.state_dict()
        assert fast_sim.power_pool.state_dict() == state
        assert state["throttled"] > 0
        assert ref_sim.queue.max_length >= 20


#: DVFS plus a 4 KB cluster cap: under the pinned stream, both
#: preemptive disciplines degrade through the ladder.
LADDER_POWER = PowerConfig(
    cap_nj=300_000.0,
    cluster_caps_nj=((4, 150_000.0),),
    slack_pct=25.0,
    dvfs=DEFAULT_DVFS_TABLE,
)

STREAM_POWER = PowerConfig(
    cap_nj=300_000.0,
    cluster_caps_nj=((4, 150_000.0),),
    slack_pct=25.0,
    dvfs=DEFAULT_DVFS_TABLE,
)

N_JOBS = 120


def _stream_engine(store, oracle, energy_table, power=STREAM_POWER):
    policy = make_policy("proposed")
    return StreamingSimulation(
        paper_system(),
        policy,
        store,
        predictor=oracle,
        energy_table=energy_table,
        config=StreamConfig(max_jobs=N_JOBS),
        discipline="priority",
        preemptive=True,
        power=power,
    )


def _stream_process():
    specs = [eembc_benchmark(name) for name in SUITE_NAMES]
    return QoSProcess(
        PoissonProcess(specs, mean_interarrival_cycles=10_000.0, seed=3),
        service_estimate=lambda name: 400_000,
        priority_levels=4,
        seed=3,
    )


class TestPoweredCheckpointResume:
    @given(kill_at=st.integers(min_value=1, max_value=N_JOBS - 1))
    @settings(max_examples=10, deadline=None)
    def test_kill_resume_byte_identical(self, kill_at, small_store,
                                        oracle, energy_table):
        straight = _stream_engine(small_store, oracle, energy_table)
        straight.start(_stream_process())
        while straight.advance():
            pass
        baseline = straight.result()
        assert baseline.power is not None
        assert baseline.power["grants"] >= N_JOBS

        killed = _stream_engine(small_store, oracle, energy_table)
        killed.start(_stream_process())
        killed.advance(max_completions=kill_at)
        snapshot = json.loads(json.dumps(killed.snapshot()))
        assert snapshot["version"] == STREAM_SNAPSHOT_VERSION
        assert snapshot["engine"]["power"] is not None

        resumed = _stream_engine(small_store, oracle, energy_table)
        result = resumed.resume(snapshot, _stream_process())
        assert result == baseline
        assert result.power == baseline.power
        assert json.dumps(
            resumed.snapshot(), sort_keys=True
        ) == json.dumps(straight.snapshot(), sort_keys=True)

    def test_pool_must_hold_the_running_jobs(
        self, small_store, oracle, energy_table
    ):
        donor = _stream_engine(small_store, oracle, energy_table)
        donor.start(_stream_process())
        donor.advance(max_completions=10)
        snapshot = json.loads(json.dumps(donor.snapshot()))
        held = snapshot["engine"]["power"]["held"]
        assert held
        del held[0]
        engine = _stream_engine(small_store, oracle, energy_table)
        with pytest.raises(ValueError, match="must list the running jobs"):
            engine.restore(snapshot, _stream_process())
        assert not engine.started

    def test_power_fingerprint_mismatch_fails_loudly(
        self, small_store, oracle, energy_table
    ):
        donor = _stream_engine(small_store, oracle, energy_table)
        donor.start(_stream_process())
        donor.advance(max_completions=10)
        snapshot = donor.snapshot()
        unpowered = _stream_engine(
            small_store, oracle, energy_table, power=None
        )
        with pytest.raises(ValueError, match="power"):
            unpowered.restore(snapshot, _stream_process())
