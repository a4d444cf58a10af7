"""Golden-grid bit-identity of disabled power configurations.

The power axis's foundational contract: a configuration that enables
nothing — ``cap=inf``, no cluster caps, no DVFS table (slack alone
changes nothing) — normalises to ``None`` and every engine keeps its
exact pre-power code path.  These tests run the policy × discipline ×
preemption grid twice per engine, once without the ``power`` argument
and once with a disabled configuration, and require byte-identical
results, traces and post-run object state on the reference, fast and
streaming engines (the fast-equivalence suite's pattern).
"""

import itertools
import json

import pytest

from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.system import base_system, paper_system
from repro.obs import ListRecorder
from repro.power.budget import PowerConfig
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads.arrivals import PoissonProcess, QoSProcess
from repro.workloads.eembc import eembc_benchmark

from tests.scenarios import run_state

from .conftest import (
    SUITE_NAMES,
    arrivals_for,
    make_simulation,
    qos_arrivals,
)

#: The richest configuration that still enables nothing: an infinite
#: cap and a nonzero slack percentage (slack only matters once a cap
#: forces degraded dispatches).
DISABLED = PowerConfig(cap_nj=float("inf"), slack_pct=30.0)

GRID = [
    (policy, discipline, preemptive)
    for policy, discipline, preemptive in itertools.product(
        POLICY_NAMES, ("fifo", "priority", "edf"), (False, True)
    )
    if not (preemptive and discipline == "fifo")
]

STREAM_GRID = [
    ("base", "fifo", False),
    ("proposed", "fifo", False),
    ("proposed", "priority", True),
    ("optimal", "edf", False),
    ("energy_centric", "priority", True),
]


def _arrivals(discipline):
    if discipline == "fifo":
        return arrivals_for(SUITE_NAMES * 6, gap=30_000)
    return qos_arrivals(repeats=6, gap=30_000, seed=2)


def _assert_state_parity(left, right):
    """Post-run object state must be indistinguishable."""
    assert right.engine.now == left.engine.now
    assert right.engine.processed == left.engine.processed
    assert right.queue.enqueued_total == left.queue.enqueued_total
    assert right.queue.max_length == left.queue.max_length
    for lc, rc in zip(left.cores, right.cores):
        assert rc.busy_cycles == lc.busy_cycles
        assert rc.executions == lc.executions
        assert rc.dvfs == lc.dvfs
        assert rc.tuner.current == lc.tuner.current
        assert rc.tuner.reconfigurations == lc.tuner.reconfigurations
        assert rc.tuner.total_energy_nj == lc.tuner.total_energy_nj
    assert right.table.benchmarks() == left.table.benchmarks()
    for name in left.table.benchmarks():
        lp, rp = left.table.profile(name), right.table.profile(name)
        assert rp.predicted_size_kb == lp.predicted_size_kb
        assert rp.tuned_sizes == lp.tuned_sizes
        assert set(rp.executions) == set(lp.executions)
        for config, record in lp.executions.items():
            other = rp.executions[config]
            assert other.total_energy_nj == record.total_energy_nj
            assert other.total_cycles == record.total_cycles


class TestDisabledPowerGoldenGrid:
    @pytest.mark.parametrize("engine", ("reference", "fast"))
    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    def test_bit_identical_to_powerless_run(
        self, policy, discipline, preemptive, engine, small_store,
        oracle, energy_table,
    ):
        arrivals = _arrivals(discipline)
        kwargs = dict(
            discipline=discipline, preemptive=preemptive, engine=engine,
        )
        base = make_simulation(
            policy, small_store, oracle, energy_table, **kwargs
        )
        powered = make_simulation(
            policy, small_store, oracle, energy_table,
            power=DISABLED, **kwargs
        )
        # Normalisation strips the disabled configuration entirely.
        assert powered.power is None
        assert powered.power_pool is None
        assert base.run(arrivals) == powered.run(arrivals)
        _assert_state_parity(base, powered)

    def test_traces_byte_identical(self, small_store, oracle,
                                   energy_table):
        """The recorded event stream must not change at all — no
        ``TokenGrant``/``PowerThrottled`` events from a disabled axis."""
        arrivals = qos_arrivals(repeats=6, gap=30_000, seed=2)
        events = {}
        for key, power in (("base", None), ("disabled", DISABLED)):
            recorder = ListRecorder()
            sim = make_simulation(
                "proposed", small_store, oracle, energy_table,
                discipline="priority", preemptive=True,
                recorder=recorder, power=power,
            )
            sim.run(arrivals)
            events[key] = [
                json.dumps(e.to_dict(), sort_keys=True)
                for e in recorder.events
            ]
        assert events["base"] == events["disabled"]

    def test_all_disabled_shapes_normalize_away(self, small_store,
                                                oracle):
        for power in (
            PowerConfig(),
            PowerConfig(cap_nj=float("inf")),
            PowerConfig(slack_pct=50.0),
        ):
            sim = make_simulation("proposed", small_store, oracle,
                                  power=power)
            assert sim.power is None and sim.power_pool is None


class TestDisabledPowerStreaming:
    def _engine(self, policy_name, discipline, preemptive, store,
                oracle, energy_table, power):
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
            config=StreamConfig(max_jobs=80),
            discipline=discipline,
            preemptive=preemptive,
            power=power,
        )

    def _process(self, qos):
        specs = [eembc_benchmark(name) for name in SUITE_NAMES]
        process = PoissonProcess(
            specs, mean_interarrival_cycles=25_000.0, seed=7
        )
        if qos:
            process = QoSProcess(
                process,
                service_estimate=lambda name: 400_000,
                priority_levels=4,
                seed=7,
            )
        return process

    @pytest.mark.parametrize("policy,discipline,preemptive", STREAM_GRID)
    def test_stream_bit_identical_and_snapshot_equal(
        self, policy, discipline, preemptive, small_store, oracle,
        energy_table,
    ):
        qos = discipline != "fifo"
        results = {}
        states = {}
        for key, power in (("base", None), ("disabled", DISABLED)):
            engine = self._engine(
                policy, discipline, preemptive, small_store, oracle,
                energy_table, power,
            )
            results[key] = engine.run(self._process(qos))
            states[key] = run_state(engine)
        assert results["base"] == results["disabled"]
        assert results["disabled"].power is None
        # The strong form: the entire post-run state agrees, down to
        # each value's type, including the absent power account.
        assert states["base"] == states["disabled"]
        assert repr(states["base"]) == repr(states["disabled"])
