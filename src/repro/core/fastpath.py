"""Glue between :class:`SchedulerSimulation` and the simulation core.

:func:`run_fast` runs an arrival batch on a
:class:`~repro.sim.stream.StreamingSimulation` built for a configured
:class:`~repro.core.simulation.SchedulerSimulation`, then writes the
finished core's run state and knowledge state back into the reference
object — engine clock and counters, core occupancy/tuner/residency
state, the profiling table, tuning sessions and the decision
accumulators — so post-run introspection (``sim.engine.processed``,
``sim.cores[i].busy_cycles``, ``sim.table``, ``sim.heuristic``)
observes exactly what a reference run would have left behind.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.profiling import ExecutionRecord, ProfilingTable
from repro.core.results import SimulationResult
from repro.core.tuning import TuningHeuristic
from repro.sim.stream import StreamingSimulation
from repro.workloads.arrivals import JobArrival

__all__ = ["build_fast", "run_fast"]


def build_fast(sim) -> StreamingSimulation:
    """A fresh simulation core mirroring ``sim``'s configuration, for
    one :meth:`~repro.sim.stream.StreamingSimulation.run_batch`."""
    return StreamingSimulation(
        sim.system,
        sim.policy,
        sim.store,
        predictor=sim.predictor,
        energy_table=sim.energy_table,
        profiling_overhead_fraction=sim.profiling_overhead_fraction,
        discipline=sim.discipline,
        preemptive=sim.preemptive,
        preload_profiles=sim._preload_profiles_requested,
        telemetry=sim.telemetry,
        power=sim.power,
    )


def run_fast(sim, arrivals: Sequence[JobArrival]) -> SimulationResult:
    """Run ``sim``'s configuration on the fast engine.

    ``sim`` must have been constructed with the obs/validate hooks
    all off (engine resolution guarantees this).
    """
    fast = build_fast(sim)
    result = fast.run_batch(arrivals)
    _write_back(sim, fast, result)
    return result


def _write_back(
    sim, fast: StreamingSimulation, result: SimulationResult
) -> None:
    """Install the finished run's state on the reference object."""
    s = fast._s
    cfg_objs = fast.cfg_objs
    engine = sim.engine
    engine._now = s["now"]
    engine._processed = s["processed"]
    # The reference numbers every arrival event before the first start.
    engine._sequence = s["generated"] + s["seq"]

    sim.queue.enqueued_total = s["enqueued_total"]
    sim.queue.max_length = s["max_queue_len"]

    for ci, core in enumerate(sim.cores):
        core.current_job = None
        core.dvfs = s["core_dvfs"][ci]
        core.busy_until = s["busy_until"][ci]
        core.busy_cycles = s["busy_cycles"][ci]
        core.executions = s["execs"][ci]
        core.epoch = s["epoch"][ci]
        core.run_started_at = s["run_started"][ci]
        core._residency_closed = [
            (start, end, cfg_objs[cid], busy)
            for start, end, cid, busy in s["res_closed"][ci]
        ]
        core._residency_start = s["res_start"][ci]
        core._residency_busy = s["res_busy"][ci]
        tuner = core.tuner
        tuner._current = cfg_objs[s["cur_cfg"][ci]]
        tuner.reconfigurations = s["recfg_count"][ci]
        tuner.total_cycles = s["recfg_cycles_core"][ci]
        tuner.total_energy_nj = s["recfg_nj_core"][ci]

    # Rebuild the profiling table in the fast run's touch order (the
    # reference table's dict order is observable through benchmarks(),
    # exploration_counts() and predictions_kb).
    table = ProfilingTable()
    for b in fast.touch_order:
        name = fast.bench_names[b]
        profile = table.profile(name)
        if fast.profiled[b]:
            profile.counters = sim.store.counters(name)
        if fast.pred_raw[b] is not None:
            profile.predicted_size_kb = fast.pred_raw[b]
        for cid in fast.executed[b]:
            config = cfg_objs[cid]
            entry = fast._est[b][cid]
            profile.executions[config] = ExecutionRecord(
                config=config,
                total_energy_nj=entry[3],
                total_cycles=entry[0],
            )
        profile.tuned_sizes = set(fast.tuned[b])
    sim.table = table

    heuristic = TuningHeuristic()
    heuristic._sessions = {
        (fast.bench_names[b], size_kb): session
        for (b, size_kb), session in fast.sessions.items()
    }
    sim.heuristic = heuristic

    sim._dynamic_nj = s["dynamic_nj"]
    sim._busy_static_nj = s["busy_static_nj"]
    sim._reconfig_nj = s["reconfig_nj"]
    sim._reconfig_cycles = s["reconfig_cycles"]
    sim._profiling_overhead_nj = s["profiling_overhead_nj"]
    sim._stall_decisions = s["stall_decisions"]
    sim._non_best_decisions = s["non_best_decisions"]
    sim._tuning_executions = s["tuning_executions"]
    sim._profiling_executions = s["profiling_executions"]
    sim._preemption_count = s["preemption_count"]
    sim._records = list(result.jobs)
    if fast._power_pool is not None:
        sim._power_pool.load_state(fast._power_pool.state_dict())
