"""The four evaluated scheduling systems (paper §V).

* :class:`BasePolicy` — the *base system*: every core runs the fixed
  base configuration; no profiling, no ANN, no tuning; jobs go to any
  idle core FIFO.
* :class:`OptimalPolicy` — the *optimal system*: heterogeneous cores,
  profiling, **no** ANN; each benchmark is physically executed in every
  configuration (exhaustive design-space exploration spread across its
  executions); never stalls — the best core is used when idle, otherwise
  any idle core with that core's best-known configuration.
* :class:`EnergyCentricPolicy` — the *energy-centric system*: profiling
  + ANN prediction; jobs are scheduled **only** to the predicted best
  core and always stall when it is busy, even with other cores idle.
* :class:`ProposedPolicy` — the paper's system: profiling + ANN + the
  tuning heuristic + the §IV.E energy-advantageous stall-vs-non-best
  decision.

Each policy sees the simulation through a narrow read interface (the
``sim`` argument of :meth:`SchedulingPolicy.choose`) and returns an
:class:`~repro.core.scheduler.Assignment` or ``None`` to leave the job
in the ready queue.

Beyond the paper's four systems, two *deadline-aware* policies support
the DAG/task-graph workload axis (:mod:`repro.workloads.dag`):

* :class:`EdfPolicy` — earliest-deadline-first *ordering* of the ready
  queue (dispatching like the base system otherwise).
* :class:`HeftPolicy` — HEFT-style upward-rank ordering: each task's
  rank is its estimated work plus the heaviest chain of work below it,
  weighted by its graph's criticality, plus a graph-pressure term that
  is decremented on every dispatch (the classic "rank update").

These are registered under :data:`DEADLINE_POLICY_NAMES`, deliberately
*not* under :data:`POLICY_NAMES`: the paper grids (fast engine,
telemetry, streaming) are pinned to the four paper systems, and neither
ordering policy is implemented by the struct-of-arrays fast engine.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cache.config import BASE_CONFIG, CacheConfig
from repro.core.decision import evaluate_stall_decision
from repro.core.scheduler import Assignment, CoreState, Job

__all__ = [
    "SchedulingPolicy",
    "BasePolicy",
    "OptimalPolicy",
    "EnergyCentricPolicy",
    "ProposedPolicy",
    "EdfPolicy",
    "HeftPolicy",
    "POLICY_NAMES",
    "DEADLINE_POLICY_NAMES",
    "ALL_POLICY_NAMES",
    "make_policy",
]


class SchedulingPolicy(ABC):
    """Dispatch rule for one of the evaluated systems."""

    #: Display name (matches the paper's system names).
    name: str = "policy"
    #: Whether unprofiled jobs must first run on a profiling core.
    requires_profiling: bool = False
    #: Whether the ANN predictor is consulted after profiling.
    uses_predictor: bool = False
    #: Whether the policy imposes its own ready-queue order via
    #: :meth:`queue_key` (overriding the simulation's discipline).
    #: Ordering policies run on the reference loop.
    orders_queue: bool = False
    #: Bumped whenever the policy's queue order may have changed for
    #: reasons other than a queue mutation (e.g. a rank update on
    #: dispatch); the simulation folds it into its queue-view cache key.
    order_version: int = 0

    @abstractmethod
    def choose(self, job: Job, sim) -> Optional[Assignment]:
        """Pick a core+configuration for ``job``, or ``None`` to wait.

        ``sim`` is the running simulation
        (:class:`repro.core.simulation.SchedulerSimulation`); policies
        only read from it.
        """

    # -- ordering / DAG hooks (no-ops for the paper's four systems) ---------

    def queue_key(self, job: Job, sim):
        """Sort key for ``job`` when ``orders_queue`` is set.

        Lower keys dispatch first; ties fall back to arrival (FIFO)
        order because the simulation sorts stably.
        """
        raise NotImplementedError(
            f"{self.name!r} does not order the ready queue"
        )

    def observe_graphs(self, assignments: Sequence[Tuple[object, Dict[int, Job]]], sim) -> None:
        """Called by :meth:`~repro.core.simulation.SchedulerSimulation.run_dags`
        before the run starts, with ``(graph, task_id → job)`` pairs.

        Rank-based policies precompute per-job urgency here; the default
        is a no-op.
        """

    def on_dispatch(self, job: Job, sim) -> None:
        """Called after every dispatch; rank-updating policies react here."""

    # -- shared helpers ------------------------------------------------------

    @staticmethod
    def _idle_cores(sim) -> List[CoreState]:
        return [c for c in sim.cores if c.is_idle(sim.now)]


class BasePolicy(SchedulingPolicy):
    """Homogeneous fixed-configuration baseline (no specialisation)."""

    name = "base"
    requires_profiling = False
    uses_predictor = False

    def choose(self, job: Job, sim) -> Optional[Assignment]:
        for core in self._idle_cores(sim):
            return Assignment(core_index=core.index, config=core.current_config)
        return None


class OptimalPolicy(SchedulingPolicy):
    """Exhaustive-exploration system; never stalls.

    Every execution of a not-yet-fully-explored benchmark physically
    runs one unexplored configuration of the scheduled core (smallest
    first), so the benchmark's true best configuration eventually becomes
    known on every core.  Once everything is explored the benchmark runs
    its best configuration on its best core when idle, and the scheduled
    core's best configuration otherwise.
    """

    name = "optimal"
    requires_profiling = True
    uses_predictor = False

    def choose(self, job: Job, sim) -> Optional[Assignment]:
        idle = self._idle_cores(sim)
        if not idle:
            return None
        profile = sim.table.profile(job.benchmark)

        # Prefer finishing exploration: any idle core with unexplored
        # configurations runs the next one.
        for core in idle:
            unexplored = [
                c for c in core.spec.configs if c not in profile.executions
            ]
            if unexplored:
                return Assignment(
                    core_index=core.index,
                    config=min(unexplored),
                    tuning=True,
                )

        # The idle cores are fully explored: run the best core's best
        # configuration if it is among them, else the best idle option.
        def best_energy(core: CoreState) -> Tuple[float, int]:
            config = profile.best_known_config(core.size_kb)
            return (profile.executions[config].total_energy_nj, core.index)

        core = min(idle, key=best_energy)
        return Assignment(
            core_index=core.index,
            config=profile.best_known_config(core.size_kb),
        )


class EnergyCentricPolicy(SchedulingPolicy):
    """ANN-guided system that always stalls for the predicted best core."""

    name = "energy_centric"
    requires_profiling = True
    uses_predictor = True

    def choose(self, job: Job, sim) -> Optional[Assignment]:
        size_kb = sim.predicted_size_kb(job)
        for core in self._idle_cores(sim):
            if core.size_kb != size_kb:
                continue
            return Assignment(
                core_index=core.index,
                config=sim.tuning_config(job, core),
                tuning=not sim.heuristic.session(job.benchmark, core.size_kb).done,
            )
        return None


class ProposedPolicy(SchedulingPolicy):
    """The paper's scheduler (its Figure 2 flow)."""

    name = "proposed"
    requires_profiling = True
    uses_predictor = True

    def choose(self, job: Job, sim) -> Optional[Assignment]:
        size_kb = sim.predicted_size_kb(job)

        # Best core idle → schedule there (tuning if still exploring).
        for core in self._idle_cores(sim):
            if core.size_kb == size_kb:
                return Assignment(
                    core_index=core.index,
                    config=sim.tuning_config(job, core),
                    tuning=not sim.heuristic.session(
                        job.benchmark, core.size_kb
                    ).done,
                )

        idle = [c for c in self._idle_cores(sim) if c.size_kb != size_kb]
        if not idle:
            return None

        # Unknown best configuration on some idle core → not enough
        # information for the energy comparison; explore there ("the
        # application is scheduled to an arbitrary idle core").
        for core in idle:
            session = sim.heuristic.session(job.benchmark, core.size_kb)
            if not session.done:
                return Assignment(
                    core_index=core.index,
                    config=session.next_config(),
                    tuning=True,
                )

        # All idle cores tuned.  The comparison also needs the best
        # core's energy; without it the job stalls conservatively.
        best_session = sim.heuristic.session(job.benchmark, size_kb)
        if not best_session.done:
            sim.count_stall_decision(job)
            return None
        best_record = sim.table.execution(
            job.benchmark, best_session.best_config
        )
        if best_record is None:
            # Profiling-table eviction can drop the record out from
            # under a finished session; without the best core's energy
            # the §IV.E comparison cannot run — stall conservatively
            # (the record reappears when the configuration re-executes).
            sim.count_stall_decision(job)
            return None

        def run_energy(core: CoreState) -> Tuple[float, int]:
            config = sim.heuristic.session(
                job.benchmark, core.size_kb
            ).best_config
            return (
                sim.table.execution(job.benchmark, config).total_energy_nj,
                core.index,
            )

        candidate = min(idle, key=run_energy)
        candidate_config = sim.heuristic.session(
            job.benchmark, candidate.size_kb
        ).best_config
        best_size_cores = [
            core
            for core in sim.cores
            if core.size_kb == size_kb and not core.failed
        ]
        if not best_size_cores:
            # Every best-size core is down (fault injection): waiting
            # has unbounded cost, so run on the cheapest tuned idle
            # core instead of stalling on a core that may never return.
            sim.count_non_best_decision(job)
            return Assignment(
                core_index=candidate.index, config=candidate_config
            )
        wait_cycles = min(
            core.remaining_cycles(sim.now) for core in best_size_cores
        )
        decision = evaluate_stall_decision(
            best_core_energy_nj=best_record.total_energy_nj,
            non_best_energy_nj=sim.table.execution(
                job.benchmark, candidate_config
            ).total_energy_nj,
            wait_cycles=wait_cycles,
            idle_power_non_best_nj_per_cycle=sim.idle_power_nj_per_cycle(
                candidate
            ),
        )
        if decision.stall:
            sim.count_stall_decision(job)
            return None
        sim.count_non_best_decision(job)
        return Assignment(core_index=candidate.index, config=candidate_config)


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first ordering of the ready queue.

    Dispatching is the base system's (first idle core, current
    configuration); only the *order* in which queued jobs are offered
    changes.  Jobs without a deadline sort last, and equal deadlines
    fall back to FIFO.  On a single saturated core EDF is the optimal
    deadline-miss minimiser, which is what the congested-scenario
    acceptance test leans on.
    """

    name = "edf"
    requires_profiling = False
    uses_predictor = False
    orders_queue = True

    def queue_key(self, job: Job, sim):
        if job.deadline_cycle is None:
            return float("inf")
        return float(job.deadline_cycle)

    def choose(self, job: Job, sim) -> Optional[Assignment]:
        for core in self._idle_cores(sim):
            return Assignment(core_index=core.index, config=core.current_config)
        return None


class HeftPolicy(SchedulingPolicy):
    """HEFT-style upward-rank ordering with rank update on dispatch.

    Before a DAG run starts, :meth:`observe_graphs` computes each
    task's *upward rank* — its own estimated work (profiling-store
    estimate in the base configuration) plus the heaviest chain of
    successor work below it.  The queue key combines that rank
    (weighted by the graph's criticality) with a *graph pressure* term,
    the graph's total undispatched work.  Every dispatch shrinks the
    dispatching graph's pressure and bumps :attr:`order_version`, so
    queued tasks of *other* graphs observably gain relative urgency —
    the "rank update on dispatch" of dynamic HEFT variants.

    Plain (non-DAG) jobs rank by their own estimated work, i.e. a
    longest-job-first order with no pressure term.
    """

    name = "heft"
    requires_profiling = False
    uses_predictor = False
    orders_queue = True

    def __init__(self) -> None:
        self.order_version = 0
        #: job_id → upward rank in estimated cycles.
        self._rank: Dict[int, float] = {}
        #: job_id → the job's own estimated work in cycles.
        self._weight: Dict[int, float] = {}
        #: job_id → owning graph id (absent for plain jobs).
        self._graph_of: Dict[int, int] = {}
        #: graph id → undispatched work remaining, in estimated cycles.
        self._pending: Dict[int, float] = {}
        #: graph id → criticality weight.
        self._criticality: Dict[int, int] = {}

    @staticmethod
    def _estimate(benchmark: str, sim) -> float:
        return float(sim.store.estimate(benchmark, BASE_CONFIG).total_cycles)

    def observe_graphs(self, assignments, sim) -> None:
        for graph, jobs in assignments:
            successors = graph.successors()
            by_task = {t.task_id: t for t in graph.tasks}
            weight = {
                tid: self._estimate(task.benchmark, sim)
                for tid, task in by_task.items()
            }
            rank: Dict[int, float] = {}
            for tid in reversed(graph.topological_order()):
                rank[tid] = weight[tid] + max(
                    (rank[s] for s in successors[tid]), default=0.0
                )
            self._pending[graph.graph_id] = sum(weight.values())
            self._criticality[graph.graph_id] = graph.criticality
            for tid, job in jobs.items():
                self._rank[job.job_id] = rank[tid]
                self._weight[job.job_id] = weight[tid]
                self._graph_of[job.job_id] = graph.graph_id
        self.order_version += 1

    def queue_key(self, job: Job, sim):
        graph_id = self._graph_of.get(job.job_id)
        if graph_id is None:
            weight = self._weight.get(job.job_id)
            if weight is None:
                weight = self._estimate(job.benchmark, sim)
                self._weight[job.job_id] = weight
            return -weight
        urgency = (
            self._criticality[graph_id] * self._rank[job.job_id]
            + self._pending[graph_id]
        )
        return -urgency

    def on_dispatch(self, job: Job, sim) -> None:
        graph_id = self._graph_of.get(job.job_id)
        if graph_id is None:
            return
        self._pending[graph_id] = max(
            0.0, self._pending[graph_id] - self._weight[job.job_id]
        )
        self.order_version += 1

    def choose(self, job: Job, sim) -> Optional[Assignment]:
        for core in self._idle_cores(sim):
            return Assignment(core_index=core.index, config=core.current_config)
        return None


_POLICIES = {
    cls.name: cls
    for cls in (BasePolicy, OptimalPolicy, EnergyCentricPolicy, ProposedPolicy)
}

_DEADLINE_POLICIES = {cls.name: cls for cls in (EdfPolicy, HeftPolicy)}

#: The paper's four systems.  Deliberately *not* extended with the
#: deadline-aware policies: the fast-engine/telemetry/streaming grids
#: iterate this tuple and neither ordering policy runs on the fast
#: engine.
POLICY_NAMES = tuple(_POLICIES)

#: Deadline-aware ordering policies for the DAG workload axis
#: (reference engine only).
DEADLINE_POLICY_NAMES = tuple(_DEADLINE_POLICIES)

#: Every name :func:`make_policy` accepts.
ALL_POLICY_NAMES = POLICY_NAMES + DEADLINE_POLICY_NAMES


def make_policy(name: str) -> SchedulingPolicy:
    """Construct an evaluated policy (paper system or deadline-aware)."""
    cls = _POLICIES.get(name) or _DEADLINE_POLICIES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown policy {name!r}; choose from {ALL_POLICY_NAMES}"
        )
    return cls()
