"""Scheduler runtime types shared by the policies and the simulation.

* :class:`Job` — one arrived benchmark instance.
* :class:`CoreState` — a core's run-time state (tuner, occupancy,
  accounting).
* :class:`Assignment` — a policy's dispatch decision.

It also holds what both event loops (the reference loop and the
simulation core) share as fixed model constants — the disciplines, the
tuner's cost model and the preemption quantum — and the one check of a
simulation's run options.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cache.config import CacheConfig
from repro.cache.tuner import CacheTuner, TunerCostModel
from repro.core.system import CoreSpec

__all__ = [
    "Assignment",
    "CoreState",
    "DISCIPLINES",
    "Job",
    "PREEMPTION_QUANTUM_CYCLES",
    "TUNER_COSTS",
    "check_run_options",
]

#: Ready-queue service orders: ``fifo`` (the paper), ``priority``
#: (static priority, FIFO within a level) or ``edf`` (earliest deadline
#: first; deadline-free jobs go last).
DISCIPLINES = ("fifo", "priority", "edf")

#: The reconfiguration cost model of every core's tuner.
TUNER_COSTS = TunerCostModel()

#: Minimum execution window around a preemption: a running job is only
#: eligible as a victim once it has executed this many cycles *and*
#: still has at least this many cycles left.  This models OS scheduling
#: granularity and prevents preemption storms from fragmenting
#: executions into one-cycle slivers.
PREEMPTION_QUANTUM_CYCLES = 10_000


def check_run_options(
    policy,
    predictor,
    profiling_overhead_fraction: float,
    discipline: str,
    preemptive: bool,
) -> None:
    """Reject run options no event loop can simulate (``ValueError``)."""
    if policy.uses_predictor and predictor is None:
        raise ValueError(f"policy {policy.name!r} needs a predictor")
    if profiling_overhead_fraction < 0:
        raise ValueError("profiling_overhead_fraction must be >= 0")
    if discipline not in DISCIPLINES:
        raise ValueError(
            f"unknown discipline {discipline!r}; choose from {DISCIPLINES}"
        )
    if preemptive and discipline == "fifo":
        raise ValueError(
            "preemption needs an urgency order; use the 'priority' "
            "or 'edf' discipline"
        )


@dataclass
class Job:
    """One benchmark instance travelling through the system.

    ``priority`` and ``deadline_cycle`` support the paper's future-work
    extension ("considering systems with preemption, priority, and
    deadlines"); with the defaults the job behaves exactly as in the
    paper's FIFO evaluation.
    """

    job_id: int
    benchmark: str
    arrival_cycle: int
    #: Static priority; larger is more urgent (0 = the paper's default).
    priority: int = 0
    #: Absolute completion deadline in cycles, if any.
    deadline_cycle: Optional[int] = None
    start_cycle: Optional[int] = None
    completion_cycle: Optional[int] = None
    #: Fraction of the execution still to run (1.0 = not yet started;
    #: decreases when the job is preempted mid-execution).
    remaining_fraction: float = 1.0
    #: How many times this job has been preempted.
    preemptions: int = 0
    #: Cycle the job last entered the ready queue (arrival or requeue
    #: after a preemption); ``None`` until the arrival is processed.
    last_enqueue_cycle: Optional[int] = None
    #: Ready-queue cycles accumulated over *all* visits — the wait
    #: before the first dispatch plus any requeued time after
    #: preemptions.
    waiting_cycles: int = 0
    #: Execution energy (dynamic + static) charged to this job across
    #: all its slices, net of preemption refunds.
    charged_energy_nj: float = 0.0

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError("job_id must be non-negative")
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")
        if (
            self.deadline_cycle is not None
            and self.deadline_cycle < self.arrival_cycle
        ):
            raise ValueError("deadline cannot precede the arrival")

    @property
    def started(self) -> bool:
        """Whether the job has been dispatched to a core."""
        return self.start_cycle is not None


@dataclass(frozen=True)
class Assignment:
    """A policy's decision: run a job on a core in a configuration.

    Attributes
    ----------
    core_index:
        Target core.
    config:
        L1 configuration to execute with (the tuner installs it first if
        it differs from the core's current configuration).
    profiling:
        True when this execution is the job's profiling run.
    tuning:
        True when this execution is a tuning-heuristic exploration step.
    dvfs:
        Operating-point name for this dispatch when the power axis has
        a DVFS table (``None`` = power axis off).  Policies leave it
        unset; the power gate fills in the table's nominal point, or a
        lower one when it degrades an unaffordable dispatch.
    """

    core_index: int
    config: CacheConfig
    profiling: bool = False
    tuning: bool = False
    dvfs: Optional[str] = None


class CoreState:
    """Run-time state of one core inside the simulation."""

    def __init__(self, spec: CoreSpec) -> None:
        self.spec = spec
        self.tuner = CacheTuner(spec.reset_config, TUNER_COSTS)
        self.current_job: Optional[Job] = None
        self.busy_until = 0
        self.busy_cycles = 0
        self.executions = 0
        #: Whether the core is inside a fault-injected failure window;
        #: a down core accepts no dispatches and its occupant (if any)
        #: was requeued when the window opened.
        self.failed = False
        #: Start time of the in-flight execution (for preemption).
        self.run_started_at = 0
        #: Operating-point name of the most recent dispatch when the
        #: power axis has a DVFS table; ``None`` otherwise.
        self.dvfs: Optional[str] = None
        #: Increments on every begin/preempt; completion events carry the
        #: epoch they were scheduled under so stale ones are ignored.
        self.epoch = 0
        #: Closed config-residency intervals: ``(start, end, config,
        #: busy_cycles)`` tuples, one per configuration the core has
        #: left behind.  Idle leakage integrates over these piecewise
        #: (a core's static power follows the *installed* configuration,
        #: not the one it happens to end the run with).
        self._residency_closed: list = []
        self._residency_start = 0
        self._residency_busy = 0

    @property
    def index(self) -> int:
        """Core index (zero-based)."""
        return self.spec.index

    @property
    def size_kb(self) -> int:
        """Fixed cache size of the core."""
        return self.spec.cache_size_kb

    @property
    def current_config(self) -> CacheConfig:
        """Currently installed L1 configuration."""
        return self.tuner.current

    def is_idle(self, now: int) -> bool:
        """Whether the core can accept a job at time ``now``.

        Both conditions matter: ``current_job`` clears when the occupant
        finishes or is preempted, and ``busy_until`` guards against a
        core being handed a job before its release time has been
        reached (they coincide today only because dispatch runs at
        event boundaries).  A failed core (fault injection) is never
        idle: it cannot accept work until its failure window closes.
        """
        return (
            not self.failed
            and self.current_job is None
            and now >= self.busy_until
        )

    def begin(self, job: Job, now: int, service_cycles: int) -> None:
        """Occupy the core with a job for ``service_cycles``."""
        if self.current_job is not None:
            raise RuntimeError(
                f"{self.spec.name} is busy with job {self.current_job.job_id}"
            )
        if service_cycles <= 0:
            raise ValueError("service_cycles must be positive")
        self.current_job = job
        self.run_started_at = now
        self.busy_until = now + service_cycles
        self.busy_cycles += service_cycles
        self._residency_busy += service_cycles
        self.executions += 1
        self.epoch += 1

    def finish(self, now: int) -> Job:
        """Release the core; returns the job that just completed."""
        if self.current_job is None:
            raise RuntimeError(f"{self.spec.name} has no job to finish")
        if now != self.busy_until:
            raise RuntimeError(
                f"{self.spec.name} finishing at {now}, expected {self.busy_until}"
            )
        job = self.current_job
        self.current_job = None
        return job

    def remaining_cycles(self, now: int) -> int:
        """Cycles until the current occupant completes (0 when idle)."""
        if self.current_job is None:
            return 0
        return max(0, self.busy_until - now)

    def preempt(self, now: int) -> tuple:
        """Halt the in-flight execution; returns ``(job, fraction_run)``.

        ``fraction_run`` is the share of the *scheduled service* that
        actually executed before the preemption.  Unused busy cycles are
        refunded from the accounting and the epoch advances so the
        core's pending completion event becomes stale.
        """
        if self.current_job is None:
            raise RuntimeError(f"{self.spec.name} has no job to preempt")
        if now >= self.busy_until:
            raise RuntimeError(
                f"{self.spec.name} occupant already finished at "
                f"{self.busy_until}; cannot preempt at {now}"
            )
        service = self.busy_until - self.run_started_at
        executed = now - self.run_started_at
        fraction_run = executed / service if service else 0.0
        self.busy_cycles -= self.busy_until - now
        self._residency_busy -= self.busy_until - now
        job = self.current_job
        self.current_job = None
        self.busy_until = now
        self.epoch += 1
        return job, fraction_run

    # -- config residency (idle-leakage accounting) --------------------------

    def note_reconfigured(self, now: int, previous: CacheConfig) -> None:
        """Close ``previous``'s residency interval at ``now``.

        Called by the simulation whenever the tuner installs a
        *different* configuration; the interval records how many of its
        cycles were busy so idle leakage can be integrated per
        configuration actually installed.
        """
        self._residency_closed.append(
            (self._residency_start, now, previous, self._residency_busy)
        )
        self._residency_start = now
        self._residency_busy = 0

    def residency_intervals(self, end: int) -> list:
        """All residency intervals up to ``end`` (makespan), closed form.

        Returns ``(start, end, config, busy_cycles)`` tuples covering
        ``[0, end)`` without gaps; the final (still open) interval is
        closed at ``end`` under the currently installed configuration.
        Does not mutate the core's state.
        """
        return self._residency_closed + [
            (self._residency_start, end, self.current_config,
             self._residency_busy)
        ]
