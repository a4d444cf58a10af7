"""Runtime invariant checks for a running scheduler simulation.

:class:`SimulationValidator` is attached by
``SchedulerSimulation(..., validate=True)``.  The simulation calls its
hooks at every accounting event; the validator mirrors each charge into
an :class:`~repro.validate.ledger.EnergyLedger` and, after every engine
event, re-derives the structural invariants from the live state:

* **queue conservation** — ``arrived == completed + queued + running``;
* **core/pending consistency** — a core holds a job *iff* the
  simulation has a pending execution for it, the two agree on which
  job, and an occupied core's ``busy_until`` lies in the future;
* **refund bounds** — preemption refunds are non-negative and never
  exceed what the execution was charged;
* **fraction bounds** — every dispatch and every requeued victim
  satisfies ``0 < remaining_fraction <= 1``.

A violated invariant raises
:class:`~repro.validate.ledger.ValidationError`; when the simulation
carries a recorder/metrics registry, an
:class:`~repro.obs.events.InvariantViolation` event is emitted and the
``sim.validate.violations`` counter bumped *before* the raise, so the
trace of a failing run ends with the reason.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.events import InvariantViolation

from .ledger import EnergyLedger, ValidationError, _close

__all__ = ["SimulationValidator"]


class SimulationValidator:
    """Ledger + invariant harness for one simulation run."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.ledger = EnergyLedger()
        self.arrived = 0
        self.completed = 0
        self.checks = 0
        self.violations = 0

    # -- violation funnel ----------------------------------------------------

    def _violate(
        self,
        check: str,
        detail: str,
        *,
        job_id: Optional[int] = None,
        core_index: Optional[int] = None,
    ) -> None:
        self._record_violation(check, detail, job_id, core_index)
        raise ValidationError(check, detail)

    def _record_violation(
        self, check, detail, job_id=None, core_index=None
    ) -> None:
        self.violations += 1
        sim = self.sim
        if sim.metrics is not None:
            sim.metrics.counter("sim.validate.violations").inc()
        if sim.recorder.enabled:
            sim.recorder.emit(InvariantViolation(
                cycle=sim.now, check=check, detail=detail,
                job_id=job_id, core_index=core_index,
            ))

    # -- accounting hooks (mirror every charge into the ledger) --------------

    def on_arrival(self, job) -> None:
        self.arrived += 1

    def on_dispatch(
        self,
        job,
        core,
        *,
        dynamic_nj,
        static_nj,
        overhead_nj,
        reconfig_nj,
        token_nj=None,
    ) -> None:
        fraction = job.remaining_fraction
        if not 0.0 < fraction <= 1.0:
            self._violate(
                "invariant.fraction",
                f"job {job.job_id} dispatched with remaining_fraction "
                f"{fraction!r} outside (0, 1]",
                job_id=job.job_id, core_index=core.index,
            )
        try:
            self.ledger.post_dispatch(
                self.sim.now, job.job_id, core.index,
                dynamic_nj=dynamic_nj, static_nj=static_nj,
                overhead_nj=overhead_nj, reconfig_nj=reconfig_nj,
                token_nj=token_nj,
            )
        except ValidationError as error:
            self._record_violation(
                error.check, error.detail,
                job_id=job.job_id, core_index=core.index,
            )
            raise

    def on_preempt(
        self,
        victim,
        core,
        *,
        fraction_run,
        refund_dynamic_nj,
        refund_static_nj,
        refund_overhead_nj,
        token_nj=None,
    ) -> None:
        if not 0.0 <= fraction_run < 1.0:
            self._violate(
                "invariant.fraction",
                f"job {victim.job_id} preempted with fraction_run "
                f"{fraction_run!r} outside [0, 1)",
                job_id=victim.job_id, core_index=core.index,
            )
        if not 0.0 < victim.remaining_fraction <= 1.0:
            self._violate(
                "invariant.fraction",
                f"job {victim.job_id} requeued with remaining_fraction "
                f"{victim.remaining_fraction!r} outside (0, 1]",
                job_id=victim.job_id, core_index=core.index,
            )
        if min(refund_dynamic_nj, refund_static_nj, refund_overhead_nj) < 0:
            self._violate(
                "invariant.refund",
                f"job {victim.job_id}: negative refund "
                f"(dynamic={refund_dynamic_nj}, static={refund_static_nj}, "
                f"overhead={refund_overhead_nj})",
                job_id=victim.job_id, core_index=core.index,
            )
        try:
            self.ledger.post_refund(
                self.sim.now, victim.job_id, core.index,
                dynamic_nj=refund_dynamic_nj,
                static_nj=refund_static_nj,
                overhead_nj=refund_overhead_nj,
                token_nj=token_nj,
            )
        except ValidationError as error:
            self._record_violation(
                error.check, error.detail,
                job_id=victim.job_id, core_index=core.index,
            )
            raise

    def on_complete(self, job, core_index: int) -> None:
        self.completed += 1
        if job.remaining_fraction != 0.0:
            self._violate(
                "invariant.fraction",
                f"job {job.job_id} completed with remaining_fraction "
                f"{job.remaining_fraction!r} != 0",
                job_id=job.job_id, core_index=core_index,
            )

    # -- structural invariants (run after every engine event) ----------------

    def after_event(self) -> None:
        sim = self.sim
        self.checks += 1
        queued = len(sim.queue)
        running = len(sim._pending)
        if self.arrived != self.completed + queued + running:
            self._violate(
                "invariant.queue",
                f"cycle {sim.now}: arrived {self.arrived} != completed "
                f"{self.completed} + queued {queued} + running {running}",
            )
        for core in sim.cores:
            pending = sim._pending.get(core.index)
            if core.current_job is None:
                if pending is not None:
                    self._violate(
                        "invariant.core",
                        f"core {core.index} is idle but job "
                        f"{pending.job.job_id} is still pending on it",
                        core_index=core.index,
                    )
            else:
                if pending is None:
                    self._violate(
                        "invariant.core",
                        f"core {core.index} runs job "
                        f"{core.current_job.job_id} without a pending "
                        "execution",
                        core_index=core.index,
                    )
                elif pending.job is not core.current_job:
                    self._violate(
                        "invariant.core",
                        f"core {core.index} runs job "
                        f"{core.current_job.job_id} but job "
                        f"{pending.job.job_id} is pending on it",
                        core_index=core.index,
                    )
                elif core.busy_until < sim.now:
                    # busy_until == now is legal transiently: the
                    # completion event may still be queued at this
                    # timestamp.
                    self._violate(
                        "invariant.core",
                        f"core {core.index} is occupied past its release "
                        f"time (busy_until {core.busy_until} < now "
                        f"{sim.now})",
                        core_index=core.index,
                    )

    # -- end of run ----------------------------------------------------------

    def finish(self, result, makespan: int) -> None:
        """Close the ledger over residencies and run every total check."""
        sim = self.sim
        if self.completed != self.arrived:
            self._violate(
                "invariant.queue",
                f"run drained with {self.arrived} arrivals but "
                f"{self.completed} completions",
            )
        try:
            self.ledger.close_idle(
                sim.cores,
                makespan,
                lambda config: sim.energy_table.get(
                    config
                ).static_per_cycle_nj,
            )
            self.ledger.check(result)
            self._check_power_pool()
        except ValidationError as error:
            self._record_violation(error.check, error.detail)
            raise
        finally:
            if sim.metrics is not None:
                sim.metrics.counter("sim.validate.checks").inc(self.checks)

    def _check_power_pool(self) -> None:
        """Cross-check the token pool against the ledger's token account.

        At drain every grant must have been consumed or refunded (the
        pool holds nothing), and the pool's running grant/refund totals
        must equal the ledger's independently-accumulated sums exactly:
        both sides append the same floats, so any divergence is a leak,
        a double-refund, or a dispatch that bypassed the gate.
        """
        pool = getattr(self.sim, "power_pool", None)
        if pool is None:
            return
        if not pool.idle():
            self._violate(
                "token.pool",
                f"run drained with {len(pool._held)} grant(s) still held "
                f"({pool.outstanding_nj} nJ outstanding)",
            )
        if pool.grants != len(self.ledger.token_grants):
            self._violate(
                "token.pool",
                f"pool issued {pool.grants} grant(s) but the ledger "
                f"recorded {len(self.ledger.token_grants)}",
            )
        if pool.refunds != len(self.ledger.token_refunds):
            self._violate(
                "token.pool",
                f"pool issued {pool.refunds} refund(s) but the ledger "
                f"recorded {len(self.ledger.token_refunds)}",
            )
        if not _close(pool.granted_nj, self.ledger.token_granted_nj):
            self._violate(
                "token.pool",
                f"pool granted {pool.granted_nj} nJ but ledger recorded "
                f"{self.ledger.token_granted_nj} nJ",
            )
        if not _close(pool.refunded_nj, self.ledger.token_refunded_nj):
            self._violate(
                "token.pool",
                f"pool refunded {pool.refunded_nj} nJ but ledger recorded "
                f"{self.ledger.token_refunded_nj} nJ",
            )
