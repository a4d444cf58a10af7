"""Typed trace events of the scheduler simulation.

Every run-time decision the paper's scheduler takes — profile, predict,
stall-vs-migrate, tune, reconfigure, preempt — has a corresponding event
type here.  Events are small frozen dataclasses; each carries the
simulation ``cycle`` it happened at plus the job id and core index where
those are meaningful (``None`` otherwise).  The stream a recorder
captures is fully determined by the simulation inputs, so a fixed
(policy, seed, load) cell always yields the same event sequence.

Serialisation is line-oriented JSON (one :meth:`TraceEvent.to_dict`
payload per line): ``kind`` selects the event class on the way back in
through :func:`event_from_dict`, and :func:`validate_event_dict` checks
a raw payload against the schema without constructing the event.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Type

__all__ = [
    "TraceEvent",
    "JobArrived",
    "ProfilingStarted",
    "ProfilingCompleted",
    "SizePredicted",
    "StallDecision",
    "NonBestDispatch",
    "TuningStep",
    "ConfigInstalled",
    "JobPreempted",
    "JobCompleted",
    "EnergyAccrued",
    "InvariantViolation",
    "TaskReady",
    "DeadlineMiss",
    "TokenGrant",
    "PowerThrottled",
    "EVENT_TYPES",
    "event_from_dict",
    "validate_event_dict",
]

#: Execution categories used for energy attribution (see
#: :func:`repro.obs.report.decision_breakdown`).
CATEGORIES = ("profiling", "tuning", "non_best", "best")


class TraceEvent:
    """Base class of all trace events (serialisation mix-in)."""

    #: Stable wire name of the event (overridden per subclass).
    kind: str = "event"

    def to_dict(self) -> dict:
        """JSON-serialisable payload, ``kind`` included."""
        payload = {"kind": self.kind}
        payload.update(asdict(self))
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        """Reconstruct the event from a :meth:`to_dict` payload.

        The ``sampled`` marker telemetry adds to re-emitted events (see
        :mod:`repro.obs.telemetry`) is envelope metadata, not an event
        field, so it is stripped here — sampled traces replay through
        the same classes as full-fidelity ones.
        """
        data = dict(payload)
        kind = data.pop("kind", None)
        data.pop("sampled", None)
        if kind != cls.kind:
            raise ValueError(f"payload kind {kind!r} is not {cls.kind!r}")
        return cls(**data)


@dataclass(frozen=True)
class JobArrived(TraceEvent):
    """A job entered the ready queue."""

    kind = "job_arrived"
    cycle: int
    job_id: int
    benchmark: str


@dataclass(frozen=True)
class ProfilingStarted(TraceEvent):
    """A profiling run began on a profiling core (base configuration)."""

    kind = "profiling_started"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str


@dataclass(frozen=True)
class ProfilingCompleted(TraceEvent):
    """A profiling run finished; counters entered the profiling table."""

    kind = "profiling_completed"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str


@dataclass(frozen=True)
class SizePredicted(TraceEvent):
    """The predictor mapped fresh counters to a best cache size.

    ``best_size_kb`` is the characterisation-store ground truth, carried
    so traces are self-contained for predictor hit-rate analysis.
    """

    kind = "size_predicted"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    size_kb: int
    best_size_kb: int


@dataclass(frozen=True)
class StallDecision(TraceEvent):
    """The policy explicitly chose to keep a job waiting (§IV.E)."""

    kind = "stall_decision"
    cycle: int
    job_id: int
    benchmark: str
    core_index: Optional[int] = None


@dataclass(frozen=True)
class NonBestDispatch(TraceEvent):
    """The policy explicitly ran a job on a non-best core (§IV.E)."""

    kind = "non_best_dispatch"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    config: str
    predicted_size_kb: int


@dataclass(frozen=True)
class TuningStep(TraceEvent):
    """One tuning-heuristic exploration execution (paper Figure 5)."""

    kind = "tuning_step"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    config: str
    #: 1-based exploration index within the (benchmark, size) session.
    step: int


@dataclass(frozen=True)
class ConfigInstalled(TraceEvent):
    """The cache tuner reconfigured a core's L1 (non-free switch)."""

    kind = "config_installed"
    cycle: int
    job_id: int
    core_index: int
    config: str
    cycles: int
    energy_nj: float


@dataclass(frozen=True)
class JobPreempted(TraceEvent):
    """A running job was halted; its unexecuted charges were refunded."""

    kind = "job_preempted"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    category: str
    #: Share of the scheduled service that executed before the halt.
    fraction_run: float
    refunded_dynamic_nj: float
    refunded_static_nj: float
    refunded_overhead_nj: float
    #: Why the job was requeued; always ``preemption``, the one path
    #: that requeues a running job.
    reason: str = "preemption"


@dataclass(frozen=True)
class JobCompleted(TraceEvent):
    """An execution ran to completion on its core."""

    kind = "job_completed"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    config: str
    category: str
    energy_nj: float
    waiting_cycles: int


@dataclass(frozen=True)
class InvariantViolation(TraceEvent):
    """A validation invariant failed (``validate=True`` runs only).

    Emitted immediately before the
    :class:`~repro.validate.ledger.ValidationError` raise, so the trace
    of a failing run ends with the machine-readable reason.  ``check``
    is the dotted invariant name (e.g. ``invariant.queue``,
    ``ledger.total``); ``detail`` is the human-readable diagnosis.
    """

    kind = "invariant_violation"
    cycle: int
    check: str
    detail: str
    job_id: Optional[int] = None
    core_index: Optional[int] = None


@dataclass(frozen=True)
class EnergyAccrued(TraceEvent):
    """Energy charged when an execution starts (pro-rata for resumes).

    Emitted once per execution start; ``service_cycles`` is the planned
    occupancy, so (``cycle``, ``cycle + service_cycles``) is the
    execution's scheduled window — a later :class:`JobPreempted` on the
    same core truncates it.
    """

    kind = "energy_accrued"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    category: str
    dynamic_nj: float
    static_nj: float
    overhead_nj: float
    service_cycles: int


@dataclass(frozen=True)
class TaskReady(TraceEvent):
    """A DAG task's last predecessor completed; it entered the queue.

    Only emitted for *released* tasks (those with predecessors): root
    tasks of a graph arrive through the normal :class:`JobArrived`
    path, which keeps an edge-free DAG run's trace byte-identical to
    the equivalent plain-arrival run.  ``graph_id``/``task_id`` locate
    the task inside its :class:`~repro.workloads.dag.TaskGraph`.
    """

    kind = "task_ready"
    cycle: int
    job_id: int
    benchmark: str
    graph_id: int
    task_id: int


@dataclass(frozen=True)
class DeadlineMiss(TraceEvent):
    """A deadlined job completed after its deadline.

    ``miss_cycles`` is the (positive) overshoot:
    ``cycle - deadline_cycle``.  Jobs that meet their deadline emit no
    event — the slack histogram in the metrics registry covers them.
    """

    kind = "deadline_miss"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    deadline_cycle: int
    miss_cycles: int


@dataclass(frozen=True)
class TokenGrant(TraceEvent):
    """A dispatch spent power tokens from the budget pool.

    ``tokens_nj`` is the dispatch's dynamic+static charge at its
    operating point — exactly what returns through the refund path on
    preemption or settles on completion, so replaying a trace's grants
    against its charges balances bit-for-bit.  ``dvfs`` is the
    operating-point name (empty when no DVFS table is configured).
    """

    kind = "token_grant"
    cycle: int
    job_id: int
    core_index: int
    benchmark: str
    config: str
    dvfs: str
    tokens_nj: float


@dataclass(frozen=True)
class PowerThrottled(TraceEvent):
    """The power gate intervened in a dispatch.

    ``reason`` is ``wait`` (the job stays queued until tokens free up),
    ``degraded`` (a cheaper config/operating point was substituted
    within the slack), or ``overdraft`` (nothing was affordable but no
    tokens were held anywhere, so the preferred dispatch proceeded —
    the progress guarantee).  ``price_nj`` is the preferred option's
    token price.
    """

    kind = "power_throttled"
    cycle: int
    job_id: int
    benchmark: str
    reason: str
    price_nj: float


#: Wire name → event class, for deserialisation and schema validation.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        JobArrived,
        ProfilingStarted,
        ProfilingCompleted,
        SizePredicted,
        StallDecision,
        NonBestDispatch,
        TuningStep,
        ConfigInstalled,
        JobPreempted,
        JobCompleted,
        EnergyAccrued,
        InvariantViolation,
        TaskReady,
        DeadlineMiss,
        TokenGrant,
        PowerThrottled,
    )
}


def event_from_dict(payload: dict) -> TraceEvent:
    """Reconstruct any event from its :meth:`TraceEvent.to_dict` payload."""
    kind = payload.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    return cls.from_dict(payload)


#: Lenient runtime type buckets for schema validation.  ``float`` fields
#: accept ints (JSON round-trips 1.0 → 1.0 but sources may emit 0).
_TYPE_CHECKS = {
    int: lambda v: isinstance(v, int) and not isinstance(v, bool),
    float: lambda v: (
        isinstance(v, (int, float)) and not isinstance(v, bool)
    ),
    str: lambda v: isinstance(v, str),
    Optional[int]: lambda v: v is None
    or (isinstance(v, int) and not isinstance(v, bool)),
}


def validate_event_dict(payload: dict) -> None:
    """Raise ``ValueError`` if a raw payload violates the event schema.

    Checks: known ``kind``, exactly the declared field set, and
    per-field value types.  Used by the golden-trace CI validation.
    """
    kind = payload.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    declared = {f.name: f.type for f in fields(cls)}
    if "sampled" in payload and not isinstance(payload["sampled"], bool):
        raise ValueError(f"{kind}.sampled: expected bool")
    present = set(payload) - {"kind", "sampled"}
    missing = [
        name
        for name, type_ in declared.items()
        if name not in present and not str(type_).startswith("Optional")
    ]
    unknown = sorted(present - set(declared))
    if missing:
        raise ValueError(f"{kind}: missing fields {missing}")
    if unknown:
        raise ValueError(f"{kind}: unknown fields {unknown}")
    hints = {
        "cycle": int,
        "job_id": int,
        "core_index": int,
        "step": int,
        "cycles": int,
        "size_kb": int,
        "best_size_kb": int,
        "predicted_size_kb": int,
        "waiting_cycles": int,
        "service_cycles": int,
        "graph_id": int,
        "task_id": int,
        "deadline_cycle": int,
        "miss_cycles": int,
    }
    for name in present:
        value = payload[name]
        if name in ("benchmark", "config", "category", "kind", "check",
                    "detail", "reason", "dvfs"):
            if not isinstance(value, str):
                raise ValueError(f"{kind}.{name}: expected str")
        elif value is None and str(declared[name]).startswith("Optional"):
            continue  # e.g. StallDecision / InvariantViolation core/job
        elif name in hints:
            if not _TYPE_CHECKS[int](value):
                raise ValueError(f"{kind}.{name}: expected int")
        else:  # energies / fractions
            if not _TYPE_CHECKS[float](value):
                raise ValueError(f"{kind}.{name}: expected number")
    if payload["cycle"] < 0:
        raise ValueError(f"{kind}.cycle: negative")
