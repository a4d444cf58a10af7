"""Observability: event tracing, metrics and trace analysis.

Zero-dependency subsystem spanning every decision point of the
reproduction:

* :mod:`repro.obs.events` — typed trace events (arrival, profiling,
  prediction, stall/non-best decisions, tuning, reconfiguration,
  preemption, completion, energy attribution);
* :mod:`repro.obs.recorder` — recorder implementations; the default
  :data:`NULL_RECORDER` is near-zero overhead, and
  :class:`JsonlRecorder` streams byte-deterministic JSONL traces;
* :mod:`repro.obs.metrics` — counters, gauges and log-bucket
  histograms behind one :class:`MetricsRegistry` shared by sweeps,
  training, simulations and campaigns;
* :mod:`repro.obs.report` — per-core timeline and decision-breakdown
  reconstruction from a trace.

Every JSONL artifact (trace or telemetry) is read line by line through
:func:`iter_jsonl`, which names ``path:line`` for any malformed line.

Observation never perturbs the simulation: recorders and registries
only ever *read* simulation state, and a traced run is bit-identical to
an untraced one.
"""

from .events import (
    EVENT_TYPES,
    ConfigInstalled,
    DeadlineMiss,
    EnergyAccrued,
    InvariantViolation,
    JobArrived,
    JobCompleted,
    JobPreempted,
    NonBestDispatch,
    PowerThrottled,
    ProfilingCompleted,
    ProfilingStarted,
    SizePredicted,
    StallDecision,
    TaskReady,
    TokenGrant,
    TraceEvent,
    TuningStep,
    event_from_dict,
    validate_event_dict,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    ListRecorder,
    NullRecorder,
    TraceRecorder,
    encode_event,
    iter_jsonl,
    iter_trace,
    read_trace,
    write_trace,
)
from .report import (
    ExecutionSegment,
    decision_breakdown,
    per_core_timeline,
    render_trace_report,
    trace_summary,
)
from .telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    Telemetry,
    read_telemetry,
    render_prometheus,
    render_telemetry_report,
)

__all__ = [
    "EVENT_TYPES",
    "NULL_RECORDER",
    "TELEMETRY_SCHEMA_VERSION",
    "Telemetry",
    "ConfigInstalled",
    "Counter",
    "DeadlineMiss",
    "EnergyAccrued",
    "ExecutionSegment",
    "Gauge",
    "Histogram",
    "InvariantViolation",
    "JobArrived",
    "JobCompleted",
    "JobPreempted",
    "JsonlRecorder",
    "ListRecorder",
    "MetricsRegistry",
    "NonBestDispatch",
    "NullRecorder",
    "PowerThrottled",
    "ProfilingCompleted",
    "ProfilingStarted",
    "SizePredicted",
    "StallDecision",
    "TaskReady",
    "TokenGrant",
    "TraceEvent",
    "TraceRecorder",
    "TuningStep",
    "decision_breakdown",
    "encode_event",
    "event_from_dict",
    "iter_jsonl",
    "iter_trace",
    "per_core_timeline",
    "read_telemetry",
    "read_trace",
    "render_prometheus",
    "render_telemetry_report",
    "render_trace_report",
    "trace_summary",
    "validate_event_dict",
    "write_trace",
]
