"""Trace analysis: per-core timelines and decision breakdowns.

A JSONL trace (see :mod:`repro.obs.recorder`) fully describes one
simulation run; this module reconstructs from it

* the **per-core timeline** — every execution window on every core,
  with its category (profiling / tuning / non-best / best) and whether
  it completed or was preempted;
* the **decision breakdown** — energy attributed to each dispatch
  category, preemption refunds applied, plus the explicit stall count;
* a human-readable **report** combining both.

Everything here is a pure function of the event list, so
``emit → parse → report`` round-trips without touching the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .events import (
    CATEGORIES,
    ConfigInstalled,
    EnergyAccrued,
    JobArrived,
    JobCompleted,
    JobPreempted,
    ProfilingCompleted,
    SizePredicted,
    StallDecision,
    TraceEvent,
)

__all__ = [
    "ExecutionSegment",
    "per_core_timeline",
    "decision_breakdown",
    "trace_summary",
    "render_trace_report",
]


@dataclass(frozen=True)
class ExecutionSegment:
    """One execution window on one core, reconstructed from a trace."""

    core_index: int
    job_id: int
    benchmark: str
    category: str
    start_cycle: int
    #: Actual end: completion or preemption cycle (scheduled end when
    #: the trace stops mid-execution).
    end_cycle: int
    #: False when the window was cut short by a preemption.
    completed: bool

    @property
    def cycles(self) -> int:
        """Occupied cycles of the window."""
        return self.end_cycle - self.start_cycle


def per_core_timeline(
    events: Sequence[TraceEvent],
    *,
    lenient: bool = False,
) -> Dict[int, List[ExecutionSegment]]:
    """Reconstruct every core's execution windows, in start order.

    :class:`~repro.obs.events.EnergyAccrued` opens a window (it is
    emitted exactly once per execution start and carries the scheduled
    service); :class:`~repro.obs.events.JobCompleted` /
    :class:`~repro.obs.events.JobPreempted` close it.

    ``lenient`` accepts *sampled* traces (``--sampled-trace``), where
    most starts and completions lack their counterpart: an unmatched
    start closes at its scheduled end, and an unmatched completion is
    skipped (its start cycle is unknowable).  A full trace should keep
    the default strict pairing, which flags malformed traces.
    """
    open_windows: Dict[int, EnergyAccrued] = {}
    timeline: Dict[int, List[ExecutionSegment]] = {}

    def flush(core: int) -> None:
        started = open_windows.pop(core)
        timeline.setdefault(core, []).append(
            ExecutionSegment(
                core_index=core,
                job_id=started.job_id,
                benchmark=started.benchmark,
                category=started.category,
                start_cycle=started.cycle,
                end_cycle=started.cycle + started.service_cycles,
                completed=False,
            )
        )

    def close(core: int, job_id: int, end_cycle: int,
              completed: bool) -> None:
        started = open_windows.get(core)
        if lenient and (started is None or started.job_id != job_id):
            # Sampled trace: this completion's start was not sampled.
            # A stale window on the core still closes at its own
            # scheduled end so it is not silently dropped.
            if started is not None and started.cycle + \
                    started.service_cycles <= end_cycle:
                flush(core)
            return
        started = open_windows.pop(core)
        timeline.setdefault(core, []).append(
            ExecutionSegment(
                core_index=core,
                job_id=started.job_id,
                benchmark=started.benchmark,
                category=started.category,
                start_cycle=started.cycle,
                end_cycle=end_cycle,
                completed=completed,
            )
        )

    for event in events:
        if isinstance(event, EnergyAccrued):
            if event.core_index in open_windows:
                if not lenient:
                    raise ValueError(
                        f"core {event.core_index} started job "
                        f"{event.job_id} at {event.cycle} while "
                        "already occupied"
                    )
                flush(event.core_index)
            open_windows[event.core_index] = event
        elif isinstance(event, JobCompleted):
            close(event.core_index, event.job_id, event.cycle,
                  completed=True)
        elif isinstance(event, JobPreempted):
            close(event.core_index, event.job_id, event.cycle,
                  completed=False)
    # Truncated trace: close what is still running at its scheduled end.
    for core, started in sorted(open_windows.items()):
        timeline.setdefault(core, []).append(
            ExecutionSegment(
                core_index=core,
                job_id=started.job_id,
                benchmark=started.benchmark,
                category=started.category,
                start_cycle=started.cycle,
                end_cycle=started.cycle + started.service_cycles,
                completed=False,
            )
        )
    return {core: timeline[core] for core in sorted(timeline)}


def decision_breakdown(
    events: Sequence[TraceEvent],
) -> Dict[str, Dict[str, float]]:
    """Energy attributed to each dispatch category, refunds applied.

    Returns ``category -> {executions, completions, preemptions,
    dynamic_nj, static_nj, overhead_nj, total_nj}`` for the categories
    in :data:`~repro.obs.events.CATEGORIES`, plus a ``"stall"`` row
    carrying only the explicit stall-decision count.
    """
    breakdown: Dict[str, Dict[str, float]] = {
        category: {
            "executions": 0.0,
            "completions": 0.0,
            "preemptions": 0.0,
            "dynamic_nj": 0.0,
            "static_nj": 0.0,
            "overhead_nj": 0.0,
        }
        for category in CATEGORIES
    }
    stalls = 0
    for event in events:
        if isinstance(event, EnergyAccrued):
            row = breakdown[event.category]
            row["executions"] += 1
            row["dynamic_nj"] += event.dynamic_nj
            row["static_nj"] += event.static_nj
            row["overhead_nj"] += event.overhead_nj
        elif isinstance(event, JobCompleted):
            breakdown[event.category]["completions"] += 1
        elif isinstance(event, JobPreempted):
            row = breakdown[event.category]
            row["preemptions"] += 1
            row["dynamic_nj"] -= event.refunded_dynamic_nj
            row["static_nj"] -= event.refunded_static_nj
            row["overhead_nj"] -= event.refunded_overhead_nj
        elif isinstance(event, StallDecision):
            stalls += 1
    for row in breakdown.values():
        row["total_nj"] = (
            row["dynamic_nj"] + row["static_nj"] + row["overhead_nj"]
        )
    breakdown["stall"] = {"decisions": float(stalls)}
    return breakdown


def trace_summary(events: Sequence[TraceEvent]) -> Dict[str, int]:
    """Headline counts of a trace (event totals by meaning)."""
    kinds: Dict[str, int] = {}
    for event in events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    last_cycle = max((e.cycle for e in events), default=0)
    predictions = [e for e in events if isinstance(e, SizePredicted)]
    hits = sum(1 for e in predictions if e.size_kb == e.best_size_kb)
    return {
        "events": len(events),
        "jobs_arrived": kinds.get(JobArrived.kind, 0),
        "jobs_completed": kinds.get(JobCompleted.kind, 0),
        "profiling_runs": kinds.get(ProfilingCompleted.kind, 0),
        "predictions": len(predictions),
        "prediction_hits": hits,
        "stall_decisions": kinds.get(StallDecision.kind, 0),
        "non_best_dispatches": kinds.get("non_best_dispatch", 0),
        "tuning_steps": kinds.get("tuning_step", 0),
        "reconfigurations": kinds.get(ConfigInstalled.kind, 0),
        "preemptions": kinds.get(JobPreempted.kind, 0),
        "last_cycle": last_cycle,
    }


def render_trace_report(
    events: Sequence[TraceEvent], *, lenient: bool = False
) -> str:
    """Human-readable report: summary, decision breakdown, timelines.

    Pass ``lenient=True`` for sampled traces (see
    :func:`per_core_timeline`); the report header then marks the
    counts as sampled lower bounds.
    """
    from repro.analysis.report import format_table

    summary = trace_summary(events)
    lines = [
        ("sampled " if lenient else "")
        + f"trace: {summary['events']} events, "
        f"{summary['jobs_arrived']} arrivals, "
        f"{summary['jobs_completed']} completions, "
        f"last cycle {summary['last_cycle']:,}",
        f"decisions: {summary['stall_decisions']} stalls, "
        f"{summary['non_best_dispatches']} non-best dispatches, "
        f"{summary['tuning_steps']} tuning steps, "
        f"{summary['preemptions']} preemptions",
    ]
    if summary["predictions"]:
        rate = summary["prediction_hits"] / summary["predictions"]
        lines.append(
            f"predictor: {summary['prediction_hits']}/"
            f"{summary['predictions']} best-size hits "
            f"({rate * 100:.1f}% vs characterisation ground truth)"
        )

    breakdown = decision_breakdown(events)
    rows = []
    for category in CATEGORIES:
        row = breakdown[category]
        rows.append(
            (
                category,
                int(row["executions"]),
                int(row["preemptions"]),
                f"{row['dynamic_nj'] / 1e3:.1f}",
                f"{row['static_nj'] / 1e3:.1f}",
                f"{row['total_nj'] / 1e3:.1f}",
            )
        )
    rows.append(
        ("stall", int(breakdown["stall"]["decisions"]), 0, "-", "-", "-")
    )
    lines.append("")
    lines.append("decision breakdown (energy attributed per dispatch kind):")
    lines.append(
        format_table(
            (
                "decision",
                "executions",
                "preempted",
                "dynamic uJ",
                "static uJ",
                "total uJ",
            ),
            rows,
        )
    )

    timeline = per_core_timeline(events, lenient=lenient)
    if timeline:
        span = max(summary["last_cycle"], 1)
        core_rows = []
        for core, segments in timeline.items():
            busy = sum(s.cycles for s in segments)
            categories = {}
            for segment in segments:
                categories[segment.category] = (
                    categories.get(segment.category, 0) + 1
                )
            mix = ", ".join(
                f"{count}x {name}"
                for name, count in sorted(categories.items())
            )
            core_rows.append(
                (
                    f"core {core}",
                    len(segments),
                    f"{busy:,}",
                    f"{busy / span * 100:.1f}%",
                    mix,
                )
            )
        lines.append("")
        lines.append("per-core timeline:")
        lines.append(
            format_table(
                ("core", "executions", "busy cycles", "utilisation", "mix"),
                core_rows,
            )
        )
    return "\n".join(lines)
