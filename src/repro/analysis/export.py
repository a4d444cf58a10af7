"""Result export to CSV and JSON.

Downstream users typically want the raw numbers, not the text tables;
these helpers serialise :class:`~repro.core.results.SimulationResult`
objects (summary metrics and per-job records) with stdlib csv/json only.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Union

from repro.core.results import SimulationResult

__all__ = ["result_summary_dict", "results_to_json", "jobs_to_csv",
           "results_to_csv"]

#: Summary metrics exported per system, in column order.
SUMMARY_FIELDS = (
    "policy",
    "jobs_completed",
    "makespan_cycles",
    "idle_energy_nj",
    "busy_static_energy_nj",
    "dynamic_energy_nj",
    "total_energy_nj",
    "reconfig_energy_nj",
    "profiling_overhead_nj",
    "reconfig_cycles",
    "stall_decisions",
    "non_best_decisions",
    "tuning_executions",
    "profiling_executions",
    "preemption_count",
    "mean_waiting_cycles",
    "mean_turnaround_cycles",
    "deadline_jobs",
    "deadline_misses",
    "deadline_miss_rate",
)

#: Per-job record fields exported to CSV, in column order.
JOB_FIELDS = (
    "job_id",
    "benchmark",
    "arrival_cycle",
    "start_cycle",
    "completion_cycle",
    "core_index",
    "config_name",
    "profiled",
    "tuning",
    "energy_nj",
    "priority",
    "deadline_cycle",
    "preemptions",
)


def result_summary_dict(result: SimulationResult) -> dict:
    """Summary metrics of one run as a flat JSON-friendly dict."""
    return {name: getattr(result, name) for name in SUMMARY_FIELDS}


def results_to_json(
    results: Mapping[str, SimulationResult],
    path: Union[str, Path],
    *,
    include_jobs: bool = False,
) -> None:
    """Write one or more runs to a JSON file, compactly encoded.

    ``include_jobs`` additionally embeds every per-job record (large for
    paper-scale runs).  The file has no indentation or whitespace between
    tokens, so that :mod:`json`'s C encoder writes it; an indented dump
    goes through the pure-Python encoder, several times slower on
    per-job records.
    """
    blob = {}
    for name, result in results.items():
        entry = result_summary_dict(result)
        entry["exploration_counts"] = dict(result.exploration_counts)
        entry["predictions_kb"] = dict(result.predictions_kb)
        if include_jobs:
            entry["jobs"] = [
                {field: getattr(job, field) for field in JOB_FIELDS}
                for job in result.jobs
            ]
        blob[name] = entry
    Path(path).write_text(json.dumps(blob, separators=(",", ":")))


def jobs_to_csv(result: SimulationResult, path: Union[str, Path]) -> None:
    """Write one run's per-job records to a CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(JOB_FIELDS)
        for job in result.jobs:
            writer.writerow([getattr(job, field) for field in JOB_FIELDS])


def results_to_csv(
    results: Mapping[str, SimulationResult], path: Union[str, Path]
) -> None:
    """Write per-system summary rows to a CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_FIELDS)
        for result in results.values():
            writer.writerow(
                [getattr(result, field) for field in SUMMARY_FIELDS]
            )
