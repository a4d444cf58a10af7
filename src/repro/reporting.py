"""One-call reproduction report.

:func:`write_report` regenerates the paper's evaluation (Figures 6/7,
the ANN-accuracy, profiling-overhead and tuning-efficiency claims) and
writes a markdown report plus machine-readable exports into a
directory.  Used by ``examples/reproduce_paper.py`` and
``python -m repro reproduce``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.analysis import (
    format_table,
    jobs_to_csv,
    normalize_results,
    percent_change,
    render_figure6,
    render_figure7,
    results_to_csv,
    results_to_json,
)
from repro.cache import CACHE_SIZES_KB
from repro.core.tuning import TuningSession
from repro.experiment import default_predictor, default_store, run_four_systems
from repro.workloads import eembc_suite, uniform_arrivals

__all__ = ["write_report"]


def _ann_accuracy_section(store, predictor, lines) -> None:
    lines.append("\n## ANN prediction quality (paper §IV.D: < 2 %)\n")
    rows = []
    degradations = []
    for spec in eembc_suite():
        char = store.get(spec.name)
        predicted = predictor.predict_size_kb(spec.name, char.counters)
        degradation = char.energy_degradation(
            char.best_config_for_size(predicted)
        )
        degradations.append(degradation)
        rows.append((spec.name, char.best_size_kb(), predicted,
                     f"{degradation * 100:.2f}%"))
    lines.append("```")
    lines.append(format_table(
        ("benchmark", "true best (KB)", "predicted (KB)", "degradation"),
        rows,
    ))
    lines.append("```")
    lines.append(
        f"\nmean energy degradation: {np.mean(degradations) * 100:.2f}% "
        f"(paper claim: < 2%)"
    )


def _tuning_section(store, lines) -> None:
    lines.append("\n## Tuning-heuristic efficiency (paper §VI)\n")
    counts = []
    hits = 0
    pairs = 0
    for spec in eembc_suite():
        char = store.get(spec.name)
        for size in CACHE_SIZES_KB:
            session = TuningSession(size_kb=size)
            while not session.done:
                config = session.next_config()
                session.record(config, char.result(config).total_energy_nj)
            counts.append(session.exploration_count)
            hits += session.best_config == char.best_config_for_size(size)
            pairs += 1
    lines.append(
        f"per-core-size explorations: min {min(counts)}, max {max(counts)} "
        f"(paper: 3-9 of 18); true best found in {hits}/{pairs} sweeps"
    )


def write_report(
    output_dir: Union[str, Path] = "results",
    *,
    n_jobs: int = 5000,
    seed: int = 1,
    progress=print,
) -> Path:
    """Regenerate the evaluation into ``output_dir``; returns its path.

    Writes ``REPORT.md``, ``summary.csv``, ``results.json`` (with
    per-job records) and ``jobs_proposed.csv``.
    """
    if n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive, got {n_jobs}")
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.time()

    progress("1/4 characterising the suite...")
    store = default_store()
    progress("2/4 training the bagged-ANN predictor...")
    predictor = default_predictor(store, seed=seed)
    progress(f"3/4 simulating the four systems ({n_jobs} jobs)...")
    arrivals = uniform_arrivals(eembc_suite(), count=n_jobs, seed=seed)
    results = run_four_systems(arrivals, store, predictor)
    progress("4/4 writing the report...")

    lines = [
        "# Reproduction report — Dynamic Scheduling on Heterogeneous "
        "Multicores (DATE 2019)",
        f"\n{n_jobs} uniform arrivals, seed {seed}; see EXPERIMENTS.md for "
        "paper-vs-measured discussion.\n",
        "## Figure 6 (energy vs base system)\n",
        "```",
        render_figure6(results),
        "```",
        "\n## Figure 7 (cycles and energy vs optimal system)\n",
        "```",
        render_figure7(results),
        "```",
    ]

    normalized = normalize_results(results, "base")
    saving = -percent_change(normalized["proposed"]["total_energy"])
    lines.append(
        f"\n**Headline**: the proposed system reduces total energy by "
        f"{saving:.1f}% vs the base system (paper: ~28-29%)."
    )

    _ann_accuracy_section(store, predictor, lines)
    _tuning_section(store, lines)

    proposed = results["proposed"]
    lines.append("\n## Profiling overhead (paper §VI: < 0.5 %)\n")
    lines.append(
        f"counter overhead: "
        f"{proposed.profiling_overhead_nj / proposed.total_energy_nj * 100:.4f}% "
        f"of total energy over {proposed.profiling_executions} profiling runs"
    )

    (out / "REPORT.md").write_text("\n".join(lines) + "\n")
    results_to_csv(results, out / "summary.csv")
    results_to_json(results, out / "results.json", include_jobs=True)
    jobs_to_csv(proposed, out / "jobs_proposed.csv")

    progress(
        f"wrote {out}/REPORT.md, summary.csv, results.json, "
        f"jobs_proposed.csv in {time.time() - started:.0f}s"
    )
    return out
