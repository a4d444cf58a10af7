#!/usr/bin/env python3
"""Trace one scheduler run and reconstruct its decisions offline.

The observability layer (`repro.obs`) records every decision point of a
simulation — arrivals, profiling runs, size predictions, stall and
non-best dispatch decisions, tuning steps, reconfigurations and energy
attribution — as typed events streamed to byte-deterministic JSONL.
This example:

1. characterises a small four-benchmark suite,
2. runs the proposed system under contention with a
   :class:`JsonlRecorder` and a :class:`MetricsRegistry` attached,
3. reloads the trace from disk and rebuilds the per-core timeline and
   the decision breakdown (where the energy went, by dispatch
   category),
4. cross-checks the trace against the live metrics registry.

The same analysis, followed by the energy-conservation ledger replay,
is available from the command line::

    python -m repro report run.jsonl

Run with::

    python examples/trace_scheduling.py
"""

import tempfile
from pathlib import Path

from repro.characterization import CharacterizationStore, characterize_suite
from repro.core import (
    OraclePredictor,
    SchedulerSimulation,
    make_policy,
    paper_system,
)
from repro.obs import (
    JsonlRecorder,
    MetricsRegistry,
    decision_breakdown,
    per_core_timeline,
    read_trace,
    render_trace_report,
)
from repro.workloads import eembc_benchmark, uniform_arrivals

SUITE = ("puwmod", "idctrn", "pntrch", "a2time")


def main() -> None:
    specs = [eembc_benchmark(name) for name in SUITE]
    store = CharacterizationStore(characterize_suite(specs))
    arrivals = uniform_arrivals(
        specs, count=80, seed=7, mean_interarrival_cycles=25_000
    )

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "run.jsonl"
        recorder = JsonlRecorder(trace_path)
        registry = MetricsRegistry()
        try:
            sim = SchedulerSimulation(
                paper_system(),
                make_policy("proposed"),
                store,
                predictor=OraclePredictor(store),
                recorder=recorder,
                metrics=registry,
            )
            result = sim.run(arrivals)
        finally:
            recorder.close()

        print(f"simulated {result.jobs_completed} jobs; "
              f"wrote {recorder.count} events to {trace_path.name}")
        print()

        # Everything below uses only the file on disk.
        events = read_trace(trace_path)

    print(render_trace_report(events))

    # The trace carries enough to re-derive the run's accounting.
    timeline = per_core_timeline(events)
    busy = {core: sum(s.cycles for s in segments)
            for core, segments in timeline.items()}
    assert busy == result.core_busy_cycles, "trace disagrees with run"

    breakdown = decision_breakdown(events)
    scalars = registry.scalars()
    assert scalars["sim.non_best_decisions"] == result.non_best_decisions
    assert breakdown["stall"]["decisions"] == result.stall_decisions
    non_best_nj = breakdown["non_best"]["total_nj"]
    print()
    print(f"energy spent on non-best dispatches: "
          f"{non_best_nj / 1e3:.1f} uJ of "
          f"{result.total_energy_nj / 1e3:.1f} uJ total "
          f"({non_best_nj / result.total_energy_nj * 100:.1f}%)")
    print(f"stall decisions taken instead: "
          f"{int(breakdown['stall']['decisions'])}")
    print()
    print("trace, timeline, breakdown and metrics registry all agree.")


if __name__ == "__main__":
    main()
