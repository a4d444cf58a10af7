"""S1 — simulation engine speed: struct-of-arrays vs reference loop.

The headline number of the fast-engine work: the fig6-style proposed
system run (1500 jobs, paper arrival intensity) measured on the
struct-of-arrays engine (:mod:`repro.sim.fast`) against the reference
event loop.  Both engines consume the same arrival stream through the
same :class:`SchedulerSimulation` front end and must return bit-identical
:class:`SimulationResult` objects — the speedup is pure engine, not a
change in what gets computed.

Timing protocol: simulations are constructed outside the timed region
(the fast engine precompiles its tables at construction), rounds are
interleaved with the engine that runs first alternating, so drift hits
both engines alike, and the ratio is of the per-side minima
(``interleaved_min_seconds``) — the least-noise estimate of the true
cost ratio.

The measured numbers are also written to ``BENCH_simulation_speed.json``
so CI can upload them as an artifact.

Run with ``pytest benchmarks/test_bench_simulation_speed.py -s`` to see
the throughput table.
"""

import json
from pathlib import Path

from conftest import interleaved_min_seconds

from repro.analysis import format_table
from repro.core import (
    OraclePredictor,
    SchedulerSimulation,
    make_policy,
    paper_system,
)
from repro.workloads import eembc_suite, uniform_arrivals

#: Required end-to-end advantage of the struct-of-arrays engine.
MIN_SPEEDUP = 10.0

#: Timing rounds x repetitions: each engine runs ROUNDS * REPS fresh
#: simulations, interleaved with the other engine's.
ROUNDS = 3
REPS = 3

N_JOBS = 1500
SEED = 4


def _make_sim(store, engine):
    return SchedulerSimulation(
        paper_system(),
        make_policy("proposed"),
        store,
        predictor=OraclePredictor(store),
        engine=engine,
    )


def _prebuilt_runs(store, engine, arrivals, count):
    """A callable running one of ``count`` simulations built up front,
    so construction stays outside the timed region."""
    sims = [_make_sim(store, engine) for _ in range(count)]
    return lambda: sims.pop().run(arrivals)


def test_bench_simulation_speed(benchmark, store):
    arrivals = uniform_arrivals(
        eembc_suite(), count=N_JOBS, seed=SEED,
        mean_interarrival_cycles=56_000,
    )

    # Warm both paths (imports, allocator, branch caches) before timing.
    ref_result = _make_sim(store, "reference").run(arrivals)
    fast_result = _make_sim(store, "fast").run(arrivals)

    # Oracle equivalence: the speedup must not change a single bit.
    assert fast_result == ref_result, "fast engine diverged from reference"
    assert ref_result.jobs_completed == N_JOBS

    # Interleaved rounds: drift (thermal, GC pressure) hits both engines.
    best = interleaved_min_seconds(
        {
            engine: _prebuilt_runs(store, engine, arrivals, ROUNDS * REPS)
            for engine in ("reference", "fast")
        },
        ROUNDS * REPS,
    )
    ref_seconds = best["reference"]
    fast_seconds = best["fast"]
    speedup = ref_seconds / fast_seconds

    # pytest-benchmark records the fast engine as the tracked series.
    benchmark.pedantic(
        lambda: _make_sim(store, "fast").run(arrivals),
        rounds=ROUNDS,
        iterations=1,
    )

    ref_jps = N_JOBS / ref_seconds
    fast_jps = N_JOBS / fast_seconds

    print()
    print(f"Proposed-system run ({N_JOBS} jobs, seed {SEED}, "
          f"56k mean interarrival)")
    print(format_table(
        ("engine", "wall ms", "jobs/s"),
        (
            ("reference (event loop)", f"{ref_seconds * 1e3:.1f}",
             f"{ref_jps:,.0f}"),
            ("fast (struct-of-arrays)", f"{fast_seconds * 1e3:.1f}",
             f"{fast_jps:,.0f}"),
        ),
    ))
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")

    payload = {
        "benchmark": "simulation_speed",
        "jobs": N_JOBS,
        "seed": SEED,
        "mean_interarrival_cycles": 56_000,
        "rounds": ROUNDS * REPS,
        "reference_seconds": ref_seconds,
        "fast_seconds": fast_seconds,
        "reference_jobs_per_second": ref_jps,
        "fast_jobs_per_second": fast_jps,
        "speedup": speedup,
        "bit_identical": True,
        "min_speedup_required": MIN_SPEEDUP,
    }
    Path("BENCH_simulation_speed.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"fast engine speedup {speedup:.2f}x below the "
        f"{MIN_SPEEDUP:.1f}x bar"
    )
