"""S2 — streaming engine throughput and memory bound at 1M jobs.

The headline number of the open-system work: one million Poisson
arrivals streamed through :class:`~repro.sim.stream.StreamingSimulation`
in bounded memory must sustain jobs/sec within ``MAX_SLOWDOWN`` of the
closed-batch fast engine on the same (policy, system, load).  The
stream never materialises its arrivals or retains per-job records, so
peak RSS growth over the run must stay under ``MAX_RSS_GROWTH_MIB``
regardless of job count — that is what makes the 1M-job scale runnable
at all.

Measurement order matters: ``ru_maxrss`` is a process-lifetime
high-water mark, so one untimed 1M-job stream goes FIRST and its RSS
ceiling is asserted before any closed-batch run (which materialises
arrivals and job records and would raise the mark).

Throughput is then timed with the benchmarks' one estimator,
``interleaved_min_seconds``: per-side minima over alternating rounds of
the 1M-job stream, the 200k-job batch and a 200k-job stream.  The gate
compares jobs/sec of the first two.  The equal-count ratio (200k stream
vs 200k batch) is printed and recorded next to it, so a difference in
job counts cannot hide or fake a slowdown.  Each timed side includes
its engine's construction, which is small next to the runs.

The measured numbers are written to ``BENCH_streaming_throughput.json``
so CI can upload them as an artifact.

Run with ``pytest benchmarks/test_bench_streaming_throughput.py -s`` to
see the throughput table.
"""

import json
import resource
from pathlib import Path

from conftest import interleaved_min_seconds

from repro.analysis import format_table
from repro.core import (
    OraclePredictor,
    SchedulerSimulation,
    make_policy,
    paper_system,
)
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads import PoissonProcess, eembc_suite, poisson_arrivals

#: Streamed jobs (the acceptance floor is one million).
STREAM_JOBS = 1_000_000

#: Closed-batch comparison size — large enough for a stable jobs/sec
#: estimate, small enough to keep the total benchmark wall time sane.
#: The equal-count stream runs this many jobs too.
BATCH_JOBS = 200_000

#: Alternating timing rounds (see ``interleaved_min_seconds``).
ROUNDS = 3

#: The stream may be at most this factor slower than the closed batch.
MAX_SLOWDOWN = 1.5

#: Peak-RSS growth allowed across the 1M-job stream.  A linear engine
#: (arrival list + per-job records, ~150 B/job) would add ~300 MiB.
MAX_RSS_GROWTH_MIB = 256

SEED = 1
MEAN_GAP = 56_000.0


def _rss_mib() -> float:
    """Process peak RSS in MiB (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_stream(store, jobs):
    """One streaming run: ``(result, sim)``."""
    streaming = StreamingSimulation(
        paper_system(),
        make_policy("proposed"),
        store,
        predictor=OraclePredictor(store),
        config=StreamConfig(max_jobs=jobs),
    )
    process = PoissonProcess(
        eembc_suite(), mean_interarrival_cycles=MEAN_GAP, seed=SEED
    )
    return streaming.run(process), streaming


def _run_batch(store, arrivals):
    """One closed-batch fast-engine run: its result."""
    sim = SchedulerSimulation(
        paper_system(),
        make_policy("proposed"),
        store,
        predictor=OraclePredictor(store),
        engine="fast",
    )
    return sim.run(arrivals)


def test_bench_streaming_throughput(benchmark, store):
    # Warm the path (imports, allocator, characterisation rows) with a
    # short stream, then take the RSS baseline.
    _run_stream(store, 20_000)
    rss_before = _rss_mib()

    # 1M jobs FIRST: ru_maxrss only ever rises, so the stream's memory
    # ceiling must be read before the batch run inflates the mark.
    stream_result, streaming = _run_stream(store, STREAM_JOBS)
    rss_after = _rss_mib()
    rss_growth = rss_after - rss_before

    assert stream_result.jobs_completed == STREAM_JOBS
    slots = len(streaming._s["jbid"])
    # O(cores + window) job slots, not O(jobs): recycling must hold.
    assert slots < 10_000, (
        f"slot table grew to {slots} entries over {STREAM_JOBS} jobs"
    )
    assert rss_growth < MAX_RSS_GROWTH_MIB, (
        f"streaming 1M jobs grew peak RSS by {rss_growth:.0f} MiB "
        f"(allowed: {MAX_RSS_GROWTH_MIB} MiB)"
    )

    # Closed-batch comparison (materialised arrivals, retained
    # records); this first, untimed run also warms the batch path.
    arrivals = poisson_arrivals(
        eembc_suite(), count=BATCH_JOBS,
        mean_interarrival_cycles=MEAN_GAP, seed=SEED,
    )
    assert _run_batch(store, arrivals).jobs_completed == BATCH_JOBS

    best = interleaved_min_seconds(
        {
            "stream": lambda: _run_stream(store, STREAM_JOBS),
            "batch": lambda: _run_batch(store, arrivals),
            "stream_equal": lambda: _run_stream(store, BATCH_JOBS),
        },
        ROUNDS,
    )
    stream_seconds = best["stream"]
    batch_seconds = best["batch"]
    equal_seconds = best["stream_equal"]
    stream_jps = STREAM_JOBS / stream_seconds
    batch_jps = BATCH_JOBS / batch_seconds
    equal_jps = BATCH_JOBS / equal_seconds
    slowdown = batch_jps / stream_jps
    equal_count_slowdown = batch_jps / equal_jps

    # pytest-benchmark tracks a short stream as the recorded series
    # (full 1M rounds would dominate the suite's wall time).
    benchmark.pedantic(
        lambda: _run_stream(store, 20_000), rounds=3, iterations=1
    )

    print()
    print(f"Proposed-system throughput (seed {SEED}, "
          f"{MEAN_GAP:.0f} mean interarrival, best of {ROUNDS} "
          f"alternating rounds)")
    print(format_table(
        ("engine", "jobs", "wall s", "jobs/s"),
        (
            ("fast (closed batch)", f"{BATCH_JOBS:,}",
             f"{batch_seconds:.1f}", f"{batch_jps:,.0f}"),
            ("streaming (open system)", f"{STREAM_JOBS:,}",
             f"{stream_seconds:.1f}", f"{stream_jps:,.0f}"),
            ("streaming (equal count)", f"{BATCH_JOBS:,}",
             f"{equal_seconds:.1f}", f"{equal_jps:,.0f}"),
        ),
    ))
    print(f"slowdown: {slowdown:.2f}x (allowed: <= {MAX_SLOWDOWN:.1f}x); "
          f"equal-count slowdown: {equal_count_slowdown:.2f}x; "
          f"peak RSS growth {rss_growth:.0f} MiB over {STREAM_JOBS:,} "
          f"jobs, {slots} job slots")

    payload = {
        "benchmark": "streaming_throughput",
        "stream_jobs": STREAM_JOBS,
        "batch_jobs": BATCH_JOBS,
        "seed": SEED,
        "mean_interarrival_cycles": MEAN_GAP,
        "rounds": ROUNDS,
        "stream_seconds": stream_seconds,
        "batch_seconds": batch_seconds,
        "equal_count_stream_seconds": equal_seconds,
        "stream_jobs_per_second": stream_jps,
        "batch_jobs_per_second": batch_jps,
        "equal_count_stream_jobs_per_second": equal_jps,
        "slowdown": slowdown,
        "max_slowdown_allowed": MAX_SLOWDOWN,
        "equal_count_slowdown": equal_count_slowdown,
        "rss_growth_mib": rss_growth,
        "max_rss_growth_mib": MAX_RSS_GROWTH_MIB,
        "job_slots": slots,
    }
    Path("BENCH_streaming_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert slowdown <= MAX_SLOWDOWN, (
        f"streaming is {slowdown:.2f}x slower than the closed batch "
        f"(allowed: {MAX_SLOWDOWN:.1f}x)"
    )
