"""S3 — sampled telemetry must cost <= 5 % on the 1M-job stream.

Telemetry's whole premise is that sampling is cheap enough to leave on
for the long runs it exists to observe: the engines pay one integer
compare per completion when it is off, and only touch the sink every
``sample_every`` completions when it is on.  This benchmark pins
that premise at the ROADMAP's headline scale: a one-million-job
streaming run with JSONL telemetry + sampled tracing attached must
finish within ``MAX_OVERHEAD`` of the telemetry-off run — and produce
the bit-identical :class:`~repro.sim.stream.StreamResult`, because a
telemetry layer that perturbs the simulation is wrong long before it
is slow.

Shared-host noise dwarfs the true cost (one sample is ~20 us and the
streaming engine takes ~1000 of them per million jobs), so a single
off-then-on measurement can swing past the gate on machine drift
alone.  The harness therefore alternates telemetry-off and
telemetry-on rounds and gates on ``min(on) / min(off)`` — interleaving
exposes both sides to the same drift and the minimum is the classic
robust estimator for "how fast can this code actually go".

The measured numbers are written to ``BENCH_telemetry_overhead.json``
so CI can upload them as an artifact (``repro bench report`` folds it
into the perf-trajectory table).

Run with ``pytest benchmarks/test_bench_telemetry_overhead.py -s`` to
see the comparison table.
"""

import dataclasses
import json
import time
from pathlib import Path

from repro.analysis import format_table
from repro.core import OraclePredictor, make_policy, paper_system
from repro.obs import Telemetry
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads import PoissonProcess, eembc_suite

#: Streamed jobs (matches the streaming-throughput headline scale).
STREAM_JOBS = 1_000_000

#: Telemetry-on wall time may be at most this factor of telemetry-off.
MAX_OVERHEAD = 1.05

#: Alternating off/on measurement rounds; the gate compares the
#: per-side minima so host drift cannot masquerade as overhead.  The
#: development container shows bursty ±15 % run-to-run noise against a
#: true overhead of ~1.5 %, so each side needs several shots at a
#: clean run.
ROUNDS = 5

#: Sampled-trace stride: one typed event per 10k dispatches and
#: completions — dense enough to exercise the trace path ~200 times.
TRACE_EVERY = 10_000

SEED = 1
MEAN_GAP = 56_000.0


def _run_stream(store, jobs, telemetry=None):
    """One construction-excluded streaming run: (seconds, result)."""
    streaming = StreamingSimulation(
        paper_system(),
        make_policy("proposed"),
        store,
        predictor=OraclePredictor(store),
        config=StreamConfig(max_jobs=jobs),
        telemetry=telemetry,
    )
    process = PoissonProcess(
        eembc_suite(), mean_interarrival_cycles=MEAN_GAP, seed=SEED
    )
    start = time.perf_counter()
    result = streaming.run(process)
    return time.perf_counter() - start, result


def test_bench_telemetry_overhead(benchmark, store, tmp_path):
    # Warm the path (imports, allocator, characterisation rows).
    _run_stream(store, 20_000)

    off_times, on_times = [], []
    off_result = on_result = None
    last_telemetry = None
    for _ in range(ROUNDS):
        seconds, off_result = _run_stream(store, STREAM_JOBS)
        off_times.append(seconds)

        telemetry = Telemetry(
            out=tmp_path / "telemetry.jsonl",
            trace_out=tmp_path / "sampled.jsonl",
            trace_every=TRACE_EVERY,
        )
        seconds, on_result = _run_stream(
            store, STREAM_JOBS, telemetry=telemetry
        )
        telemetry.close()
        on_times.append(seconds)

        # Non-perturbation before performance: identical results,
        # every round.
        assert dataclasses.asdict(on_result) == dataclasses.asdict(
            off_result
        )
        last_telemetry = telemetry

    telemetry = last_telemetry
    assert telemetry.samples > 100  # one per 1000 completions
    assert telemetry.trace_events > 100

    off_seconds = min(off_times)
    on_seconds = min(on_times)
    overhead = on_seconds / off_seconds
    off_jps = STREAM_JOBS / off_seconds
    on_jps = STREAM_JOBS / on_seconds

    # pytest-benchmark tracks a short telemetry-on stream as the
    # recorded series (full 1M rounds would dominate the wall time).
    def _short():
        tel = Telemetry(out=tmp_path / "short.jsonl")
        try:
            return _run_stream(store, 20_000, telemetry=tel)
        finally:
            tel.close()

    benchmark.pedantic(_short, rounds=3, iterations=1)

    print()
    print(f"Streaming telemetry overhead (seed {SEED}, "
          f"{STREAM_JOBS:,} jobs, best of {ROUNDS} alternating rounds)")
    print(format_table(
        ("run", "wall s", "jobs/s", "samples", "trace events"),
        (
            ("telemetry off", f"{off_seconds:.1f}", f"{off_jps:,.0f}",
             "-", "-"),
            ("telemetry on", f"{on_seconds:.1f}", f"{on_jps:,.0f}",
             f"{telemetry.samples:,}", f"{telemetry.trace_events:,}"),
        ),
    ))
    print(f"overhead: {overhead:.3f}x "
          f"(allowed: <= {MAX_OVERHEAD:.2f}x)")

    payload = {
        "benchmark": "telemetry_overhead",
        "stream_jobs": STREAM_JOBS,
        "seed": SEED,
        "mean_interarrival_cycles": MEAN_GAP,
        "trace_every": TRACE_EVERY,
        "rounds": ROUNDS,
        "off_seconds_per_round": off_times,
        "on_seconds_per_round": on_times,
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "off_jobs_per_second": off_jps,
        "on_jobs_per_second": on_jps,
        "samples": telemetry.samples,
        "trace_events": telemetry.trace_events,
        "bit_identical": True,
        "overhead": overhead,
        "max_overhead_allowed": MAX_OVERHEAD,
    }
    Path("BENCH_telemetry_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert overhead <= MAX_OVERHEAD, (
        f"telemetry-on stream is {overhead:.3f}x the telemetry-off "
        f"wall time (allowed: {MAX_OVERHEAD:.2f}x)"
    )
