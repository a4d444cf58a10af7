"""O1 — observability overhead: tracing must never perturb or slow.

Two contracts of the `repro.obs` layer (docs/observability.md):

* **non-perturbation** — a fully traced run (JSONL recorder + metrics
  registry) produces a ``SimulationResult`` bit-identical to an
  untraced one, and two traced runs serialise to byte-identical JSONL;
* **near-zero default cost** — with the default ``NullRecorder`` every
  emission site short-circuits on ``recorder.enabled``, so the fig6
  kernel's wall time must stay within noise of the pre-observability
  code path.

The timed kernel is the fig6-style proposed-system run at 1000 jobs
with the default ``NullRecorder`` — the same kernel as
test_bench_fig6_energy_vs_base, so its history doubles as the
regression record for the observability hooks.
"""

from conftest import interleaved_min_seconds

from repro.core import (
    OraclePredictor,
    SchedulerSimulation,
    make_policy,
    paper_system,
)
from repro.obs import ListRecorder, MetricsRegistry, encode_event
from repro.workloads import eembc_suite, uniform_arrivals


def make_run(store, recorder=None, metrics=None):
    arrivals = uniform_arrivals(eembc_suite(), count=1000, seed=2)
    # Pinned to the reference engine: this benchmark measures what the
    # *hooks* cost, so both sides must run the hook-bearing loop.  With
    # engine="auto" the untraced side would silently switch to the
    # hook-free fast engine (benchmarks/test_bench_simulation_speed.py
    # measures that gap) and the ratio would conflate the two effects.
    sim = SchedulerSimulation(
        paper_system(),
        make_policy("proposed"),
        store,
        predictor=OraclePredictor(store),
        recorder=recorder,
        metrics=metrics,
        engine="reference",
    )
    return sim.run(arrivals)


def test_bench_tracing_overhead(benchmark, store):
    # Timed kernel: the default (NullRecorder) path.
    untraced = benchmark.pedantic(
        lambda: make_run(store), rounds=3, iterations=1
    )
    assert untraced.jobs_completed == 1000

    # Non-perturbation: full tracing changes nothing observable.
    recorder = ListRecorder()
    registry = MetricsRegistry()
    traced = make_run(store, recorder=recorder, metrics=registry)
    assert traced == untraced, "tracing perturbed the simulation"
    assert registry.scalars()["sim.jobs_completed"] == 1000.0

    # Determinism: a second traced run serialises byte-identically.
    second = ListRecorder()
    make_run(store, recorder=second)
    lines = [encode_event(e) for e in recorder.events]
    assert lines == [encode_event(e) for e in second.events]

    # Relative cost of full tracing vs the NullRecorder default.
    best = interleaved_min_seconds(
        {
            "null": lambda: make_run(store),
            "traced": lambda: make_run(store, recorder=ListRecorder(),
                                       metrics=MetricsRegistry()),
        },
        rounds=3,
    )
    null_seconds = best["null"]
    traced_seconds = best["traced"]
    overhead = traced_seconds / null_seconds - 1.0

    print()
    print(f"events per run: {len(lines)}")
    print(f"null-recorder run:  {null_seconds * 1e3:.1f} ms")
    print(f"fully traced run:   {traced_seconds * 1e3:.1f} ms "
          f"({overhead * 100:+.1f}%)")

    # Full tracing may cost real time (it materialises ~7 events per
    # job), but it must stay within the same order of magnitude; the
    # *default* path's budget is enforced by the fig6 benchmark history.
    assert overhead < 2.0
