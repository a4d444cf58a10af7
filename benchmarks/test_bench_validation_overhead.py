"""V1 — validation overhead: the ledger must be cheap and invisible.

Two contracts of the `repro.validate` layer (docs/validation.md):

* **non-perturbation** — a run with ``validate=True`` produces a
  ``SimulationResult`` bit-identical to an unvalidated one (the ledger
  only mirrors charges; it never participates in them);
* **bounded cost** — the validator does O(cores) work per engine event
  plus one O(jobs) conservation pass at end of run, so the fig6
  kernel's wall time with validation enabled must stay within 15 % of
  the default path's, and the default (``validate=False``) path adds a
  single attribute check per hook site (~0 cost).
"""

from conftest import interleaved_min_seconds

from repro.core import (
    OraclePredictor,
    SchedulerSimulation,
    make_policy,
    paper_system,
)
from repro.workloads import eembc_suite, uniform_arrivals


def make_run(store, validate=False):
    arrivals = uniform_arrivals(eembc_suite(), count=1000, seed=2)
    # Pinned to the reference engine: this benchmark measures what the
    # *validator* costs, so both sides must run the hook-bearing loop.
    # With engine="auto" the unvalidated side would silently switch to
    # the hook-free fast engine and blow the 15% budget with a speedup
    # that test_bench_simulation_speed measures on purpose.
    sim = SchedulerSimulation(
        paper_system(),
        make_policy("proposed"),
        store,
        predictor=OraclePredictor(store),
        validate=validate,
        engine="reference",
    )
    return sim.run(arrivals)


def test_bench_validation_overhead(benchmark, store):
    # Timed kernel: the validated path.
    validated = benchmark.pedantic(
        lambda: make_run(store, validate=True), rounds=3, iterations=1
    )
    assert validated.jobs_completed == 1000

    # Non-perturbation: the ledger changes nothing observable.
    plain = make_run(store)
    assert validated == plain, "validation perturbed the simulation"

    # Relative cost of the invariant checks + ledger vs the default.
    best = interleaved_min_seconds(
        {
            "plain": lambda: make_run(store),
            "validated": lambda: make_run(store, validate=True),
        },
        rounds=3,
    )
    plain_seconds = best["plain"]
    validated_seconds = best["validated"]
    overhead = validated_seconds / plain_seconds - 1.0

    print()
    print(f"unvalidated run: {plain_seconds * 1e3:.1f} ms")
    print(f"validated run:   {validated_seconds * 1e3:.1f} ms "
          f"({overhead * 100:+.1f}%)")

    assert overhead < 0.15, (
        f"validation overhead {overhead * 100:.1f}% exceeds the 15% budget"
    )
