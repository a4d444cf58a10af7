"""P1 — characterisation engine speed: stack distance vs per-config replay.

The headline number of the performance work: one full-suite
characterisation (15 benchmarks x 18 configurations) measured with the
single-pass stack-distance engine against the seed implementation's
per-configuration trace replay (``characterize_per_config`` in
``tests/oracles.py``).  Both sides generate the traces and evaluate the
energy model, so the ratio includes trace generation and energy
modelling — it is the end-to-end speedup a user sees, not a
cherry-picked kernel ratio.

Run with ``pytest benchmarks/test_bench_characterization_speed.py
--benchmark-only -s`` to see the throughput table.
"""

from conftest import interleaved_min_seconds

from repro.analysis import format_table
from repro.cache.config import DESIGN_SPACE
from repro.characterization import characterize_suite
from repro.workloads import eembc_suite
from tests.oracles import characterize_per_config

#: Required end-to-end advantage of the stack-distance engine.
MIN_SPEEDUP = 3.0

#: Interleaved timing rounds (see ``interleaved_min_seconds``).
ROUNDS = 3


def _legacy_suite(specs) -> dict:
    """The suite characterised by the per-configuration replay oracle."""
    return {
        spec.name: characterize_per_config(spec, DESIGN_SPACE, seed=0)
        for spec in specs
    }


def test_bench_characterization_speed(benchmark):
    specs = eembc_suite()

    # Warm both paths (imports, allocator) before timing anything.
    _legacy_suite(specs[:1])
    characterize_suite(specs[:1], seed=0)

    best = interleaved_min_seconds(
        {
            "legacy": lambda: _legacy_suite(specs),
            "stackdist": lambda: characterize_suite(specs, seed=0),
        },
        ROUNDS,
    )
    legacy_seconds = best["legacy"]
    stackdist_seconds = best["stackdist"]
    speedup = legacy_seconds / stackdist_seconds

    # pytest-benchmark records the new engine as the tracked series.
    result = benchmark.pedantic(
        lambda: characterize_suite(specs, seed=0),
        rounds=ROUNDS,
        iterations=1,
    )
    accesses = sum(c.counters.mem_accesses for c in result.values())

    print()
    print("Full-suite characterisation (15 benchmarks x 18 configs)")
    print(format_table(
        ("engine", "wall s", "traces/s", "accesses/s"),
        (
            (
                "legacy (per-config replay)",
                f"{legacy_seconds:.3f}",
                f"{len(specs) / legacy_seconds:.1f}",
                f"{accesses / legacy_seconds:,.0f}",
            ),
            (
                "stackdist (single pass)",
                f"{stackdist_seconds:.3f}",
                f"{len(specs) / stackdist_seconds:.1f}",
                f"{accesses / stackdist_seconds:,.0f}",
            ),
        ),
    ))
    print(f"speedup: {speedup:.2f}x (required: >= {MIN_SPEEDUP:.1f}x)")

    # Same numbers, much faster.
    legacy = _legacy_suite(specs)
    assert set(legacy) == set(result)
    for name in legacy:
        assert legacy[name].counters == result[name].counters
        for config in legacy[name].results:
            assert (
                legacy[name].result(config).stats
                == result[name].result(config).stats
            )

    assert speedup >= MIN_SPEEDUP
