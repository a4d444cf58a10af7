"""A4 — extension: a private L2 behind the configurable L1 (§VIII).

The paper's future work lists "additional levels of private and shared
caches".  The architecture (its Figure 1) already draws a private,
non-configurable L2 per core; the energy model only sees the L1, so the
evaluation runs without it.  This benchmark quantifies what the L2 would
change: off-chip (memory) accesses per benchmark with and without the
default 32 KB private L2, across representative L1 configurations.  The
timed kernel is one full suite pass through the two-level hierarchy.
"""

from repro.analysis import format_table
from repro.cache import CacheConfig
from repro.workloads import eembc_suite
from tests.ablation.caches import CacheHierarchy, DEFAULT_L2_CONFIG

L1_CONFIGS = (
    CacheConfig(2, 1, 32),
    CacheConfig(8, 4, 64),
)


def memory_accesses(spec, l1_config, with_l2):
    trace = spec.generate_trace(seed=0)
    hierarchy = CacheHierarchy(
        l1_config, DEFAULT_L2_CONFIG if with_l2 else None
    )
    stats = hierarchy.run_trace(trace.addresses, trace.writes)
    return stats.memory_accesses


def test_bench_ablation_l2(benchmark):
    suite = eembc_suite()[:6]

    benchmark.pedantic(
        lambda: [memory_accesses(s, L1_CONFIGS[0], True) for s in suite],
        rounds=1, iterations=1,
    )

    rows = []
    reductions = []
    for spec in suite:
        row = [spec.name]
        for l1 in L1_CONFIGS:
            without = memory_accesses(spec, l1, with_l2=False)
            with_l2 = memory_accesses(spec, l1, with_l2=True)
            reduction = 1.0 - with_l2 / without if without else 0.0
            reductions.append((spec.name, l1, without, with_l2, reduction))
            row.append(f"{without} -> {with_l2} (-{reduction * 100:.0f}%)")
        rows.append(row)
    print()
    print(format_table(
        ("benchmark",) + tuple(f"memory accesses @ L1 {c.name}"
                               for c in L1_CONFIGS),
        rows,
    ))

    # The L2 never increases memory traffic, and it rescues the small L1
    # substantially for at least one capacity-bound benchmark.
    for _, _, without, with_l2, _ in reductions:
        assert with_l2 <= without
    small_l1 = [r for (_, l1, _, _, r) in reductions if l1.size_kb == 2]
    assert max(small_l1) > 0.5
