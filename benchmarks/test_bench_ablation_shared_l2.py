"""A12 — future work: a shared L2 and inter-core interference (§VIII).

The paper's future work names "additional levels of private and shared
caches".  A4 covers the private L2; this ablation adds the shared case
and the phenomenon only sharing exhibits: one core's misses evicting
another core's working set.  Four memory-hungry benchmarks run
concurrently behind a shared L2, and each core's off-chip accesses are
compared with running alone — the interference factor.

Why it matters for the paper's method: per-application profiling (the
basis of the ANN's features and the profiling table's energies) is
measured in isolation; interference makes those measurements optimistic
exactly when the machine is busy, which is an assumption the paper's
MATLAB evaluation shares.  The timed kernel is one four-core shared
replay.
"""

from repro.analysis import format_table
from repro.cache import CacheConfig
from repro.workloads import eembc_benchmark
from tests.ablation.caches import SharedL2System, interference_penalty

HEAVY = ("cacheb", "matrix", "pntrch", "tblook")
LIGHT = ("puwmod", "bitmnp", "iirflt", "rspeed")
L1 = CacheConfig(2, 1, 32)
TRACE_LEN = 12_000


def traces_for(names):
    return [
        eembc_benchmark(name).generate_trace(0).addresses[:TRACE_LEN]
        for name in names
    ]


def test_bench_ablation_shared_l2(benchmark):
    heavy_traces = traces_for(HEAVY)
    light_traces = traces_for(LIGHT)

    benchmark.pedantic(
        lambda: SharedL2System([L1] * 4, CacheConfig(16, 4, 64)).run(
            heavy_traces
        ),
        rounds=1, iterations=1,
    )

    rows = []
    worst = {}
    typical = {}
    for label, names, traces in (
        ("4 memory-hungry cores", HEAVY, heavy_traces),
        ("4 small-working-set cores", LIGHT, light_traces),
    ):
        for l2_kb in (16, 32):
            penalties = interference_penalty(
                [L1] * 4, traces, CacheConfig(l2_kb, 4, 64)
            )
            ordered = sorted(penalties.values())
            worst[(label, l2_kb)] = ordered[-1]
            typical[(label, l2_kb)] = ordered[len(ordered) // 2]
            rows.append((
                label,
                f"{l2_kb} KB",
                *(f"{penalties[i]:.2f}x" for i in range(4)),
            ))
    print()
    print(format_table(
        ("workload", "shared L2", "core 1", "core 2", "core 3", "core 4"),
        rows,
    ))
    print("(per-core off-chip accesses vs running alone; 1.00x = no "
          "interference)")

    # Small working sets mostly fit together: the typical core is
    # untouched and even the worst (rspeed's streaming buffer) stays
    # far below the heavy cores' penalties.
    assert typical[("4 small-working-set cores", 16)] < 1.2
    assert worst[("4 small-working-set cores", 16)] < 2.5
    # Memory-hungry neighbours interfere heavily at 16 KB and a larger
    # shared L2 relieves (but does not eliminate) it.
    assert worst[("4 memory-hungry cores", 16)] > 3.0
    assert (
        worst[("4 memory-hungry cores", 32)]
        < worst[("4 memory-hungry cores", 16)]
    )
