"""Workload substrate: synthetic EEMBC-analogue benchmarks, trace
generation, hardware counters and arrival streams.
"""

from .arrivals import (
    STREAM_CHUNK,
    ArrivalProcess,
    DiurnalProcess,
    JobArrival,
    MMPPProcess,
    PoissonProcess,
    QoSProcess,
    make_process,
    poisson_arrivals,
    uniform_arrivals,
    with_qos,
)
from .benchmark import BenchmarkSpec, InstructionMix, Trace
from .dag import (
    TaskGraph,
    TaskSpec,
    check_graph_shape,
    dag_arrivals,
    describe_graphs,
    dump_graphs,
    generate_task_graphs,
    load_graphs,
)
from .counters import (
    ALL_COUNTER_NAMES,
    ANN_SELECTED_FEATURES,
    HardwareCounters,
    collect_counters,
)
from .eembc import EEMBC_DOMAINS, EEMBC_NAMES, eembc_benchmark, eembc_suite
from .locality import (
    miss_ratio_curve,
    reuse_distance_histogram,
    working_set_curve,
)
from .tracegen import (
    HotspotAccess,
    PhasedTraceMix,
    LoopedArray,
    PointerChase,
    RandomAccess,
    SequentialStream,
    StridedAccess,
    TraceComponent,
    TraceMix,
    interleave_chunks,
)

__all__ = [
    "ALL_COUNTER_NAMES",
    "ANN_SELECTED_FEATURES",
    "ArrivalProcess",
    "BenchmarkSpec",
    "DiurnalProcess",
    "MMPPProcess",
    "PoissonProcess",
    "QoSProcess",
    "STREAM_CHUNK",
    "EEMBC_DOMAINS",
    "EEMBC_NAMES",
    "HardwareCounters",
    "HotspotAccess",
    "InstructionMix",
    "JobArrival",
    "LoopedArray",
    "PhasedTraceMix",
    "PointerChase",
    "RandomAccess",
    "SequentialStream",
    "StridedAccess",
    "TaskGraph",
    "TaskSpec",
    "Trace",
    "TraceComponent",
    "TraceMix",
    "check_graph_shape",
    "collect_counters",
    "dag_arrivals",
    "describe_graphs",
    "dump_graphs",
    "generate_task_graphs",
    "load_graphs",
    "eembc_benchmark",
    "eembc_suite",
    "interleave_chunks",
    "make_process",
    "miss_ratio_curve",
    "poisson_arrivals",
    "reuse_distance_histogram",
    "uniform_arrivals",
    "with_qos",
    "working_set_curve",
]
