"""The simulation core: one object, one event loop.

:meth:`StreamingSimulation.advance` is the only copy of the scheduler's
hot loop outside the reference engine: profile once, predict the best
core, stall or run on a non-best core, tune — with the same policies,
event ordering and floating-point operation order as
:class:`~repro.core.simulation.SchedulerSimulation`.  The
:class:`StreamingSimulation` that owns it also holds the flat tables
the loop reads (interned configurations, characterisation rows, the
system layout), the knowledge state it updates, the run state and the
checkpoint.  :data:`CORE_POLICIES` is the only answer to "can the core
run this policy?".  A core runs arrivals once, one of two ways:

* **the open-system stream** (:meth:`StreamingSimulation.run`) against
  an *unbounded* :class:`~repro.workloads.arrivals.ArrivalProcess`, in
  bounded memory;
* **the closed batch** (:meth:`StreamingSimulation.run_batch`): a
  finite stream fed from a sorted list with ``retain_jobs=True``.

What the loop carries beyond the scheduler itself:

* **chunked refill** — arrivals are pulled one fixed chunk at a time
  (O(chunk) arrival memory) and admitted in generation order, which the
  processes guarantee is non-decreasing in time;
* **job-slot recycling** — per-job struct-of-arrays slots are returned
  to a free list when a job completes (unless ``retain_jobs`` asks for
  the full closed-batch :class:`~repro.core.results.SimulationResult`),
  so job memory is O(in-flight jobs), not O(jobs ever);
* **streaming accumulation** — waiting/turnaround distributions flow
  into :class:`~repro.obs.metrics.Histogram` log-bucket counts
  (P50/P90/P99 within 0.4 % of exact), energy into scalar
  accumulators, and idle leakage into per-core per-power integer cycle
  counts folded at each reconfiguration.  A recycled run buffers its observations and feeds
  the histograms in blocks of :data:`OBSERVE_BLOCK`, flushing before a
  telemetry sample and before :meth:`~StreamingSimulation.advance`
  returns, so no buffered value is ever part of a snapshot.  A retained
  run keeps every job record, so it feeds the two histograms lazily
  from those records, only when a result, snapshot or telemetry sample
  reads them;
* **admission control** — an optional bounded ready queue with
  ``drop`` (reject the arrival), ``shed`` (evict the least-entitled
  queued job) or ``block`` (delay the arrival source) policies, so
  saturating loads degrade gracefully instead of growing the heap;
* **checkpoint/resume** — :meth:`StreamingSimulation.snapshot` captures
  a versioned, JSON-serialisable image of every piece of run state
  (job slots, queue, completion heap, RNG streams, knowledge state,
  accumulators, histogram bucket counts) such that restoring it into a
  fresh engine and finishing the run is bit-identical to never having
  stopped.

Bounded-queue and warm-up machinery never touches the arithmetic of
the simulation itself, so an unbounded-queue stream truncated to N jobs
is bit-identical to the closed batch ``poisson_arrivals(count=N)`` —
enforced by ``tests/sim/test_streaming_engine.py``, while
``tests/sim/test_fast_engine_equivalence.py`` holds the batch route to
the reference loop.
"""

from __future__ import annotations

import math

from bisect import bisect_left, bisect_right, insort
from copy import copy
from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Union

from repro._util import (
    check_bool, check_cycles, check_int, check_number, load_json_document,
    write_json_atomic,
)
from repro.cache.config import BASE_CONFIG, CacheConfig, configs_for_size
from repro.core.policies import (
    BasePolicy,
    EnergyCentricPolicy,
    OptimalPolicy,
    ProposedPolicy,
    SchedulingPolicy,
    make_policy,
)
from repro.core.results import JobRecord, SimulationResult
from repro.core.scheduler import (
    DISCIPLINES,
    PREEMPTION_QUANTUM_CYCLES,
    TUNER_COSTS,
    check_run_options,
)
from repro.core.tuning import TuningSession
from repro.energy.scaling import scaled_charges
from repro.energy.tables import EnergyTable
from repro.obs.events import CATEGORIES as _CATEGORIES
from repro.obs.metrics import Histogram
from repro.obs.telemetry import Telemetry
from repro.power.budget import (
    PowerConfig,
    TokenPool,
    degradation_ladder,
    nominal_prices,
    normalize_power,
    pick_degraded,
)
from repro.workloads.arrivals import (
    ArrivalProcess,
    JobArrival,
    _checked_process_state,
)

__all__ = [
    "ADMISSION_POLICIES",
    "CORE_POLICIES",
    "OBSERVE_BLOCK",
    "STREAM_SNAPSHOT_VERSION",
    "StreamConfig",
    "StreamResult",
    "StreamingSimulation",
    "core_branch",
    "read_checkpoint",
]

#: Snapshot schema version; bumped on any layout change.  Loading a
#: snapshot with a different version fails loudly.  v2 added the
#: ``telemetry`` section (sample count + output byte offsets); v3 added
#: the power axis (token-pool account + per-core DVFS points); v4 added
#: the closed residency intervals of retained runs and moved telemetry
#: samples from arrival refills to completion counts; v5 replaced the
#: ``stats`` histograms' P² markers with ``[bucket, count]`` pairs.
STREAM_SNAPSHOT_VERSION = 5

#: Bounded-queue admission policies.
ADMISSION_POLICIES = ("drop", "shed", "block")

#: Observations a recycled run buffers before feeding the waiting and
#: turnaround histograms one block at a time (bounded memory, one
#: ``observe`` call per block instead of one per job).
OBSERVE_BLOCK = 4096

_NEG_INF = float("-inf")
_INF = float("inf")

#: The policies the simulation core implements, keyed by exact class,
#: and the placement branch of :meth:`StreamingSimulation.advance` each
#: one takes.  A subclass is not in the table even when it only renames
#: its parent: the loop inlines these four ``choose`` methods, so it
#: cannot run an override.
CORE_POLICIES = {
    BasePolicy: 0,
    OptimalPolicy: 1,
    EnergyCentricPolicy: 2,
    ProposedPolicy: 3,
}


def core_branch(policy: SchedulingPolicy) -> int:
    """``policy``'s branch in :data:`CORE_POLICIES`.

    Raises :class:`ValueError` naming the class when the simulation
    core does not implement it.
    """
    branch = CORE_POLICIES.get(type(policy))
    if branch is None:
        names = ", ".join(cls.__name__ for cls in CORE_POLICIES)
        raise ValueError(
            "the fast engine and streaming run the simulation core, which "
            f"implements exactly the policy classes {names}; "
            f"{type(policy).__name__} (policy {policy.name!r}) is not one "
            "of them, so neither its own choose() nor a policy-ordered "
            "ready queue runs there.  Use engine='auto' or 'reference' "
            "for batches and task graphs, or discipline='edf' "
            "(--discipline edf) in a stream"
        )
    return branch


_arrival_cycle = itemgetter(2)  # JobArrival.arrival_cycle


class _ArrivalList:
    """A finite arrival source: the whole sorted batch as one chunk."""

    def __init__(self, arrivals: List[JobArrival]) -> None:
        self._arrivals = arrivals

    def next_chunk(self) -> List[JobArrival]:
        chunk, self._arrivals = self._arrivals, []
        return chunk


def _lane_push(lane: list, heads: list, entry: tuple) -> None:
    """Queue ``entry`` in its benchmark's ``lane``.

    A lane holds one benchmark's queued ``(sortkey, order, slot)``
    entries in service order; ``heads`` holds the first entry of every
    non-empty lane, also in service order.  Both stay sorted.
    """
    if lane and entry < lane[-1]:
        insort(lane, entry)
        if lane[0] is not entry:
            return
        heads.remove(lane[1])
    else:
        lane.append(entry)
        if len(lane) > 1:
            return
    insort(heads, entry)


def _lane_remove(lane: list, heads: list, entry: tuple) -> None:
    """Take ``entry`` out of its ``lane`` (see :func:`_lane_push`)."""
    if lane[0] == entry:
        del lane[0]
        heads.remove(entry)
        if lane:
            insort(heads, lane[0])
    else:
        del lane[bisect_left(lane, entry)]


@dataclass(frozen=True)
class StreamConfig:
    """Shape of one open-system run.

    ``max_jobs`` / ``duration_cycles`` bound generation (at least one
    is required — the arrival processes are unbounded); ``duration``
    stops admitting jobs whose arrival cycle reaches the bound, then
    drains.  ``warmup_cycles`` excludes jobs arriving before the bound
    from the waiting/turnaround statistics (the run itself is
    untouched).  ``queue_capacity`` + ``admission`` bound the ready
    queue; ``retain_jobs`` keeps every per-job record and assembles a
    full closed-batch :class:`SimulationResult` (O(jobs) memory — what
    the closed-batch front end runs with; off by default).  The four
    counts are ``int`` (not ``bool``) and ``retain_jobs`` is a
    ``bool``; any other type raises :class:`ValueError`.
    """

    max_jobs: Optional[int] = None
    duration_cycles: Optional[int] = None
    warmup_cycles: int = 0
    queue_capacity: Optional[int] = None
    admission: str = "block"
    retain_jobs: bool = False

    def __post_init__(self) -> None:
        optional = ("max_jobs", "duration_cycles", "queue_capacity")
        for name in optional + ("warmup_cycles",):
            value = getattr(self, name)
            if value is None and name in optional:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not isinstance(self.retain_jobs, bool):
            raise ValueError(
                f"retain_jobs must be a bool, got {self.retain_jobs!r}"
            )
        if self.max_jobs is None and self.duration_cycles is None:
            raise ValueError(
                "an open-system run needs a bound: set max_jobs and/or "
                "duration_cycles"
            )
        if self.max_jobs is not None and self.max_jobs <= 0:
            raise ValueError("max_jobs must be positive")
        if self.duration_cycles is not None and self.duration_cycles <= 0:
            raise ValueError("duration_cycles must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be >= 0")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.admission not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.admission!r}; "
                f"choose from {ADMISSION_POLICIES}"
            )


@dataclass
class StreamResult:
    """Steady-state summary of one open-system run.

    Energy fields follow :class:`SimulationResult`'s conventions
    (``dynamic_energy_nj`` includes reconfiguration and profiling
    overhead).  ``waiting`` / ``turnaround`` are
    :meth:`~repro.obs.metrics.Histogram.snapshot` dicts over the
    post-warm-up jobs only.  ``sim_result`` is the full closed-batch
    result when ``retain_jobs`` was on, else ``None``.
    """

    policy: str
    discipline: str
    admission: str
    queue_capacity: Optional[int]
    warmup_cycles: int
    jobs_generated: int
    jobs_admitted: int
    jobs_completed: int
    jobs_dropped: int
    jobs_shed: int
    forced_admissions: int
    blocked_cycles: int
    observed_jobs: int
    makespan_cycles: int
    idle_energy_nj: float
    dynamic_energy_nj: float
    busy_static_energy_nj: float
    reconfig_energy_nj: float
    profiling_overhead_nj: float
    reconfig_cycles: int
    stall_decisions: int
    non_best_decisions: int
    tuning_executions: int
    profiling_executions: int
    preemption_count: int
    enqueued_total: int
    max_queue_len: int
    core_busy_cycles: Dict[int, int] = field(default_factory=dict)
    waiting: Dict[str, float] = field(default_factory=dict)
    turnaround: Dict[str, float] = field(default_factory=dict)
    sim_result: Optional[SimulationResult] = None
    #: Token-pool account gauges when the power axis was on, else None.
    power: Optional[Dict[str, object]] = None

    @property
    def total_energy_nj(self) -> float:
        """Idle + busy-static + dynamic (same terms as the batch result)."""
        return (
            self.idle_energy_nj
            + self.busy_static_energy_nj
            + self.dynamic_energy_nj
        )

    @property
    def throughput_jobs_per_mcycle(self) -> float:
        """Completed jobs per million cycles of makespan."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.jobs_completed / self.makespan_cycles * 1e6

    @property
    def energy_rate_nj_per_cycle(self) -> float:
        """Total energy per cycle of makespan."""
        if self.makespan_cycles == 0:
            return 0.0
        return self.total_energy_nj / self.makespan_cycles

    @property
    def shed_rate(self) -> float:
        """Shed + dropped jobs as a fraction of generated jobs."""
        if self.jobs_generated == 0:
            return 0.0
        return (self.jobs_shed + self.jobs_dropped) / self.jobs_generated

    def utilisation(self) -> Dict[int, float]:
        """Busy fraction of the makespan per core."""
        span = self.makespan_cycles
        if span == 0:
            return {ci: 0.0 for ci in self.core_busy_cycles}
        return {
            ci: busy / span for ci, busy in self.core_busy_cycles.items()
        }


#: Sections every snapshot carries besides its version (``telemetry``
#: is optional).
_SNAPSHOT_SECTIONS = ("fingerprint", "process", "engine", "knowledge", "stats")

# -- entry checks ------------------------------------------------------------
# ``check(label, value, bounds)`` raises ValueError naming ``label``
# unless ``value`` is well formed.  ``bounds`` (from _checked_snapshot)
# counts the job slots, cores, configurations, benchmarks and dispatch
# categories ids may name, and holds the benchmark names and core sizes.


def _integer(minimum=None, cycles=False):
    def check(label, value, bounds):
        check_int(label, value, minimum=minimum)
        if cycles:  # a clock compared with the int64 arrival clock
            check_cycles(label, value)
    return check


def _number(finite=True, low=-_INF, high=_INF):
    def check(label, value, bounds):
        if not low <= check_number(label, value, finite=finite) <= high:
            raise ValueError(
                f"{label} must be in [{low}, {high}], got {value!r}"
            )
    return check


def _id(kind: str, what: str):
    """An index below ``bounds[kind]``."""
    def check(label, value, bounds):
        if check_int(label, value, minimum=0) >= bounds[kind]:
            raise ValueError(
                f"{label} {value} is not one of the "
                f"{what.format(bounds[kind])}"
            )
    return check


_count, _int, _cycle = _integer(0), _integer(), _integer(0, cycles=True)
_nj, _fraction = _number(), _number(low=0.0, high=1.0)
_urgency = _number(finite=False)  # -inf: an edf job without a deadline
_slot, _core = _id("slots", "{} job slots"), _id("cores", "{} cores")
_config = _id("configs", "{} configurations")
_benchmark = _id("benchmarks", "snapshot's {} benchmarks")
_category = _id("categories", "{} dispatch categories")


def _flag(label, value, bounds):
    check_bool(label, value)


def _text(label, value, bounds):
    if not isinstance(value, str):
        raise ValueError(f"{label} must be a string, got {value!r}")


def _sort_key(label, value, bounds):
    if value != _INF:  # infinity: an edf job without a deadline
        check_int(label, value)


def _running(label, value, bounds):
    if check_int(label, value, minimum=-1) >= 0:
        _slot(label, value, bounds)


def _size(label, value, bounds):
    if check_int(label, value) not in bounds["sizes"]:
        raise ValueError(f"{label} {value} is no core's cache size")


def _arrival(label, row, bounds):
    """``[job_id, benchmark, arrival_cycle, priority, deadline or null]``,
    with the checks of :class:`~repro.workloads.arrivals.JobArrival`."""
    if not isinstance(row, list) or len(row) != len(JobArrival._fields):
        raise ValueError(f"an arrival row has 5 fields, got {row!r}")
    job_id, benchmark, arrival_cycle, priority, deadline = row
    check_int("arrival job_id", job_id, minimum=0)
    if not isinstance(benchmark, str) or benchmark not in bounds["names"]:
        raise ValueError(
            f"arrival benchmark {benchmark!r} is not in the snapshot's "
            "store"
        )
    check_int("arrival cycle", arrival_cycle, minimum=0)
    check_cycles("arrival cycle", arrival_cycle)
    check_int("arrival priority", priority)
    if deadline is not None:
        check_int("arrival deadline", deadline, minimum=arrival_cycle)
        check_cycles("arrival deadline", deadline)


def _pool(label, value, bounds):
    """A token pool state: loading it into a spare pool checks it."""
    TokenPool(PowerConfig()).load_state(value)


def _session(label, row, bounds):
    """``[benchmark, size_kb, session]`` (see :func:`_session_from_dict`)."""
    _row(_benchmark, _size, _tuning)(label, row, bounds)
    if row[2]["size_kb"] != row[1]:
        raise ValueError(f"{label} for {row[1]} KB tunes another size")


def _tuning(label, value, bounds):
    """A tuning session's fields, checked as they are read."""
    _session_from_dict(value)


def _optional(check):
    def optional(label, value, bounds):
        if value is not None:
            check(label, value, bounds)
    return optional


def _row(*checks):
    """A list of one field per check (field ``i`` is ``label[i]``)."""
    def row(label, value, bounds):
        if not isinstance(value, list) or len(value) != len(checks):
            raise ValueError(
                f"{label} must be a list of {len(checks)} fields, "
                f"got {value!r}"
            )
        for i, (check, field) in enumerate(zip(checks, value)):
            check(f"{label}[{i}]", field, bounds)
    return row


def _each(check, entry: str, unique: str = None):
    """A list of values ``check`` calls ``entry``; no two equal when
    ``unique`` names what they are."""
    def each(label, value, bounds):
        if not isinstance(value, list):
            raise ValueError(f"{label} must be a list, got {value!r}")
        for item in value:
            check(entry, item, bounds)
        if unique and len(set(value)) != len(value):
            raise ValueError(f"{label} repeats a {unique}: {value!r}")
    return each


# -- the field table ---------------------------------------------------------


def _copy(value):
    """Lists copied, everything else as it is."""
    return list(value) if isinstance(value, list) else value


def _map(convert):
    return lambda values: [convert(value) for value in values]


def _maybe(convert):
    return lambda value: None if value is None else convert(value)


class _Field(NamedTuple):
    """One persisted run-state field (a row of :data:`_RUN_STATE`)."""

    #: ``"engine"`` (the run state) or ``"knowledge"`` (the core's
    #: attribute of the same name).
    section: str
    key: str
    #: ``"slots"``, ``"cores"`` or ``"benchmarks"``: a list of one entry
    #: per job slot, core or benchmark, each passing ``check``; ``None``:
    #: the whole value passes ``check``.
    per: Optional[str]
    check: Callable
    #: What ``check`` calls the value, or each entry when ``per`` is set
    #: (default ``<section> '<key>'``).
    label: Optional[str] = None
    #: A fresh run's value (of each entry, when ``per`` is set).
    initial: object = None
    load: Callable = _copy  # JSON value -> run-state value
    dump: Callable = _copy  # run-state value -> JSON value


def _scalars(check, initial, *keys) -> tuple:
    return tuple(
        _Field("engine", key, None, check, initial=initial) for key in keys
    )


_ROWS = {"load": _map(tuple), "dump": _map(list)}
_UNITS = {"slots": "job slot", "cores": "core", "benchmarks": "benchmark"}

#: The core's persisted run state in snapshot key order: the one
#: declaration that start(), snapshot(), restore() and
#: _checked_snapshot() loop over.  ``power`` is the core's
#: token pool, when the power axis is on; _install derives the rest.
_RUN_STATE = (
    # per-job slots: parallel lists, recycled via free_slots
    _Field("engine", "jbid", "slots", _benchmark, "job benchmark index"),
    _Field("engine", "jlab", "slots", _count, "job label"),
    _Field("engine", "jarr", "slots", _cycle, "job arrival cycle"),
    _Field("engine", "jprio", "slots", _int, "job priority"),
    _Field("engine", "jdl", "slots", _optional(_cycle), "job deadline"),
    _Field("engine", "jstart", "slots", _optional(_count), "job start cycle"),
    _Field("engine", "jcomp", "slots", _count, "job completion cycle"),
    _Field("engine", "remaining", "slots", _fraction, "job remaining work"),
    _Field("engine", "jpre", "slots", _count, "job preemption count"),
    _Field("engine", "last_enq", "slots", _optional(_count), "job enqueue"),
    _Field("engine", "waiting", "slots", _count, "job waiting cycles"),
    _Field("engine", "charged", "slots", _nj, "job energy"),
    _Field("engine", "urgency", "slots", _urgency, "job urgency"),
    _Field("engine", "sortkey", "slots", _sort_key, "job sort key"),
    _Field(
        "engine", "free_slots", None,
        _each(_slot, "free job slot", "job slot"), initial=[],
    ),
    _Field(
        "engine", "records", None,
        _each(_row(_slot, _core, _config, _flag, _flag), "job record"),
        initial=[], **_ROWS,
    ),
    # event/queue state
    _Field(
        "engine", "queue", None,
        _each(_slot, "queued job slot", "job slot"), initial={},
        load=lambda slots: dict.fromkeys(slots, True), dump=list,
    ),
    _Field(
        "engine", "comp_heap", None,
        _each(_row(_count, _count, _core, _count), "completion event"),
        initial=[], **_ROWS,
    ),
    _Field(
        "engine", "abuf", None, _each(_arrival, "buffered arrival"),
        initial=[], load=_map(JobArrival._make), dump=_map(list),
    ),
    _Field(
        "engine", "deferred", None, _optional(_arrival),
        load=_maybe(JobArrival._make), dump=_maybe(list),
    ),
    _Field("engine", "gen_done", None, _flag, initial=False),
    # per-core state
    _Field("engine", "cur_job", "cores", _running, "running job slot", -1),
    _Field("engine", "busy_until", "cores", _count, "core busy-until", 0),
    _Field("engine", "busy_cycles", "cores", _count, "core busy cycles", 0),
    _Field("engine", "run_started", "cores", _count, "core run start", 0),
    _Field("engine", "epoch", "cores", _count, "core epoch", 0),
    _Field("engine", "execs", "cores", _count, "core executions", 0),
    # start() installs each core's reset configuration
    _Field("engine", "cur_cfg", "cores", _config, "core configuration"),
    _Field("engine", "recfg_count", "cores", _count, "core reconfigs", 0),
    _Field("engine", "recfg_cycles_core", "cores", _count, "recfg cycles", 0),
    _Field("engine", "recfg_nj_core", "cores", _nj, "recfg energy", 0.0),
    _Field(
        "engine", "res_closed", "cores",
        _each(_row(_count, _count, _config, _count), "residency interval"),
        "core residency intervals", [], _map(_map(tuple)), _map(_map(list)),
    ),
    _Field("engine", "res_start", "cores", _count, "residency start", 0),
    _Field("engine", "res_busy", "cores", _count, "residency busy cycles", 0),
    _Field(
        "engine", "pending", "cores",
        _optional(_row(
            _slot, _config, _flag, _flag, _fraction, _nj, _nj, _nj, _count,
            _nj, _category,
        )),
        "pending execution", None, _map(_maybe(tuple)), _map(_maybe(list)),
    ),
    _Field(
        "engine", "per_power", "cores",
        _each(_row(_nj, _count), "idle cycles at a power"),
        "core idle ledger", {}, _map(dict),
        _map(lambda ledger: [list(item) for item in ledger.items()]),
    ),
    _Field(
        "engine", "preempted_now", None,
        _each(_count, "preempted job label", "job label"), initial=set(),
        load=set, dump=sorted,
    ),
    _Field("engine", "core_dvfs", "cores", _optional(_text), "DVFS point"),
    _Field("engine", "power", None, _optional(_pool)),
    # scalars
    _Field("engine", "now", None, _cycle, "engine now", 0),
    *_scalars(
        _count, 0,
        "seq", "processed", "n_busy", "enqueued_total", "max_queue_len",
    ),
    *_scalars(_nj, 0.0, "dynamic_nj", "busy_static_nj", "reconfig_nj"),
    *_scalars(_count, 0, "reconfig_cycles"),
    *_scalars(_nj, 0.0, "profiling_overhead_nj"),
    *_scalars(
        _count, 0,
        "stall_decisions", "non_best_decisions", "tuning_executions",
        "profiling_executions", "preemption_count",
    ),
    *_scalars(_flag, False, "non_best_pending"),
    *_scalars(_int, -1, "preempted_now_cycle"),
    *_scalars(
        _count, 0,
        "generated", "admitted", "completed", "dropped", "shed", "forced",
        "blocked_cycles", "observed", "makespan", "last_arrival_cycle",
    ),
    # knowledge state (the constructor initialises it)
    _Field("knowledge", "profiled", "benchmarks", _flag, "profiled flag"),
    _Field(
        "knowledge", "pred_raw", "benchmarks", _optional(_integer(1)),
        "predicted size",
    ),
    _Field(
        "knowledge", "pred_size", "benchmarks", _optional(_size),
        "predicted core size",
    ),
    _Field(
        "knowledge", "executed", "benchmarks",
        _each(_config, "explored configuration", "configuration"),
        "explored configurations",
        load=_map(lambda cids: dict.fromkeys(cids, True)), dump=_map(list),
    ),
    _Field(
        "knowledge", "best_known", "benchmarks",
        _each(_row(_size, _nj, _config), "best-known execution"),
        "best-known executions",
        load=_map(lambda rows: {size: (nj, cid) for size, nj, cid in rows}),
        dump=_map(lambda best: [
            [size, nj, cid] for size, (nj, cid) in best.items()
        ]),
    ),
    _Field(
        "knowledge", "tuned", "benchmarks",
        _each(_size, "tuned size", "size"), "tuned sizes",
        load=_map(set), dump=_map(sorted),
    ),
    _Field("knowledge", "touched", "benchmarks", _flag, "touched flag"),
    _Field(
        "knowledge", "touch_order", None,
        _each(_benchmark, "touched benchmark", "benchmark"),
    ),
    _Field(
        "knowledge", "sessions", None, _each(_session, "tuning session"),
        load=lambda rows: {
            (b, size_kb): _session_from_dict(state)
            for b, size_kb, state in rows
        },
        dump=lambda sessions: [
            [b, size_kb, _session_to_dict(session)]
            for (b, size_kb), session in sessions.items()
        ],
    ),
)


def _checked_snapshot(snapshot) -> dict:
    """``snapshot``, if this build can resume it.

    Checks the version and sections, then every :data:`_RUN_STATE`
    field against the counts the fingerprint carries, the arrival
    process's and the telemetry sink's states as their own
    ``load_state`` checks them, how the fields fit together
    (:func:`_check_invariants`) and the ``stats`` histograms, so a bad
    field is a :class:`ValueError` naming it before anything is
    restored.
    """
    if not isinstance(snapshot, dict):
        raise ValueError("a stream snapshot is a JSON object")
    version = snapshot.get("version")
    if version != STREAM_SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported stream snapshot version {version!r}; "
            f"this build reads version {STREAM_SNAPSHOT_VERSION}"
        )
    for section in _SNAPSHOT_SECTIONS:
        if not isinstance(snapshot.get(section), dict):
            raise ValueError(
                f"stream snapshot has no {section!r} section"
            )
    fingerprint, engine = snapshot["fingerprint"], snapshot["engine"]
    names = fingerprint.get("benchmarks")
    if not isinstance(names, list) or not all(
        isinstance(name, str) for name in names
    ):
        raise ValueError("stream snapshot fingerprint has no benchmark list")
    sizes = fingerprint.get("core_sizes")
    if not isinstance(sizes, list):
        raise ValueError("stream snapshot fingerprint has no core list")
    if not isinstance(engine.get("jbid"), list):
        raise ValueError("engine 'jbid' must be a list of job slots")
    bounds = {
        "names": names, "benchmarks": len(names), "cores": len(sizes),
        "sizes": [check_int("core size", size) for size in sizes],
        # as the core interns them: every core's configurations
        # and the base one (a size outside Table 1 is a ValueError)
        "configs": len({BASE_CONFIG}.union(*map(configs_for_size, sizes))),
        "slots": len(engine["jbid"]), "categories": len(_CATEGORIES),
    }
    for field in _RUN_STATE:
        name = f"{field.section} {field.key!r}"
        if field.key not in snapshot[field.section]:
            raise ValueError(f"stream snapshot has no {name}")
        value = snapshot[field.section][field.key]
        if field.per is None:
            field.check(field.label or name, value, bounds)
        elif isinstance(value, list) and len(value) == bounds[field.per]:
            for entry in value:
                field.check(field.label, entry, bounds)
        else:
            raise ValueError(
                f"{name} must be a list with one entry per "
                f"{_UNITS[field.per]} ({bounds[field.per]})"
            )
    _checked_process_state(fingerprint.get("process"), snapshot["process"])
    if snapshot.get("telemetry") is not None:
        Telemetry._checked_state(snapshot["telemetry"])
    _check_invariants(snapshot)
    for key in ("waiting", "turnaround"):
        Histogram(f"stream.{key}_cycles").load_state(
            snapshot["stats"].get(key)
        )
    return snapshot


def _check_invariants(snapshot: dict) -> None:
    """Raise :class:`ValueError` unless the fields of a snapshot whose
    every field is well formed also fit together as a run leaves them."""
    fingerprint, engine = snapshot["fingerprint"], snapshot["engine"]
    cur_job = engine["cur_job"]
    running = [slot for slot in cur_job if slot >= 0]
    if len(set(running)) != len(running) or engine["n_busy"] != len(running):
        raise ValueError(
            f"engine 'cur_job' {cur_job} and 'n_busy' {engine['n_busy']} "
            "must count distinct running job slots"
        )
    live = {(ci, epoch) for _, _, ci, epoch in engine["comp_heap"]}
    for ci, (slot, execution) in enumerate(zip(cur_job, engine["pending"])):
        if (None if execution is None else execution[0]) != (
            None if slot < 0 else slot
        ) or slot >= 0 and (ci, engine["epoch"][ci]) not in live:
            raise ValueError(
                f"core {ci}'s pending execution and completion event do "
                f"not match its running job slot {slot}"
            )
    now = engine["now"]
    if any(event[0] < now for event in engine["comp_heap"]):
        raise ValueError(
            f"engine 'comp_heap' holds a completion event before now ({now})"
        )
    for ci, (start, busy, until) in enumerate(
        zip(engine["res_start"], engine["res_busy"], engine["busy_until"])
    ):
        # The interval's busy cycles fit between its start and the end
        # of the core's last job (or now, when it has run none since).
        if start + busy > max(until, now):
            raise ValueError(
                f"core {ci}'s residency interval is busier than its clock"
            )
    cycles = [row[2] for row in engine["abuf"]]
    if cycles != sorted(cycles) or engine["last_arrival_cycle"] > min(
        cycles, default=_INF
    ):
        raise ValueError(
            "engine 'abuf' must hold arrivals in time order, none before "
            "'last_arrival_cycle'"
        )
    # The arrival source generated every arrival the engine has taken.
    source = snapshot["process"]
    while "inner" in source:  # a QoS process annotates its inner one
        source = source["inner"]
    arrivals = engine["abuf"] + [
        row for row in [engine["deferred"]] if row is not None
    ]
    last = max([row[2] for row in arrivals] + [engine["last_arrival_cycle"]])
    if source["clock"] < last:
        raise ValueError(
            f"process 'clock' {source['clock']!r} is before cycle {last}, "
            "the last arrival the engine took from it"
        )
    need = max([row[0] + 1 for row in arrivals] + [engine["generated"]])
    if source["next_id"] < need:
        raise ValueError(
            f"process 'next_id' {source['next_id']} is below {need}, the "
            "arrivals the engine took from it"
        )
    both = set(engine["queue"]).intersection(running)
    if both:
        raise ValueError(
            f"queued job slot {min(both)} is also running on a core"
        )
    taken = set(engine["free_slots"]).intersection(engine["queue"] + running)
    if taken:
        raise ValueError(f"free job slot {min(taken)} is queued or running")
    policy = fingerprint.get("policy")
    predicts = isinstance(policy, str) and make_policy(policy).uses_predictor
    knowledge = snapshot["knowledge"]
    for b, (profiled, raw, size) in enumerate(zip(
        knowledge["profiled"], knowledge["pred_raw"], knowledge["pred_size"]
    )):
        # A predictor policy predicts at the end of every profiling run.
        if (raw is None) != (size is None) or predicts and profiled and (
            raw is None
        ):
            raise ValueError(
                f"benchmark {b} has a predicted size {raw} and a core size "
                f"{size} (profiled: {profiled})"
            )
    if (engine["power"] is None) != (fingerprint.get("power") is None):
        raise ValueError(
            "engine 'power' must hold a token pool state exactly when the "
            "fingerprint has a power configuration"
        )
    # Every running job holds one grant, and no other job does.
    if engine["power"] is not None and sorted(
        job_id for job_id, _, _ in engine["power"]["held"]
    ) != sorted(engine["jlab"][slot] for slot in running):
        raise ValueError("token pool 'held' must list the running jobs")


def read_checkpoint(path: str) -> dict:
    """Load a checkpoint file written by :meth:`write_checkpoint`.

    Raises :class:`ValueError` naming ``path`` when the file is not
    JSON or not a stream snapshot this build can resume.
    """
    return load_json_document(path, "stream checkpoint", _checked_snapshot)


def _session_to_dict(session: TuningSession) -> dict:
    def cfg(config: Optional[CacheConfig]) -> Optional[list]:
        if config is None:
            return None
        return [config.size_kb, config.assoc, config.line_b]

    return {
        "size_kb": session.size_kb,
        "line_first": session.line_first,
        "phase": session.phase,
        "best_config": cfg(session.best_config),
        "best_energy_nj": session.best_energy_nj,
        "explored": [cfg(c) for c in session.explored],
        "first_index": session._first_index,
        "second_index": session._second_index,
        "chosen_first": session._chosen_first,
    }


def _session_from_dict(state) -> TuningSession:
    """The session :func:`_session_to_dict` wrote; a missing or
    mistyped field is a :class:`ValueError` naming it."""
    if not isinstance(state, dict):
        raise ValueError(f"a tuning session is a JSON object, got {state!r}")

    def field(key, check=check_int, **options):
        return check(f"tuning session {key!r}", state.get(key), **options)

    phase = state.get("phase")
    if phase not in ("first", "second", "done"):
        raise ValueError(
            "tuning session 'phase' must be first, second or done, "
            f"got {phase!r}"
        )
    session = TuningSession(
        size_kb=field("size_kb"),
        line_first=field("line_first", check_bool),
        phase=phase,
    )
    configs = configs_for_size(session.size_kb)

    def cfg(fields) -> CacheConfig:
        for config in configs:
            if [config.size_kb, config.assoc, config.line_b] == fields:
                return config
        raise ValueError(
            f"tuning session config {fields!r} is not one of a "
            f"{session.size_kb} KB core's"
        )

    best = state.get("best_config")
    if best is None and phase != "first":
        raise ValueError(
            f"a tuning session in phase {phase!r} must have a 'best_config'"
        )
    session.best_config = None if best is None else cfg(best)
    session.best_energy_nj = float(
        field("best_energy_nj", check_number, finite=False)
    )
    explored = state.get("explored")
    if not isinstance(explored, list):
        raise ValueError(
            f"tuning session 'explored' must be a list, got {explored!r}"
        )
    session.explored = [cfg(c) for c in explored]
    first = field("first_index", minimum=0)
    second = field("second_index", minimum=0)
    # Only a finished second sweep stands past its last value.
    if first >= len(session._first_values) or second >= len(
        session._second_values
    ) + (phase == "done"):
        raise ValueError(
            f"tuning session 'first_index' {first} or 'second_index' "
            f"{second} is past the end of its sweep"
        )
    session._first_index = first
    session._second_index = second
    chosen = state.get("chosen_first")
    if chosen is not None or phase != "first":
        if field("chosen_first") not in session._first_values:
            raise ValueError(
                f"tuning session 'chosen_first' {chosen} is not one of "
                f"{session._first_values}"
            )
    session._chosen_first = chosen
    return session


class StreamingSimulation:
    """The simulation core: its tables, knowledge state and one run.

    Construction mirrors
    :class:`~repro.core.simulation.SchedulerSimulation` (same defaults,
    same validation errors) and refuses what
    :func:`~repro.core.simulation.select_engine` refuses a core run (a
    policy class outside :data:`CORE_POLICIES`, with or without
    telemetry), in its words.  The observability / validation / fault
    hooks are deliberately absent — use the reference engine when any
    of them is needed.  The one observability surface the core does
    carry is the sampled :class:`~repro.obs.telemetry.Telemetry` sink,
    fed every ``sample_every`` completions (never per event) from state
    the loop already maintains, so results stay bit-identical
    telemetry-on vs telemetry-off.

    A core runs once, either way: drive a stream with :meth:`run` (to
    completion, with optional periodic checkpoints) or with
    :meth:`start` + :meth:`advance` for stepwise control, and
    :meth:`result` summarises it; a stream needs ``config``.
    :meth:`snapshot` / :meth:`restore` implement deterministic
    checkpoint/resume.  :meth:`run_batch` replays a closed batch on a
    core constructed without ``config``.
    """

    def __init__(
        self,
        system,
        policy: SchedulingPolicy,
        store,
        *,
        predictor=None,
        energy_table: Optional[EnergyTable] = None,
        profiling_overhead_fraction: float = 0.003,
        discipline: str = "fifo",
        preemptive: bool = False,
        preload_profiles: bool = False,
        config: Optional[StreamConfig] = None,
        telemetry=None,
        power=None,
    ) -> None:
        check_run_options(
            policy, predictor, profiling_overhead_fraction, discipline,
            preemptive,
        )
        # The one engine rule words every refusal (imported here: the
        # rule's module imports this one).
        from repro.core.simulation import select_engine
        select_engine(
            "fast", policy, telemetry=telemetry is not None,
            load="batch" if config is None else "stream",
        )
        self.system = system
        self.policy = policy
        self.store = store
        self.predictor = predictor
        self.energy_table = (
            energy_table if energy_table is not None else EnergyTable()
        )
        self.profiling_overhead_fraction = profiling_overhead_fraction
        self.discipline = discipline
        self.preemptive = preemptive
        self.config = config
        #: Names the caller in the telemetry header and samples
        #: (:meth:`run_batch` sets ``"fast"``).
        self.front_end = "stream"
        # Sampled telemetry sink (repro.obs.telemetry), fed every
        # ``sample_every`` completions plus a final sample at drain.
        # Unlike the per-event hooks the loop compiles out, it keeps the
        # results bit-identical.  Its byte offsets ride in the
        # checkpoint, so kill/resume reproduces byte-identical files.
        self.telemetry = telemetry
        self.process: Optional[ArrivalProcess] = None
        self._s: Optional[dict] = None
        self._wait_hist = Histogram("stream.waiting_cycles")
        self._turn_hist = Histogram("stream.turnaround_cycles")
        # Power axis (cap + DVFS).  The preferred operating point is
        # always the table's nominal one, as in the reference loop; the
        # gate can still *degrade* to a lower point.  ``None`` keeps the
        # loop's pre-power code paths byte-for-byte.
        self.power = normalize_power(power)
        self._power_pool = (
            TokenPool(self.power) if self.power is not None else None
        )
        #: (benchmark id, core size, pinned config id or None) →
        #: ``(ladder, prices)`` of a full execution (:meth:`_power_ladder`);
        #: derived state, so it stays out of snapshots.
        self._power_ladders: Dict[tuple, tuple] = {}

        # -- configuration interning ------------------------------------
        # Config ids ascend in CacheConfig's natural (size, assoc, line)
        # order so integer comparisons reproduce config tie-breaks.
        # spec.configs materialises fresh CacheConfig objects on every
        # access; read it once per core.
        spec_configs = [list(spec.configs) for spec in system.cores]
        cfg_set = {BASE_CONFIG}
        for spec, configs in zip(system.cores, spec_configs):
            cfg_set.update(configs)
            cfg_set.add(spec.reset_config)
        self.cfg_objs: List[CacheConfig] = sorted(cfg_set)
        self.cfg_ids: Dict[CacheConfig, int] = {
            cfg: i for i, cfg in enumerate(self.cfg_objs)
        }
        K = len(self.cfg_objs)
        self.cfg_sizes = [cfg.size_kb for cfg in self.cfg_objs]
        # CacheConfig.name formats a string on every access; the result
        # assembly needs one per job record.
        self.cfg_names = [cfg.name for cfg in self.cfg_objs]
        self.cfg_static_nj = [
            self.energy_table.get(cfg).static_per_cycle_nj
            for cfg in self.cfg_objs
        ]
        # Reconfiguration cost depends only on the *outgoing* config
        # (its line count is what gets flushed).
        self.recfg_cycles_from = [
            TUNER_COSTS.control_cycles
            + TUNER_COSTS.flush_cycles_per_line * cfg.num_lines
            for cfg in self.cfg_objs
        ]
        self.recfg_nj_from = [
            TUNER_COSTS.control_energy_nj
            + TUNER_COSTS.flush_energy_per_line_nj * cfg.num_lines
            for cfg in self.cfg_objs
        ]

        # -- benchmark interning + characterisation rows ----------------
        self.bench_names: List[str] = list(store.names())
        self.bids: Dict[str, int] = {
            name: i for i, name in enumerate(self.bench_names)
        }
        B = len(self.bench_names)
        # The (benchmark × config) characterisation table, one row of
        # (cycles, dynamic_nj, static_nj, total_nj) scalars per
        # benchmark (None = the store was never characterised for that
        # config).  Total uses the same addition order as
        # EnergyBreakdown.total_nj.
        cfg_ids_get = self.cfg_ids.get
        rows: List[List[Optional[tuple]]] = []
        for name in self.bench_names:
            row: List[Optional[tuple]] = [None] * K
            for cfg, res in store.get(name).results.items():
                k = cfg_ids_get(cfg)
                if k is None:
                    continue
                estimate = res.estimate
                energy = estimate.energy
                row[k] = (
                    estimate.total_cycles,
                    energy.dynamic_nj,
                    energy.static_nj,
                    energy.static_nj + energy.dynamic_nj,
                )
            rows.append(row)
        self._est = rows

        # -- system layout ----------------------------------------------
        cores = system.cores
        self.n_cores = len(cores)
        self.core_sizes = [spec.cache_size_kb for spec in cores]
        # Sorted ascending so "first unexplored" == min(unexplored).
        self.core_cfg_ids = [
            sorted(self.cfg_ids[c] for c in configs)
            for configs in spec_configs
        ]
        self.core_reset_cid = [
            self.cfg_ids[spec.reset_config] for spec in cores
        ]
        self.core_names = [spec.name for spec in cores]
        self.base_cid = self.cfg_ids[BASE_CONFIG]
        # Profiling cores primary-first, with their BASE support flag.
        self.profiling_order = [
            (spec.index, spec.supports(BASE_CONFIG))
            for spec in system.profiling_cores
        ]
        self.cores_by_size: Dict[int, List[int]] = {}
        for spec in cores:
            self.cores_by_size.setdefault(spec.cache_size_kb, []).append(
                spec.index
            )
        self.sizes_kb = list(system.cache_sizes_kb)
        self._nearest: Dict[int, int] = {}

        # -- knowledge state (profiling table + tuning heuristic) -------
        # The "knowledge" rows of _RUN_STATE, updated in place by the run.
        self.profiled = [False] * B
        self.pred_raw: List[Optional[int]] = [None] * B
        #: Nearest machine size for the raw prediction (pure function of
        #: ``pred_raw``; cached at prediction time, read on every choose).
        self.pred_size: List[Optional[int]] = [None] * B
        #: Explored config ids per benchmark; dict for O(1) membership
        #: with stable insertion order.
        self.executed: List[Dict[int, bool]] = [dict() for _ in range(B)]
        #: Incremental min-by-(energy, config) per (benchmark, size).
        self.best_known: List[Dict[int, tuple]] = [dict() for _ in range(B)]
        self.tuned: List[set] = [set() for _ in range(B)]
        self.touched = [False] * B
        self.touch_order: List[int] = []
        self.sessions: Dict[tuple, TuningSession] = {}

        if preload_profiles:
            self._preload_profiles()

    # -- knowledge-state helpers (cold paths) --------------------------------

    def _nearest_size(self, size_kb: int) -> int:
        cached = self._nearest.get(size_kb)
        if cached is None:
            cached = self.system.nearest_size_kb(size_kb)
            self._nearest[size_kb] = cached
        return cached

    def _touch(self, b: int) -> None:
        if not self.touched[b]:
            self.touched[b] = True
            self.touch_order.append(b)

    def _session(self, b: int, size_kb: int) -> TuningSession:
        key = (b, size_kb)
        session = self.sessions.get(key)
        if session is None:
            session = TuningSession(size_kb=size_kb)
            self.sessions[key] = session
        return session

    def _record_execution(self, b: int, cid: int, tot_energy: float) -> None:
        """Mirror ``ProfilingTable.record_execution`` on flat state.

        Re-executions overwrite with identical deterministic values, so
        only the first insertion can move the best-known minimum.
        """
        self._touch(b)
        ex = self.executed[b]
        if cid not in ex:
            ex[cid] = True
            size = self.cfg_sizes[cid]
            best = self.best_known[b].get(size)
            if (
                best is None
                or tot_energy < best[0]
                or (tot_energy == best[0] and cid < best[1])
            ):
                self.best_known[b][size] = (tot_energy, cid)

    def _preload_profiles(self) -> None:
        """Mirror of ``SchedulerSimulation._preload_profiles`` (§IV.B)."""
        store = self.store
        uses_predictor = self.policy.uses_predictor
        for name in store.names():
            b = self.bids[name]
            counters = store.counters(name)
            self._touch(b)
            self.profiled[b] = True
            if not uses_predictor:
                continue
            size = self.predictor.predict_size_kb(name, counters)
            if size <= 0:
                raise ValueError("predicted size must be positive")
            self.pred_raw[b] = size
            self.pred_size[b] = self._nearest_size(size)
            for size_kb in self.sizes_kb:
                session = self._session(b, size_kb)
                while not session.done:
                    config = session.next_config()
                    cid = self.cfg_ids.get(config)
                    est = self._est[b][cid] if cid is not None else None
                    if est is None:
                        # Surface the same KeyError the reference raises.
                        self.store.estimate(name, config)
                    self._record_execution(b, cid, est[3])
                    session.record(config, est[3])
                self.tuned[b].add(size_kb)
                self._touch(b)

    def _power_ladder(
        self, b: int, ci: int, pin: Optional[int], fraction: float
    ) -> tuple:
        """``(ladder, prices)`` for ``fraction`` of benchmark ``b`` on
        core ``ci``: the sorted degradation ladder over the core's
        config ids (or the pinned one) × the DVFS table, and each id's
        price at the nominal point.  Mirrors
        ``SchedulerSimulation._power_ladder``."""
        table = self.power.dvfs
        points = (None,) if table is None else tuple(table)
        est = self._est[b]
        rows = []
        for cid in self.core_cfg_ids[ci] if pin is None else (pin,):
            entry = est[cid]
            rows.append(None if entry is None else (cid,) + entry[:3])
        ladder = degradation_ladder(rows, points, fraction)
        return ladder, nominal_prices(ladder)

    # -- lifecycle -----------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._s is not None

    @property
    def finished(self) -> bool:
        """No event left: generation done, buffers and heap drained."""
        s = self._s
        if s is None:
            return False
        return (
            s["gen_done"]
            and not s["abuf"]
            and not s["comp_heap"]
            and s["deferred"] is None
        )

    def start(self, process: ArrivalProcess) -> None:
        """Attach the arrival process and initialise fresh run state."""
        if self._s is not None:
            raise RuntimeError("a StreamingSimulation runs exactly once")
        self._require_config()
        self.process = process
        entries = {"slots": 0, "cores": self.n_cores}
        s = {
            field.key: (
                copy(field.initial) if field.per is None
                else [copy(field.initial) for _ in range(entries[field.per])]
            )
            for field in _RUN_STATE
            if field.section == "engine" and field.key != "power"
        }
        s["cur_cfg"] = list(self.core_reset_cid)
        self._install(s)
        if self.telemetry is not None:
            self.telemetry.begin(self._telemetry_header())

    def _install(self, s: dict) -> None:
        """Run on ``s``, the persisted run state, plus what derives
        from it."""
        # retained records already fed into the histograms (snapshot()
        # feeds every one before writing)
        s["fed"] = len(s["records"])
        s["atimes"] = [a[2] for a in s["abuf"]]
        s["abuf_i"] = 0
        # per-(benchmark, size) session cache, rebuilt lazily
        s["sess_state"] = [dict() for _ in self.bench_names]
        self._s = s

    def _require_config(self) -> None:
        if self.config is None:
            raise ValueError("a stream needs a StreamConfig")

    def _telemetry_header(self) -> dict:
        """Deterministic run metadata for the telemetry header line."""
        return {
            "engine": self.front_end,
            "policy": self.policy.name,
            "discipline": self.discipline,
            "preemptive": self.preemptive,
            "admission": self.config.admission,
            "max_jobs": self.config.max_jobs,
            "duration_cycles": self.config.duration_cycles,
        }

    def run(
        self,
        process: ArrivalProcess,
        *,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> StreamResult:
        """Drive the stream to completion and summarise it.

        With ``checkpoint_path`` set, a snapshot is written atomically
        every ``checkpoint_every`` completions (and once at the end),
        so a killed run can resume from the last file.
        """
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if checkpoint_path is not None and checkpoint_every is None:
            checkpoint_every = 100_000
        self.start(process)
        return self._drive(checkpoint_path, checkpoint_every)

    def resume(
        self,
        snapshot: dict,
        process: ArrivalProcess,
        *,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
    ) -> StreamResult:
        """Restore a snapshot and drive the rest of the run."""
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        if checkpoint_path is not None and checkpoint_every is None:
            checkpoint_every = 100_000
        self.restore(snapshot, process)
        return self._drive(checkpoint_path, checkpoint_every)

    def run_batch(
        self, arrivals: Sequence[JobArrival], *, records: bool = True
    ) -> Union[SimulationResult, dict]:
        """Simulate a closed batch of arrivals to completion.

        The core must be fresh and constructed without ``config``: the
        batch is a finite stream with
        ``StreamConfig(max_jobs=len(arrivals), retain_jobs=True)``, fed
        as one chunk, and its telemetry is labelled ``"fast"``.  Returns
        the :class:`~repro.core.results.SimulationResult` with its
        per-job records, or with ``records=False`` only the run's
        totals as a dict (:meth:`_batch_totals`), each equal to the
        result's, without building a record per job.
        """
        if self.config is not None:
            raise RuntimeError(
                "run_batch() needs a fresh core constructed without a "
                "StreamConfig: a closed batch sets its own, and a core "
                "runs exactly once"
            )
        if not arrivals:
            raise ValueError("need at least one arrival")
        bids = self.bids
        if not bids.keys() >= {arrival[1] for arrival in arrivals}:
            missing = next(a[1] for a in arrivals if a[1] not in bids)
            raise KeyError(
                f"benchmark {missing!r} missing from the "
                "characterisation store"
            )
        # Stable by arrival cycle: the order the reference heap pops
        # equal-time arrivals (their sequence numbers follow the input
        # order).  The stream rejects decreasing times.
        ordered = sorted(arrivals, key=_arrival_cycle)
        self.config = StreamConfig(max_jobs=len(ordered), retain_jobs=True)
        self.front_end = "fast"
        self.start(_ArrivalList(ordered))
        while self.advance():
            pass
        # The waiting/turnaround histograms stay unfed: a batch never
        # reads them.
        idle_nj = self._idle_energy()
        if records:
            return self._assemble_sim_result(idle_nj)
        return self._batch_totals(idle_nj)

    def _drive(
        self,
        checkpoint_path: Optional[str],
        checkpoint_every: Optional[int],
    ) -> StreamResult:
        if checkpoint_path is None:
            while self.advance():
                pass
        else:
            while self.advance(max_completions=checkpoint_every):
                self.write_checkpoint(checkpoint_path)
            self.write_checkpoint(checkpoint_path)
        return self.result()

    # -- the event loop ------------------------------------------------------

    def advance(
        self,
        max_events: Optional[int] = None,
        max_completions: Optional[int] = None,
    ) -> bool:
        """Process events until a budget is hit or the stream drains.

        Returns ``True`` while events may remain (call again), ``False``
        once the run is finished.  The per-decision helpers (choose /
        start / complete / preempt / dispatch) are inlined into this
        one loop body: in CPython a variable captured by a nested
        function (or, before 3.12, by a comprehension) becomes a closure
        cell everywhere in the frame, so hot state stays out of every
        closure — only the cold-path ``sess`` helper captures anything —
        and each access is a plain local load.  Every state mutation
        lands in structures owned by ``self._s``, so stopping between
        any two events is exact.
        """
        s = self._s
        if s is None:
            raise RuntimeError("call start() or restore() first")
        process = self.process
        config = self.config

        ev_budget = math.inf if max_events is None else max_events
        comp_budget = (
            math.inf if max_completions is None else max_completions
        )
        ev_done = 0
        comp_done = 0

        # -- configuration locals ---------------------------------------
        capacity = config.queue_capacity
        adm = ADMISSION_POLICIES.index(config.admission)
        max_jobs = config.max_jobs
        duration = config.duration_cycles
        warmup = config.warmup_cycles
        retain = config.retain_jobs
        recycle = not retain

        # -- table and knowledge-state locals ---------------------------
        est = self._est
        executed = self.executed
        best_known = self.best_known
        profiled = self.profiled
        pred_raw = self.pred_raw
        pred_size = self.pred_size
        tuned = self.tuned
        cfg_sizes = self.cfg_sizes
        cfg_static = self.cfg_static_nj
        cfg_objs = self.cfg_objs
        cfg_ids = self.cfg_ids
        cfg_names = self.cfg_names
        recfg_cycles_from = self.recfg_cycles_from
        recfg_nj_from = self.recfg_nj_from
        core_sizes = self.core_sizes
        core_cfg_ids = self.core_cfg_ids
        cores_by_size = self.cores_by_size
        profiling_order = self.profiling_order
        base_cid = self.base_cid
        bench_names = self.bench_names
        bids_get = self.bids.get
        store = self.store
        predictor = self.predictor
        pof = self.profiling_overhead_fraction
        policy = self.policy
        requires_profiling = policy.requires_profiling
        uses_predictor = policy.uses_predictor
        pol = core_branch(policy)
        preemptive = self.preemptive
        quantum = PREEMPTION_QUANTUM_CYCLES
        touched = self.touched
        touch_order = self.touch_order
        nearest_size = self._nearest_size
        C = self.n_cores
        core_range = range(C)
        sessions = self.sessions
        disc = DISCIPLINES.index(self.discipline)

        # Power axis locals.  ``pool is None`` is the only extra branch
        # the power-off loop pays.
        pool = self._power_pool
        ladders = self._power_ladders
        nominal_point = None
        slack_pct = 0.0
        if pool is not None:
            table = self.power.dvfs
            nominal_point = None if table is None else table.default
            slack_pct = self.power.slack_pct

        # -- run-state locals (scalars written back on exit) ------------
        jbid = s["jbid"]
        jlab = s["jlab"]
        jarr = s["jarr"]
        jprio = s["jprio"]
        jdl = s["jdl"]
        jstart = s["jstart"]
        jcomp = s["jcomp"]
        remaining = s["remaining"]
        jpre = s["jpre"]
        last_enq = s["last_enq"]
        waiting = s["waiting"]
        charged = s["charged"]
        urgency = s["urgency"]
        sort_key = s["sortkey"]
        free_slots = s["free_slots"]
        records = s["records"]
        queue = s["queue"]
        comp_heap = s["comp_heap"]
        abuf = s["abuf"]
        atimes = s["atimes"]
        abuf_i = s["abuf_i"]
        deferred = s["deferred"]
        gen_done = s["gen_done"]
        cur_job = s["cur_job"]
        busy_until = s["busy_until"]
        busy_cycles = s["busy_cycles"]
        run_started = s["run_started"]
        epoch = s["epoch"]
        execs = s["execs"]
        cur_cfg = s["cur_cfg"]
        recfg_count = s["recfg_count"]
        recfg_cycles_core = s["recfg_cycles_core"]
        recfg_nj_core = s["recfg_nj_core"]
        res_closed = s["res_closed"]
        res_start = s["res_start"]
        res_busy = s["res_busy"]
        pending = s["pending"]
        per_power = s["per_power"]
        core_dvfs = s["core_dvfs"]
        now = s["now"]
        seq = s["seq"]
        processed = s["processed"]
        n_busy = s["n_busy"]
        enqueued_total = s["enqueued_total"]
        max_queue_len = s["max_queue_len"]
        dynamic_nj = s["dynamic_nj"]
        busy_static_nj = s["busy_static_nj"]
        reconfig_nj = s["reconfig_nj"]
        reconfig_cycles = s["reconfig_cycles"]
        profiling_overhead_nj = s["profiling_overhead_nj"]
        stall_decisions = s["stall_decisions"]
        non_best_decisions = s["non_best_decisions"]
        tuning_executions = s["tuning_executions"]
        profiling_executions = s["profiling_executions"]
        preemption_count = s["preemption_count"]
        non_best_pending = s["non_best_pending"]
        preempted_now = s["preempted_now"]
        preempted_now_cycle = s["preempted_now_cycle"]
        generated = s["generated"]
        admitted = s["admitted"]
        completed = s["completed"]
        dropped = s["dropped"]
        shed = s["shed"]
        forced = s["forced"]
        blocked_cycles = s["blocked_cycles"]
        observed = s["observed"]
        makespan = s["makespan"]
        last_arrival_cycle = s["last_arrival_cycle"]
        sess_state = s["sess_state"]
        # Observed waiting/turnaround values awaiting their block feed:
        # flushed when full, before a telemetry sample reads the
        # histograms and before returning, so they are always empty
        # between calls and never part of a snapshot.
        wait_block: list = []
        turn_block: list = []
        wait_push = wait_block.append
        turn_push = turn_block.append
        flush_at = observed + OBSERVE_BLOCK

        # Telemetry thresholds, recomputed from the persisted
        # ``completed``/``seq`` counters, so a resumed run samples and
        # re-emits exactly what an uninterrupted run would, without
        # checkpointing the thresholds themselves.  Telemetry-off parks
        # them all at -1: one int compare per completion/start is the
        # entire hot-loop cost.  Everything a sample reads is state the
        # loop already maintains, which keeps telemetry-on bit-identical.
        tel = self.telemetry
        if tel is None:
            tel_every = tr_every = 0
            tel_next = tr_comp_next = tr_start_next = -1
        else:
            tel_every = tel.sample_every
            tel_next = tel_every * (completed // tel_every) + tel_every
            tr_every = tel.trace_every
            if tr_every > 0:
                tr_comp_next = tr_every * (completed // tr_every) + tr_every
                tr_start_next = tr_every * (seq // tr_every) + tr_every
            else:
                tr_comp_next = tr_start_next = -1

        # Per-benchmark ready lanes (see _lane_push), rebuilt from the
        # queue here and kept current wherever the queue changes; never
        # persisted.  An entry's ``order`` is ``enqueued_total`` when
        # the job was queued (numbered below it for the jobs already
        # queued), so ``(sortkey, order)`` is the stable
        # ``sorted(queue, key=sort_key)`` order and, under FIFO (every
        # sortkey 0), the queue's own.
        lanes: List[list] = [[] for _ in bench_names]
        for order, jid in enumerate(queue, enqueued_total - len(queue)):
            lanes[jbid[jid]].append((sort_key[jid], order, jid))
        heads = []
        for lane in lanes:
            if lane:
                lane.sort()
                heads.append(lane[0])
        heads.sort()
        # Proposed's stalled entries of the current pass that have later
        # jobs in their lane.
        stalled: list = []
        # True while every queued job is known to be blocked under the
        # current cores and knowledge (see the dispatch scan below).
        # Never persisted: a resumed run starts unsettled.
        settled = False
        may_settle = pol != 3
        more = True

        def sess(b: int, size_kb: int) -> tuple:
            # Per-(benchmark, size) tuning-session state cache:
            # ``(done, cid, config)`` where ``cid`` is the interned id of
            # the best config (done) or the next sweep config (in
            # progress), or -1 when that config is not in this system's
            # design space.  The steady state (every session done) costs
            # two int-keyed dict reads per decision.
            state = sess_state[b].get(size_kb)
            if state is None:
                key = (b, size_kb)
                session = sessions.get(key)
                if session is None:
                    session = TuningSession(size_kb=size_kb)
                    sessions[key] = session
                cfg = (
                    session.best_config
                    if session.done
                    else session.next_config()
                )
                state = (session.done, cfg_ids.get(cfg, -1), cfg)
                sess_state[b][size_kb] = state
            return state

        while True:
            if ev_done >= ev_budget or comp_done >= comp_budget:
                break

            # -- next event ---------------------------------------------
            # Admission of a blocked arrival takes priority the moment
            # space exists: it was the earliest unserved arrival, so
            # FIFO admission order is preserved.
            a_admit = None
            if deferred is not None and len(queue) < capacity:
                a_admit = deferred
                deferred = None
                blocked_cycles += now - a_admit[2]
            else:
                if abuf_i >= len(abuf) and not gen_done:
                    # -- chunked refill ---------------------------------
                    raw = process.next_chunk()
                    take = len(raw)
                    if max_jobs is not None:
                        left = max_jobs - generated
                        if take >= left:
                            take = left
                            gen_done = True
                    if duration is not None:
                        for k in range(take):
                            if raw[k][2] >= duration:
                                take = k
                                gen_done = True
                                break
                    if take < len(raw):
                        raw = raw[:take]
                    generated += take
                    abuf = raw
                    atimes = [x[2] for x in raw]
                    abuf_i = 0
                have_arr = deferred is None and abuf_i < len(abuf)
                if comp_heap and not (
                    have_arr and atimes[abuf_i] < comp_heap[0][0]
                ):
                    now, _, ci, cepoch = heappop(comp_heap)
                    settled = False
                    if cepoch == epoch[ci]:
                        # ---- job completion ------------------------
                        (jid, cid, prof, tun, fraction_at_start,
                         _, _, _, _, e_tot, cat) = pending[ci]
                        pending[ci] = None
                        cur_job[ci] = -1
                        n_busy -= 1
                        jcomp[jid] = now
                        remaining[jid] = 0.0
                        if pool is not None:
                            pool.consume(jlab[jid])
                        b = jbid[jid]
                        full = fraction_at_start == 1.0
                        if full:
                            # Execution-record bookkeeping (every full
                            # run).
                            if not touched[b]:
                                touched[b] = True
                                touch_order.append(b)
                            ex = executed[b]
                            if cid not in ex:
                                ex[cid] = True
                                size = cfg_sizes[cid]
                                bk = best_known[b]
                                best = bk.get(size)
                                if (
                                    best is None
                                    or e_tot < best[0]
                                    or (
                                        e_tot == best[0]
                                        and cid < best[1]
                                    )
                                ):
                                    bk[size] = (e_tot, cid)
                        if prof:
                            if not touched[b]:
                                touched[b] = True
                                touch_order.append(b)
                            profiled[b] = True
                            if uses_predictor:
                                size = predictor.predict_size_kb(
                                    bench_names[b],
                                    store.counters(bench_names[b]),
                                )
                                if size <= 0:
                                    raise ValueError(
                                        "predicted size must be positive"
                                    )
                                pred_raw[b] = size
                                pred_size[b] = nearest_size(size)
                        if full and tun and uses_predictor:
                            size_kb = cfg_sizes[cid]
                            done, next_cid, _ = sess(b, size_kb)
                            if not done and next_cid == cid:
                                session = sessions[(b, size_kb)]
                                session.record(cfg_objs[cid], e_tot)
                                if session.done:
                                    best = session.best_config
                                    sess_state[b][size_kb] = (
                                        True,
                                        cfg_ids.get(best, -1),
                                        best,
                                    )
                                    if not touched[b]:
                                        touched[b] = True
                                        touch_order.append(b)
                                    tuned[b].add(size_kb)
                                else:
                                    nxt = session.next_config()
                                    sess_state[b][size_kb] = (
                                        False,
                                        cfg_ids.get(nxt, -1),
                                        nxt,
                                    )
                        # ---- streaming accumulation ----------------
                        completed += 1
                        comp_done += 1
                        if now > makespan:
                            makespan = now
                        if retain:
                            # Statistics come from the records later
                            # (see _feed_retained), and only if a
                            # result, snapshot or sample reads them.
                            records.append((jid, ci, cid, prof, tun))
                        elif jarr[jid] >= warmup:
                            observed += 1
                            wait_push(waiting[jid])
                            turn_push(now - jarr[jid])
                            if observed == flush_at:
                                flush_at += OBSERVE_BLOCK
                                self._observe(wait_block, turn_block)
                        if completed == tel_next:
                            tel_next += tel_every
                            self._observe(wait_block, turn_block)
                            self._sample(
                                now=now, done=completed,
                                generated=generated, admitted=admitted,
                                dropped=dropped, shed=shed,
                                queue=len(queue), busy=n_busy,
                                dynamic_nj=dynamic_nj,
                                busy_static_nj=busy_static_nj,
                                reconfig_nj=reconfig_nj,
                                profiling_overhead_nj=(
                                    profiling_overhead_nj
                                ),
                                stalls=stall_decisions,
                                non_best=non_best_decisions,
                                preemptions=preemption_count,
                            )
                        if completed == tr_comp_next:
                            tr_comp_next += tr_every
                            tel.emit_completion(
                                cycle=now, job_id=jlab[jid],
                                core_index=ci,
                                benchmark=bench_names[b],
                                config=cfg_names[cid],
                                category=_CATEGORIES[cat],
                                energy_nj=charged[jid],
                                waiting_cycles=waiting[jid],
                            )
                        if recycle:
                            free_slots.append(jid)
                    # A stale completion (preempted epoch) still opens
                    # a dispatch round, exactly like the reference.
                elif have_arr:
                    a = abuf[abuf_i]
                    t = atimes[abuf_i]
                    abuf_i += 1
                    if t < last_arrival_cycle:
                        raise ValueError(
                            "arrival process emitted decreasing times: "
                            f"{t} after {last_arrival_cycle}"
                        )
                    last_arrival_cycle = t
                    # Blocking backpressure can pause the source while
                    # completions advance the clock, so a resumed
                    # arrival may carry a timestamp in the simulated
                    # past; it is handled at the current instant.  In
                    # an unblocked run the merge order guarantees
                    # t >= now and this is the plain `now = t`.
                    if t > now:
                        now = t
                    if (
                        capacity is not None
                        and len(queue) >= capacity
                    ):
                        if adm == 0:  # drop: reject the arrival
                            dropped += 1
                            processed += 1
                            ev_done += 1
                            continue
                        if adm == 2:  # block: pause the source
                            deferred = a
                            processed += 1
                            ev_done += 1
                            continue
                        # shed: evict the least-entitled queued job,
                        # the last in service order (under FIFO the
                        # youngest, otherwise the worst sort key with
                        # latest-enqueue tie-break): the greatest lane
                        # tail.
                        tail = max([lane[-1] for lane in lanes if lane])
                        victim = tail[2]
                        _lane_remove(lanes[jbid[victim]], heads, tail)
                        del queue[victim]
                        shed += 1
                        if recycle:
                            free_slots.append(victim)
                        a_admit = a
                    else:
                        a_admit = a
                elif deferred is not None:
                    # Backpressure cannot progress (nothing running,
                    # nothing completing): admit over capacity rather
                    # than deadlock.
                    a_admit = deferred
                    deferred = None
                    forced += 1
                    blocked_cycles += now - a_admit[2]
                else:
                    if tel is not None:
                        # Final sample at drain, whether or not the
                        # completion count landed on a threshold
                        # (idempotent: the sink ignores samples after
                        # the ``final`` one).
                        self._observe(wait_block, turn_block)
                        self._sample(
                            final=True,
                            now=now, done=completed,
                            generated=generated, admitted=admitted,
                            dropped=dropped, shed=shed,
                            queue=len(queue), busy=n_busy,
                            dynamic_nj=dynamic_nj,
                            busy_static_nj=busy_static_nj,
                            reconfig_nj=reconfig_nj,
                            profiling_overhead_nj=profiling_overhead_nj,
                            stalls=stall_decisions,
                            non_best=non_best_decisions,
                            preemptions=preemption_count,
                        )
                    more = False
                    break

            # -- admission: allocate (or recycle) a job slot ------------
            if a_admit is not None:
                label, name, cycle, prio, dl = a_admit
                b = bids_get(name)
                if b is None:
                    raise KeyError(
                        f"benchmark {name!r} missing from "
                        "the characterisation store"
                    )
                if free_slots:
                    jid = free_slots.pop()
                    jbid[jid] = b
                    jlab[jid] = label
                    jarr[jid] = cycle
                    jprio[jid] = prio
                    jdl[jid] = dl
                    jstart[jid] = None
                    jcomp[jid] = 0
                    remaining[jid] = 1.0
                    jpre[jid] = 0
                    last_enq[jid] = now
                    waiting[jid] = 0
                    charged[jid] = 0.0
                    if disc == 1:
                        urgency[jid] = float(prio)
                        sort_key[jid] = -prio
                    elif disc == 2:
                        urgency[jid] = (
                            _NEG_INF if dl is None else -float(dl)
                        )
                        sort_key[jid] = _INF if dl is None else dl
                    else:
                        urgency[jid] = 0.0
                        sort_key[jid] = 0
                else:
                    jid = len(jbid)
                    jbid.append(b)
                    jlab.append(label)
                    jarr.append(cycle)
                    jprio.append(prio)
                    jdl.append(dl)
                    jstart.append(None)
                    jcomp.append(0)
                    remaining.append(1.0)
                    jpre.append(0)
                    last_enq.append(now)
                    waiting.append(0)
                    charged.append(0.0)
                    if disc == 1:
                        urgency.append(float(prio))
                        sort_key.append(-prio)
                    elif disc == 2:
                        urgency.append(
                            _NEG_INF if dl is None else -float(dl)
                        )
                        sort_key.append(_INF if dl is None else dl)
                    else:
                        urgency.append(0.0)
                        sort_key.append(0)
                queue[jid] = True
                new_e = (sort_key[jid], enqueued_total, jid)
                # _lane_push, with its two common cases inline.
                lane = lanes[b]
                if not lane:
                    lane.append(new_e)
                    insort(heads, new_e)
                elif lane[-1] < new_e:  # always under FIFO
                    lane.append(new_e)
                else:
                    _lane_push(lane, heads, new_e)
                enqueued_total += 1
                admitted += 1
                if len(queue) > max_queue_len:
                    max_queue_len = len(queue)
            processed += 1
            ev_done += 1
            # A dispatch round is skipped when every core is occupied
            # and preemption is off: the reference's dispatch scans for
            # an idle core before consulting the policy, so an all-busy
            # round has no observable effect.  (A core with no job
            # always has ``busy_until <= now`` — completions fire at
            # busy_until, preemption rewinds it to now — so
            # ``n_busy < C`` is exactly "some core is idle".)
            if n_busy >= C and not preemptive:
                continue

            # ---- dispatch rounds --------------------------------------
            while True:
                if n_busy < C and queue:
                    # Placement reads only the benchmark, the core
                    # occupancy and the knowledge state (plus ``now``
                    # in proposed's stall test), none of which changes
                    # until a start ends the pass.  Two consequences:
                    # * The pass walks the lane heads, one job per
                    #   benchmark, in service order.  A benchmark that
                    #   finds no placement leaves the pass: its other
                    #   queued jobs would block too.  Only the power
                    #   gate's throttle judges a job rather than its
                    #   benchmark; a throttled job yields to its lane's
                    #   next one.  Proposed's stall counter counts one
                    #   decision per queued job the full scan would
                    #   visit, so when the pass ends each stalled
                    #   benchmark adds its jobs between the stalled one
                    #   and the pass's end.
                    # * A pass that places nothing leaves the queue
                    #   ``settled``: until a start, a completion (stale
                    #   ones too) or a preemption, every queued job
                    #   stays blocked, so an arrival's round tests only
                    #   the job just admitted.  Proposed never settles
                    #   (its stall test reads ``now``), nor does a pass
                    #   in which the power gate throttled a job (the
                    #   degradation slack test reads ``now`` and the
                    #   pool).
                    v = [new_e] if settled else heads[:]
                    settled = may_settle
                    assigned = False
                    for e in v:
                        # ---- placement decision --------------------
                        # Idleness is just ``cur_job[ci] < 0``;
                        # ``continue`` means this job's benchmark waits
                        # and the scan moves to the next head.
                        jid = e[2]
                        b = jbid[jid]
                        assignment = None
                        if requires_profiling and not profiled[b]:
                            # Unprofiled: profiling core, base config.
                            for ci, supports_base in profiling_order:
                                if cur_job[ci] < 0 and supports_base:
                                    assignment = (
                                        ci, base_cid, True, False,
                                    )
                                    break
                            if assignment is None:
                                continue
                        elif pol == 0:  # base
                            for ci in core_range:
                                if cur_job[ci] < 0:
                                    assignment = (
                                        ci, cur_cfg[ci], False, False,
                                    )
                                    break
                            if assignment is None:
                                continue
                        elif pol == 1:  # optimal
                            idle = []
                            for ci in core_range:
                                if cur_job[ci] < 0:
                                    idle.append(ci)
                            if not idle:
                                continue
                            ex = executed[b]
                            for ci in idle:
                                for cid in core_cfg_ids[ci]:
                                    if cid not in ex:
                                        assignment = (
                                            ci, cid, False, True,
                                        )
                                        break
                                if assignment is not None:
                                    break
                            if assignment is None:
                                best_ci = -1
                                best_key = None
                                for ci in idle:
                                    key = (
                                        best_known[b][core_sizes[ci]][0],
                                        ci,
                                    )
                                    if best_key is None or key < best_key:
                                        best_key = key
                                        best_ci = ci
                                assignment = (
                                    best_ci,
                                    best_known[b][core_sizes[best_ci]][1],
                                    False,
                                    False,
                                )
                        else:
                            # Predictor-driven policies share the size
                            # lookup.
                            if pred_raw[b] is None:
                                raise RuntimeError(
                                    f"{bench_names[b]} has no "
                                    "prediction; profiling must "
                                    "precede prediction-based "
                                    "scheduling"
                                )
                            size_kb = pred_size[b]
                            if pol == 2:  # energy_centric
                                for ci in core_range:
                                    if (
                                        cur_job[ci] < 0
                                        and core_sizes[ci] == size_kb
                                    ):
                                        done, cid, cfg = (
                                            sess_state[b].get(size_kb)
                                            or sess(b, size_kb)
                                        )
                                        if cid < 0:
                                            raise KeyError(cfg)
                                        assignment = (
                                            ci, cid, False, not done,
                                        )
                                        break
                                if assignment is None:
                                    continue
                            else:
                                # proposed — a best-size match wins
                                # outright, so the scan can stop at
                                # the first one; idle_nb only matters
                                # when none exists.
                                best_size_ci = -1
                                idle_nb = []
                                for ci in core_range:
                                    if cur_job[ci] < 0:
                                        if core_sizes[ci] == size_kb:
                                            best_size_ci = ci
                                            break
                                        idle_nb.append(ci)
                                if best_size_ci >= 0:
                                    done, cid, cfg = (
                                        sess_state[b].get(size_kb)
                                        or sess(b, size_kb)
                                    )
                                    if cid < 0:
                                        raise KeyError(cfg)
                                    assignment = (
                                        best_size_ci, cid,
                                        False, not done,
                                    )
                                elif not idle_nb:
                                    continue
                                else:
                                    stb = sess_state[b]
                                    nb = []
                                    for ci in idle_nb:
                                        sz = core_sizes[ci]
                                        done, cid, cfg = (
                                            stb.get(sz) or sess(b, sz)
                                        )
                                        if not done:
                                            if cid < 0:
                                                raise KeyError(cfg)
                                            assignment = (
                                                ci, cid, False, True,
                                            )
                                            break
                                        nb.append((ci, cid, cfg))
                                    if assignment is None:
                                        best_done, best_cid, best_cfg = (
                                            stb.get(size_kb)
                                            or sess(b, size_kb)
                                        )
                                        if not best_done:
                                            stall_decisions += 1
                                            if lanes[b][-1] is not e:
                                                stalled.append(e)
                                            continue
                                        if best_cid < 0:
                                            raise KeyError(best_cfg)
                                        if best_cid not in executed[b]:
                                            # Parity with the
                                            # table-eviction guard
                                            # (fault-only).
                                            stall_decisions += 1
                                            if lanes[b][-1] is not e:
                                                stalled.append(e)
                                            continue
                                        eb = est[b]
                                        cand_ci = -1
                                        cand_cid = -1
                                        cand_key = None
                                        for ci, scid, scfg in nb:
                                            if scid < 0:
                                                raise KeyError(scfg)
                                            key = (eb[scid][3], ci)
                                            if (
                                                cand_key is None
                                                or key < cand_key
                                            ):
                                                cand_key = key
                                                cand_ci = ci
                                                cand_cid = scid
                                        wait_cycles = None
                                        for ci in cores_by_size[size_kb]:
                                            rem = (
                                                busy_until[ci] - now
                                                if cur_job[ci] >= 0
                                                else 0
                                            )
                                            if rem < 0:
                                                rem = 0
                                            if (
                                                wait_cycles is None
                                                or rem < wait_cycles
                                            ):
                                                wait_cycles = rem
                                        stall_energy = (
                                            eb[best_cid][3]
                                            + wait_cycles
                                            * cfg_static[cur_cfg[cand_ci]]
                                        )
                                        if (
                                            stall_energy
                                            <= eb[cand_cid][3]
                                        ):
                                            stall_decisions += 1
                                            if lanes[b][-1] is not e:
                                                stalled.append(e)
                                            continue
                                        non_best_decisions += 1
                                        non_best_pending = True
                                        assignment = (
                                            cand_ci, cand_cid,
                                            False, False,
                                        )

                        # ---- power gate ----------------------------
                        # SchedulerSimulation._power_gate on interned
                        # ids: the preferred point is nominal, a full
                        # execution's ladder is built once per run.
                        dvfs_point = None
                        if pool is not None:
                            ci, cid, prof, tun = assignment
                            csize = core_sizes[ci]
                            pin = cid if prof or tun else None
                            fraction = remaining[jid]
                            ladder = price = None
                            if fraction == 1.0:
                                key = (b, csize, pin)
                                cached = ladders.get(key)
                                if cached is None:
                                    cached = self._power_ladder(
                                        b, ci, pin, 1.0
                                    )
                                    ladders[key] = cached
                                ladder, prices = cached
                                price = prices.get(cid)
                            if price is None:
                                entry = est[b][cid]
                                if entry is None:
                                    store.estimate(
                                        bench_names[b], cfg_objs[cid]
                                    )
                                _, g_dyn, g_sta = scaled_charges(
                                    entry[0], entry[1], entry[2],
                                    fraction, nominal_point,
                                )
                                price = g_dyn + g_sta
                            dvfs_point = nominal_point
                            if not pool.affordable(price, csize):
                                if ladder is None:
                                    ladder, _ = self._power_ladder(
                                        b, ci, pin, fraction
                                    )
                                chosen = pick_degraded(
                                    pool, csize, price, ladder,
                                    now=now,
                                    arrival_cycle=jarr[jid],
                                    deadline_cycle=jdl[jid],
                                    slack_pct=slack_pct,
                                )
                                if chosen is not None:
                                    dcid, dvfs_point = chosen
                                    pool.degraded += 1
                                    assignment = (ci, dcid, prof, tun)
                                elif pool.idle():
                                    pool.overdrafts += 1
                                else:
                                    pool.throttled += 1
                                    settled = False
                                    # The lane's next job joins the
                                    # pass after ``e`` (``v`` is this
                                    # pass's own sorted list, and a
                                    # list iterator sees items inserted
                                    # past its position).
                                    lane = lanes[b]
                                    i = bisect_right(lane, e)
                                    if i < len(lane):
                                        insort(v, lane[i])
                                    continue

                        # ---- job start -----------------------------
                        del queue[jid]
                        # _lane_remove, with the lane head's case inline.
                        lane = lanes[b]
                        if lane[0] is e:
                            del lane[0]
                            heads.remove(e)
                            if lane:
                                insort(heads, lane[0])
                        else:
                            _lane_remove(lane, heads, e)
                        ci, cid, prof, tun = assignment
                        prev = cur_cfg[ci]
                        if cid != prev:
                            cost_cyc = recfg_cycles_from[prev]
                            cost_nj = recfg_nj_from[prev]
                            # Fold the closed residency interval into
                            # the per-power idle ledger right away
                            # (bit-identical to a walk over the
                            # intervals at the end: integer sums are
                            # exact, and first-seen power order is
                            # chronological either way).  A retained
                            # run also keeps the interval itself.
                            idle_cycles = (
                                (now - res_start[ci]) - res_busy[ci]
                            )
                            if idle_cycles < 0:
                                raise RuntimeError(
                                    f"core {ci} busy beyond its "
                                    "residency interval"
                                )
                            if retain:
                                res_closed[ci].append(
                                    (res_start[ci], now, prev,
                                     res_busy[ci])
                                )
                            power = cfg_static[prev]
                            pp = per_power[ci]
                            pp[power] = (
                                pp.get(power, 0) + idle_cycles
                            )
                            res_start[ci] = now
                            res_busy[ci] = 0
                            cur_cfg[ci] = cid
                            recfg_count[ci] += 1
                            recfg_cycles_core[ci] += cost_cyc
                            recfg_nj_core[ci] += cost_nj
                        else:
                            cost_cyc = 0
                            cost_nj = 0.0
                        reconfig_nj += cost_nj
                        reconfig_cycles += cost_cyc

                        entry = est[b][cid]
                        if entry is None:
                            # Raise the reference's KeyError at the
                            # same point.
                            store.estimate(
                                bench_names[b], cfg_objs[cid]
                            )
                        tot_cycles, dyn, sta, tot = entry
                        fraction = remaining[jid]
                        if not 0.0 < fraction <= 1.0:
                            raise RuntimeError(
                                f"job {jlab[jid]} has invalid "
                                f"remaining fraction {fraction}"
                            )
                        overhead_cycles = 0
                        overhead_nj = 0.0
                        if prof:
                            overhead_cycles = int(
                                round(tot_cycles * pof)
                            )
                            overhead_nj = tot * pof
                            profiling_overhead_nj += overhead_nj
                            profiling_executions += 1
                        if tun and fraction == 1.0:
                            tuning_executions += 1

                        if fraction == 1.0:
                            # IEEE multiplication by 1.0 is exact, so
                            # the common full-run case can skip the
                            # scaling bit-identically.
                            dynamic_charge = dyn
                            static_charge = sta
                            work = tot_cycles
                        else:
                            dynamic_charge = dyn * fraction
                            static_charge = sta * fraction
                            work = int(round(tot_cycles * fraction))
                            if work < 1:
                                work = 1
                        if pool is not None:
                            if (
                                dvfs_point is not None
                                and not dvfs_point.is_nominal
                            ):
                                work = int(round(
                                    work / dvfs_point.freq_scale
                                ))
                                if work < 1:
                                    work = 1
                                dynamic_charge = (
                                    dynamic_charge
                                    * dvfs_point.dyn_factor
                                )
                                static_charge = (
                                    static_charge
                                    * dvfs_point.static_factor
                                )
                            pool.grant(
                                jlab[jid],
                                dynamic_charge + static_charge,
                                core_sizes[ci],
                            )
                            core_dvfs[ci] = (
                                None if dvfs_point is None
                                else dvfs_point.name
                            )
                        dynamic_nj += dynamic_charge
                        busy_static_nj += static_charge
                        charged[jid] += dynamic_charge + static_charge
                        service = work + cost_cyc + overhead_cycles
                        if jstart[jid] is None:
                            jstart[jid] = now
                        enq = last_enq[jid]
                        waiting[jid] += now - (
                            enq if enq is not None else jarr[jid]
                        )
                        last_enq[jid] = None
                        cur_job[ci] = jid
                        n_busy += 1
                        run_started[ci] = now
                        busy_until[ci] = now + service
                        busy_cycles[ci] += service
                        res_busy[ci] += service
                        execs[ci] += 1
                        epoch[ci] += 1

                        if prof:
                            cat = 0
                        elif tun:
                            cat = 1
                        elif non_best_pending:
                            cat = 2
                        else:
                            cat = 3
                        non_best_pending = False

                        pending[ci] = (
                            jid, cid, prof, tun, fraction,
                            dynamic_charge, static_charge, overhead_nj,
                            tot_cycles, tot, cat,
                        )
                        heappush(
                            comp_heap,
                            (now + service, seq, ci, epoch[ci]),
                        )
                        seq += 1
                        if seq == tr_start_next:
                            tr_start_next += tr_every
                            tel.emit_dispatch(
                                cycle=now, job_id=jlab[jid],
                                core_index=ci,
                                benchmark=bench_names[b],
                                category=_CATEGORIES[cat],
                                dynamic_nj=dynamic_charge,
                                static_nj=static_charge,
                                overhead_nj=overhead_nj,
                                service_cycles=service,
                            )
                        assigned = True
                        break  # core states changed; rescan
                    if stalled:
                        for se in stalled:
                            lane = lanes[jbid[se[2]]]
                            stall_decisions += (
                                bisect_left(lane, e) if assigned
                                else len(lane)
                            ) - bisect_right(lane, se)
                        stalled.clear()
                    if assigned:
                        settled = False
                        continue

                # Nothing could be placed (or no core is idle): try a
                # preemption, otherwise the dispatch round is over.
                if not preemptive:
                    break
                if preempted_now_cycle != now:
                    preempted_now_cycle = now
                    preempted_now.clear()
                running = []
                for ci in core_range:
                    vj = cur_job[ci]
                    if (
                        vj >= 0
                        and jlab[vj] not in preempted_now
                        and not pending[ci][2]
                        and busy_until[ci] > now
                        and now - run_started[ci] >= quantum
                        and busy_until[ci] - now >= quantum
                    ):
                        running.append(ci)
                if not running:
                    break
                victim_ci = -1
                victim_urgency = 0.0
                for ci in running:
                    u = urgency[cur_job[ci]]
                    if victim_ci < 0 or u < victim_urgency:
                        victim_ci = ci
                        victim_urgency = u
                # Urgency never rises along service order (priority and
                # edf sort by falling urgency; under FIFO it is 0.0
                # throughout), so preemption is for the global head or
                # for no queued job.
                if not heads or urgency[heads[0][2]] <= victim_urgency:
                    break
                # Preempt the victim core; requeue the remaining
                # work.
                (vjid, _, _, _, fraction_at_start, dync, stac,
                 ovhc, _, _, _) = pending[victim_ci]
                pending[victim_ci] = None
                service = (
                    busy_until[victim_ci] - run_started[victim_ci]
                )
                ran = now - run_started[victim_ci]
                fraction_run = ran / service if service else 0.0
                unused = busy_until[victim_ci] - now
                busy_cycles[victim_ci] -= unused
                res_busy[victim_ci] -= unused
                cur_job[victim_ci] = -1
                n_busy -= 1
                busy_until[victim_ci] = now
                epoch[victim_ci] += 1
                preempted_now.add(jlab[vjid])
                preemption_count += 1
                refund = 1.0 - fraction_run
                refund_dynamic = dync * refund
                refund_static = stac * refund
                refund_overhead = ovhc * refund
                dynamic_nj -= refund_dynamic
                busy_static_nj -= refund_static
                profiling_overhead_nj -= refund_overhead
                charged[vjid] -= refund_dynamic + refund_static
                if pool is not None:
                    pool.refund(
                        jlab[vjid], refund_dynamic + refund_static
                    )
                remaining[vjid] = (
                    fraction_at_start * (1.0 - fraction_run)
                )
                jpre[vjid] += 1
                last_enq[vjid] = now
                queue[vjid] = True
                _lane_push(
                    lanes[jbid[vjid]], heads,
                    (sort_key[vjid], enqueued_total, vjid),
                )
                enqueued_total += 1
                if len(queue) > max_queue_len:
                    max_queue_len = len(queue)
                settled = False

        # -- write scalars (and rebound buffers) back -------------------
        if abuf_i:
            abuf = abuf[abuf_i:]
            atimes = atimes[abuf_i:]
        s["abuf"] = abuf
        s["atimes"] = atimes
        s["abuf_i"] = 0
        s["deferred"] = deferred
        s["gen_done"] = gen_done
        s["now"] = now
        s["seq"] = seq
        s["processed"] = processed
        s["n_busy"] = n_busy
        s["enqueued_total"] = enqueued_total
        s["max_queue_len"] = max_queue_len
        s["dynamic_nj"] = dynamic_nj
        s["busy_static_nj"] = busy_static_nj
        s["reconfig_nj"] = reconfig_nj
        s["reconfig_cycles"] = reconfig_cycles
        s["profiling_overhead_nj"] = profiling_overhead_nj
        s["stall_decisions"] = stall_decisions
        s["non_best_decisions"] = non_best_decisions
        s["tuning_executions"] = tuning_executions
        s["profiling_executions"] = profiling_executions
        s["preemption_count"] = preemption_count
        s["non_best_pending"] = non_best_pending
        s["preempted_now_cycle"] = preempted_now_cycle
        s["generated"] = generated
        s["admitted"] = admitted
        s["completed"] = completed
        s["dropped"] = dropped
        s["shed"] = shed
        s["forced"] = forced
        s["blocked_cycles"] = blocked_cycles
        if recycle:
            # A retained run's count belongs to _feed_retained.
            s["observed"] = observed
            self._observe(wait_block, turn_block)
        s["makespan"] = makespan
        s["last_arrival_cycle"] = last_arrival_cycle
        if not more and queue:
            raise RuntimeError(
                f"stream drained with {len(queue)} jobs still queued"
            )
        return more

    # -- statistics and telemetry (cold paths) -------------------------------

    def _feed_retained(self) -> None:
        """Feed retained completions into the waiting/turnaround stats.

        A retained run keeps every record, so its histograms are fed
        here, with the warm-up filter, only when something reads them.
        Fed in completion order and blocks, as a recycled run feeds
        them, they end in the same state.
        """
        s = self._s
        records = s["records"]
        fed = s["fed"]
        if fed == len(records):
            return
        jarr = s["jarr"]
        jcomp = s["jcomp"]
        waiting = s["waiting"]
        warmup = self.config.warmup_cycles
        observed = s["observed"]
        waits: list = []
        turns: list = []
        for i in range(fed, len(records)):
            jid = records[i][0]
            arrival = jarr[jid]
            if arrival >= warmup:
                observed += 1
                waits.append(waiting[jid])
                turns.append(jcomp[jid] - arrival)
                if len(waits) == OBSERVE_BLOCK:
                    self._observe(waits, turns)
        self._observe(waits, turns)
        s["observed"] = observed
        s["fed"] = len(records)

    def _observe(self, waits: list, turns: list) -> None:
        """Feed one block of waiting/turnaround values, then empty it."""
        self._wait_hist.observe(*waits)
        self._turn_hist.observe(*turns)
        waits.clear()
        turns.clear()

    def _sample(self, *, final: bool = False, **fields) -> None:
        """Append one telemetry sample: loop scalars plus per-core state.

        :meth:`advance` passes its live scalar locals; the per-core
        lists are read from the run state, which the loop mutates in
        place.
        """
        s = self._s
        cfg_names = self.cfg_names
        cores = []
        for busy, cid in zip(s["busy_cycles"], s["cur_cfg"]):
            cores.append([busy, cfg_names[cid]])
        if self.config.retain_jobs:
            self._feed_retained()
        now = fields["now"]
        self.telemetry.sample(
            final=final,
            engine=self.front_end,
            total=self.config.max_jobs,
            cores=cores,
            waiting=self._wait_hist.snapshot(),
            jobs_per_mcycle=fields["done"] * 1e6 / now if now else 0.0,
            **fields,
        )

    # -- result assembly -----------------------------------------------------

    def _require_finished(self) -> None:
        if self._s is None:
            raise RuntimeError("call start() or restore() first")
        if not self.finished:
            raise RuntimeError(
                "the stream still has pending events; advance() to "
                "completion before asking for the result"
            )

    def _idle_energy(self) -> float:
        """Idle leakage of the whole run, from the per-power ledgers.

        Each core's open residency interval is closed against the
        makespan on a copied ledger, so this is idempotent; the
        multiply-accumulate runs in first-seen power order, exactly
        like a walk over the residency intervals.
        """
        s = self._s
        cfg_static = self.cfg_static_nj
        makespan = s["makespan"]
        res_start = s["res_start"]
        res_busy = s["res_busy"]
        cur_cfg = s["cur_cfg"]
        idle_nj = 0.0
        for ci in range(self.n_cores):
            pp = dict(s["per_power"][ci])
            idle_cycles = (makespan - res_start[ci]) - res_busy[ci]
            if idle_cycles < 0:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"{self.core_names[ci]} busy beyond the makespan"
                )
            power = cfg_static[cur_cfg[ci]]
            pp[power] = pp.get(power, 0) + idle_cycles
            for power, cycles in pp.items():
                idle_nj += cycles * power
        return idle_nj

    def result(self) -> StreamResult:
        """Summarise a finished run (raises while events remain)."""
        self._require_finished()
        s = self._s
        config = self.config
        idle_nj = self._idle_energy()
        sim_result = None
        if config.retain_jobs:
            self._feed_retained()
            sim_result = self._assemble_sim_result(idle_nj)
        pool = self._power_pool
        return StreamResult(
            discipline=self.discipline,
            admission=config.admission,
            queue_capacity=config.queue_capacity,
            warmup_cycles=config.warmup_cycles,
            jobs_generated=s["generated"],
            jobs_admitted=s["admitted"],
            jobs_completed=s["completed"],
            jobs_dropped=s["dropped"],
            jobs_shed=s["shed"],
            forced_admissions=s["forced"],
            blocked_cycles=s["blocked_cycles"],
            observed_jobs=s["observed"],
            enqueued_total=s["enqueued_total"],
            max_queue_len=s["max_queue_len"],
            waiting=self._wait_hist.snapshot(),
            turnaround=self._turn_hist.snapshot(),
            sim_result=sim_result,
            power=None if pool is None else pool.counts(),
            **self._totals(idle_nj),
        )

    def _batch_totals(self, idle_nj: float) -> dict:
        """What :meth:`_assemble_sim_result` sums up, without the job
        records.

        The run totals of :meth:`_totals` plus ``jobs_completed``,
        ``total_energy_nj``, ``mean_waiting_cycles`` and the token-pool
        counts under ``power`` (``None`` when the power axis is off),
        each equal to what the records' result and the pool report: the
        waiting times are summed in record order, as
        :attr:`~repro.core.results.SimulationResult.mean_waiting_cycles`
        sums them.
        """
        s = self._s
        records = s["records"]
        waiting = s["waiting"]
        totals = self._totals(idle_nj)
        n = len(records)
        totals["jobs_completed"] = n
        totals["total_energy_nj"] = (
            totals["idle_energy_nj"]
            + totals["busy_static_energy_nj"]
            + totals["dynamic_energy_nj"]
        )
        totals["mean_waiting_cycles"] = (
            sum([waiting[record[0]] for record in records]) / n if n else 0.0
        )
        pool = self._power_pool
        totals["power"] = None if pool is None else pool.counts()
        return totals

    def _totals(self, idle_nj: float) -> dict:
        """The run totals a stream result and a batch result share."""
        s = self._s
        return dict(
            policy=self.policy.name,
            makespan_cycles=s["makespan"],
            idle_energy_nj=idle_nj,
            dynamic_energy_nj=(
                s["dynamic_nj"]
                + s["reconfig_nj"]
                + s["profiling_overhead_nj"]
            ),
            busy_static_energy_nj=s["busy_static_nj"],
            reconfig_energy_nj=s["reconfig_nj"],
            profiling_overhead_nj=s["profiling_overhead_nj"],
            reconfig_cycles=s["reconfig_cycles"],
            stall_decisions=s["stall_decisions"],
            non_best_decisions=s["non_best_decisions"],
            tuning_executions=s["tuning_executions"],
            profiling_executions=s["profiling_executions"],
            preemption_count=s["preemption_count"],
            core_busy_cycles=dict(enumerate(s["busy_cycles"])),
        )

    def _assemble_sim_result(self, idle_nj: float) -> SimulationResult:
        """The closed-batch result (retain mode) from the job records."""
        s = self._s
        jlab = s["jlab"]
        jbid = s["jbid"]
        jarr = s["jarr"]
        jstart = s["jstart"]
        jcomp = s["jcomp"]
        jprio = s["jprio"]
        jdl = s["jdl"]
        jpre = s["jpre"]
        waiting = s["waiting"]
        charged = s["charged"]
        bench_names = self.bench_names
        cfg_names = self.cfg_names
        # JobRecord is a frozen dataclass: its generated __init__ routes
        # every field through object.__setattr__ and then validates
        # invariants the simulation already guarantees (arrival <= start
        # <= completion, waiting >= 0).  Building via __new__ + __dict__
        # skips that per-record overhead; the generated __eq__/__hash__
        # read attributes, so the records compare identically.
        new_record = JobRecord.__new__
        job_records = []
        for jid, ci, cid, prof, tun in s["records"]:
            record = new_record(JobRecord)
            record.__dict__.update({
                "job_id": jlab[jid],
                "benchmark": bench_names[jbid[jid]],
                "arrival_cycle": jarr[jid],
                "start_cycle": jstart[jid],
                "completion_cycle": jcomp[jid],
                "core_index": ci,
                "config_name": cfg_names[cid],
                "profiled": prof,
                "tuning": tun,
                "energy_nj": charged[jid],
                "priority": jprio[jid],
                "deadline_cycle": jdl[jid],
                "preemptions": jpre[jid],
                "waiting_cycles": waiting[jid],
            })
            job_records.append(record)
        predictions = {}
        exploration_counts = {}
        pred_raw = self.pred_raw
        executed = self.executed
        for b in self.touch_order:
            if pred_raw[b] is not None:
                predictions[bench_names[b]] = pred_raw[b]
            exploration_counts[bench_names[b]] = len(executed[b])
        return SimulationResult(
            jobs_completed=len(job_records),
            exploration_counts=exploration_counts,
            predictions_kb=predictions,
            jobs=job_records,
            **self._totals(idle_nj),
        )

    # -- checkpoint / resume -------------------------------------------------

    def _fingerprint(self) -> dict:
        """Compatibility key a snapshot embeds and restore() verifies."""
        return {
            "policy": self.policy.name,
            "discipline": self.discipline,
            "preemptive": self.preemptive,
            # A build constant: another quantum would resume another run.
            "preemption_quantum_cycles": PREEMPTION_QUANTUM_CYCLES,
            "profiling_overhead_fraction": self.profiling_overhead_fraction,
            "core_sizes": list(self.core_sizes),
            "benchmarks": list(self.bench_names),
            "config": asdict(self.config),
            "process": self.process.params(),
            "power": None if self.power is None else self.power.to_dict(),
        }

    def snapshot(self) -> dict:
        """Versioned, JSON-serialisable image of the entire run state.

        Everything the event loop reads is captured — every
        :data:`_RUN_STATE` field (job slots, queue order, the completion
        heap, buffered arrivals, per-core state, the idle-energy
        ledger, knowledge state), the token pool, the arrival process's
        RNG and the histogram bucket counts — so restoring into a freshly
        constructed engine continues bit-identically.  Floats survive
        the JSON round trip exactly (repr-based serialisation).
        """
        s = self._s
        if s is None:
            raise RuntimeError("call start() or restore() first")
        if self.config.retain_jobs:
            # The histograms must cover every record the snapshot holds.
            self._feed_retained()
        pool = self._power_pool
        homes = {"engine": s, "knowledge": vars(self)}
        sections = {"engine": {}, "knowledge": {}}
        for field in _RUN_STATE:
            if field.key == "power":
                value = None if pool is None else pool.state_dict()
            else:
                value = field.dump(homes[field.section][field.key])
            sections[field.section][field.key] = value
        return {
            "version": STREAM_SNAPSHOT_VERSION,
            "fingerprint": self._fingerprint(),
            "process": self.process.state_dict(),
            **sections,
            "stats": {
                "waiting": self._wait_hist.state_dict(),
                "turnaround": self._turn_hist.state_dict(),
            },
            "telemetry": (
                None
                if self.telemetry is None
                else self.telemetry.state_dict()
            ),
        }

    def restore(self, snapshot: dict, process: ArrivalProcess) -> None:
        """Load a snapshot into this (freshly constructed) engine.

        Every field is checked (:func:`_checked_snapshot`), and the
        fingerprint must match this engine's configuration and the given
        process's parameters, before anything is restored: a bad or
        mismatched snapshot fails loudly with the engine untouched
        rather than resuming a subtly different run.  ``process`` is
        rewound to the snapshot's RNG position.
        """
        if self._s is not None:
            raise RuntimeError(
                "restore() needs a freshly constructed engine"
            )
        self._require_config()
        _checked_snapshot(snapshot)
        self.process = process
        expected = self._fingerprint()
        found = snapshot["fingerprint"]
        if found != expected:
            diff = [
                key
                for key in expected
                if found.get(key) != expected[key]
            ]
            raise ValueError(
                "snapshot fingerprint does not match this engine "
                f"configuration (differs in: {', '.join(diff)})"
            )
        tel_state = snapshot.get("telemetry")
        if tel_state is not None and self.telemetry is None:
            raise ValueError(
                "the snapshot carries telemetry state; attach a "
                "matching Telemetry (e.g. --telemetry-out) before "
                "resuming, or delete the telemetry files and the "
                "checkpoint to start over"
            )
        process.load_state(snapshot["process"])
        if tel_state is not None:
            # Truncate the output files back to the checkpointed byte
            # offsets, then reopen for append: the resumed stream
            # rewrites exactly the samples the kill discarded, so the
            # final files are byte-identical to an uninterrupted run.
            self.telemetry.load_state(tel_state)

        s = {}
        homes = {"engine": s, "knowledge": vars(self)}
        for field in _RUN_STATE:
            value = snapshot[field.section][field.key]
            if field.key != "power":
                homes[field.section][field.key] = field.load(value)
            elif value is not None:
                self._power_pool.load_state(value)
        self._wait_hist.load_state(snapshot["stats"]["waiting"])
        self._turn_hist.load_state(snapshot["stats"]["turnaround"])
        self._install(s)
        if self.telemetry is not None:
            self.telemetry.begin(self._telemetry_header())

    def write_checkpoint(self, path: str) -> None:
        """Atomically write :meth:`snapshot` as JSON to ``path``."""
        write_json_atomic(path, self.snapshot())
