"""The scheduler's one event loop, and its open-system front end.

:meth:`StreamingSimulation.advance` is the only copy of the scheduler's
hot loop outside the reference engine: profile once, predict the best
core, stall or run on a non-best core, tune — with the same policies,
event ordering and floating-point operation order as
:class:`~repro.core.simulation.SchedulerSimulation`.  It reads the
construction-time tables and knowledge state of a
:class:`~repro.sim.fast.FastSimulation` and has two front ends:

* **the open-system stream** (:meth:`StreamingSimulation.run`) against
  an *unbounded* :class:`~repro.workloads.arrivals.ArrivalProcess`, in
  bounded memory;
* **the closed batch** (:meth:`~repro.sim.fast.FastSimulation.run`): a
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
  into :class:`~repro.obs.metrics.Histogram` P² estimators
  (P50/P90/P99), energy into scalar accumulators, and idle leakage into
  per-core per-power integer cycle counts folded at each
  reconfiguration.  A recycled run buffers its observations and feeds
  the histograms in blocks of :data:`OBSERVE_BLOCK`, flushing before a
  telemetry sample and before :meth:`~StreamingSimulation.advance`
  returns, so no buffered value is ever part of a snapshot.  A retained
  run keeps every job record, so it feeds the two histograms lazily
  from those records, in completion order, only when a result,
  snapshot or telemetry sample reads them;
* **admission control** — an optional bounded ready queue with
  ``drop`` (reject the arrival), ``shed`` (evict the least-entitled
  queued job) or ``block`` (delay the arrival source) policies, so
  saturating loads degrade gracefully instead of growing the heap;
* **checkpoint/resume** — :meth:`StreamingSimulation.snapshot` captures
  a versioned, JSON-serialisable image of every piece of run state
  (job slots, queue, completion heap, RNG streams, knowledge state,
  accumulators, P² markers) such that restoring it into a fresh engine
  and finishing the run is bit-identical to never having stopped.

Bounded-queue and warm-up machinery never touches the arithmetic of
the simulation itself, so an unbounded-queue stream truncated to N jobs
is bit-identical to the closed batch ``poisson_arrivals(count=N)`` —
enforced by ``tests/sim/test_streaming_engine.py``, while
``tests/sim/test_fast_engine_equivalence.py`` holds the batch front end
to the reference loop.
"""

from __future__ import annotations

import math

from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional

from repro._util import load_json_document, write_json_atomic
from repro.cache.config import CacheConfig
from repro.core.results import JobRecord, SimulationResult
from repro.core.scheduler import DISCIPLINES, PREEMPTION_QUANTUM_CYCLES
from repro.core.tuning import TuningSession
from repro.energy.scaling import scaled_charges
from repro.obs.events import CATEGORIES as _CATEGORIES
from repro.obs.metrics import Histogram
from repro.power.budget import pick_degraded
from repro.sim.fast import FastSimulation, core_branch
from repro.workloads.arrivals import ArrivalProcess, JobArrival

__all__ = [
    "ADMISSION_POLICIES",
    "OBSERVE_BLOCK",
    "STREAM_SNAPSHOT_VERSION",
    "StreamConfig",
    "StreamResult",
    "StreamingSimulation",
    "read_checkpoint",
]

#: Snapshot schema version; bumped on any layout change.  Loading a
#: snapshot with a different version fails loudly.  v2 added the
#: ``telemetry`` section (sample count + output byte offsets); v3 added
#: the power axis (token-pool account + per-core DVFS points); v4 added
#: the closed residency intervals of retained runs and moved telemetry
#: samples from arrival refills to completion counts.
STREAM_SNAPSHOT_VERSION = 4

#: Bounded-queue admission policies.
ADMISSION_POLICIES = ("drop", "shed", "block")

#: Observations a recycled run buffers before feeding the waiting and
#: turnaround histograms one block at a time (bounded memory, one
#: P² call per block instead of one per job).
OBSERVE_BLOCK = 4096

_NEG_INF = float("-inf")
_INF = float("inf")


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


def _checked_snapshot(snapshot) -> dict:
    """``snapshot``, if it has this build's version and sections."""
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
    return snapshot


def read_checkpoint(path: str) -> dict:
    """Load a checkpoint file written by :meth:`write_checkpoint`.

    Raises :class:`ValueError` naming ``path`` when the file is not
    JSON or not a stream snapshot this build can resume.
    """
    return load_json_document(path, "stream checkpoint", _checked_snapshot)


def _arrival_from_list(row: list) -> JobArrival:
    job_id, benchmark, arrival_cycle, priority, deadline = row
    return JobArrival(job_id, benchmark, arrival_cycle, priority, deadline)


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


def _session_from_dict(state: dict) -> TuningSession:
    def cfg(fields: Optional[list]) -> Optional[CacheConfig]:
        if fields is None:
            return None
        size_kb, assoc, line_b = fields
        return CacheConfig(size_kb=size_kb, assoc=assoc, line_b=line_b)

    session = TuningSession(
        size_kb=state["size_kb"],
        line_first=state["line_first"],
        phase=state["phase"],
    )
    session.best_config = cfg(state["best_config"])
    session.best_energy_nj = float(state["best_energy_nj"])
    session.explored = [cfg(c) for c in state["explored"]]
    session._first_index = int(state["first_index"])
    session._second_index = int(state["second_index"])
    session._chosen_first = (
        None
        if state["chosen_first"] is None
        else int(state["chosen_first"])
    )
    return session


class StreamingSimulation:
    """One run of the simulation core's event loop over arrivals.

    Construction mirrors :class:`FastSimulation` (same arguments, same
    validation) plus a :class:`StreamConfig`; :meth:`over` instead
    runs on an existing :class:`FastSimulation`'s tables.  Drive it
    either with :meth:`run` (to completion, with optional periodic
    checkpoints) or with :meth:`start` + :meth:`advance` for stepwise
    control; :meth:`result` summarises a finished run.
    :meth:`snapshot` / :meth:`restore` implement deterministic
    checkpoint/resume.
    """

    def __init__(
        self,
        system,
        policy,
        store,
        *,
        predictor=None,
        energy_table=None,
        profiling_overhead_fraction: float = 0.003,
        discipline: str = "fifo",
        preemptive: bool = False,
        preload_profiles: bool = False,
        config: StreamConfig = None,
        telemetry=None,
        power=None,
    ) -> None:
        if config is None:
            raise ValueError("a StreamConfig is required")
        fast = FastSimulation(
            system,
            policy,
            store,
            predictor=predictor,
            energy_table=energy_table,
            profiling_overhead_fraction=profiling_overhead_fraction,
            discipline=discipline,
            preemptive=preemptive,
            preload_profiles=preload_profiles,
            telemetry=telemetry,
            power=power,
        )
        self._attach(fast, config, "stream")

    @classmethod
    def over(
        cls,
        fast: FastSimulation,
        config: StreamConfig,
        *,
        front_end: str = "stream",
    ) -> "StreamingSimulation":
        """A stream running on ``fast``'s tables and knowledge state.

        The stream consumes ``fast``: its knowledge state evolves with
        the run, so one :class:`FastSimulation` backs one stream.
        ``front_end`` names the caller in the telemetry header and
        samples (``"fast"`` for the closed-batch front end).
        """
        stream = cls.__new__(cls)
        stream._attach(fast, config, front_end)
        return stream

    def _attach(
        self, fast: FastSimulation, config: StreamConfig, front_end: str
    ) -> None:
        if config is None:
            raise ValueError("a StreamConfig is required")
        if fast.stream is not None:
            raise RuntimeError("a FastSimulation runs exactly once")
        fast.stream = self
        self.f = fast
        self.config = config
        self.front_end = front_end
        # Sampled telemetry sink (repro.obs.telemetry), fed every
        # ``sample_every`` completions plus a final sample at drain.
        # Its byte offsets ride in the checkpoint, so kill/resume
        # reproduces byte-identical files.
        self.telemetry = fast.telemetry
        self.process: Optional[ArrivalProcess] = None
        self._s: Optional[dict] = None
        self._wait_hist = Histogram("stream.waiting_cycles")
        self._turn_hist = Histogram("stream.turnaround_cycles")

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
        self.process = process
        C = self.f.n_cores
        self._s = {
            # per-job slots (parallel lists, recycled via free_slots)
            "jbid": [], "jlab": [], "jarr": [], "jprio": [], "jdl": [],
            "jstart": [], "jcomp": [], "remaining": [], "jpre": [],
            "last_enq": [], "waiting": [], "charged": [],
            "urgency": [], "sortkey": [],
            "free_slots": [],
            "records": [],
            # retained records already fed into the histograms
            "fed": 0,
            # event/queue state
            "queue": {},
            "comp_heap": [],
            "abuf": [],
            "atimes": [],
            "abuf_i": 0,
            "deferred": None,
            "gen_done": False,
            # per-core state
            "cur_job": [-1] * C,
            "busy_until": [0] * C,
            "busy_cycles": [0] * C,
            "run_started": [0] * C,
            "epoch": [0] * C,
            "execs": [0] * C,
            "cur_cfg": list(self.f.core_reset_cid),
            "recfg_count": [0] * C,
            "recfg_cycles_core": [0] * C,
            "recfg_nj_core": [0.0] * C,
            "res_closed": [[] for _ in range(C)],
            "res_start": [0] * C,
            "res_busy": [0] * C,
            "pending": [None] * C,
            "per_power": [dict() for _ in range(C)],
            "core_dvfs": [None] * C,
            # scalars
            "now": 0,
            "seq": 0,
            "processed": 0,
            "n_busy": 0,
            "enqueued_total": 0,
            "max_queue_len": 0,
            "dynamic_nj": 0.0,
            "busy_static_nj": 0.0,
            "reconfig_nj": 0.0,
            "reconfig_cycles": 0,
            "profiling_overhead_nj": 0.0,
            "stall_decisions": 0,
            "non_best_decisions": 0,
            "tuning_executions": 0,
            "profiling_executions": 0,
            "preemption_count": 0,
            "non_best_pending": False,
            "preempted_now": set(),
            "preempted_now_cycle": -1,
            "generated": 0,
            "admitted": 0,
            "completed": 0,
            "dropped": 0,
            "shed": 0,
            "forced": 0,
            "blocked_cycles": 0,
            "observed": 0,
            "makespan": 0,
            "last_arrival_cycle": 0,
            # per-(benchmark, size) session cache, rebuilt lazily
            "sess_state": [dict() for _ in self.f.bench_names],
        }
        if self.telemetry is not None:
            self.telemetry.begin(self._telemetry_header())

    def _telemetry_header(self) -> dict:
        """Deterministic run metadata for the telemetry header line."""
        f = self.f
        return {
            "engine": self.front_end,
            "policy": f.policy.name,
            "discipline": f.discipline,
            "preemptive": f.preemptive,
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
        f = self.f
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

        # -- knowledge-state locals (owned by the FastSimulation) -------
        est = f._est
        executed = f.executed
        best_known = f.best_known
        profiled = f.profiled
        pred_raw = f.pred_raw
        pred_size = f.pred_size
        tuned = f.tuned
        cfg_sizes = f.cfg_sizes
        cfg_static = f.cfg_static_nj
        cfg_objs = f.cfg_objs
        cfg_ids = f.cfg_ids
        cfg_names = f.cfg_names
        recfg_cycles_from = f.recfg_cycles_from
        recfg_nj_from = f.recfg_nj_from
        core_sizes = f.core_sizes
        core_cfg_ids = f.core_cfg_ids
        cores_by_size = f.cores_by_size
        profiling_order = f.profiling_order
        base_cid = f.base_cid
        bench_names = f.bench_names
        bids_get = f.bids.get
        store = f.store
        predictor = f.predictor
        pof = f.profiling_overhead_fraction
        policy = f.policy
        requires_profiling = policy.requires_profiling
        uses_predictor = policy.uses_predictor
        pol = core_branch(policy)
        preemptive = f.preemptive
        quantum = PREEMPTION_QUANTUM_CYCLES
        touched = f.touched
        touch_order = f.touch_order
        nearest_size = f._nearest_size
        C = f.n_cores
        core_range = range(C)
        sessions = f.sessions
        disc = DISCIPLINES.index(f.discipline)
        fifo = disc == 0

        # Power axis locals.  ``pool is None`` is the only extra branch
        # the power-off loop pays.
        pool = f._power_pool
        ladders = f._power_ladders
        nominal_point = None
        slack_pct = 0.0
        if pool is not None:
            table = f.power.dvfs
            nominal_point = None if table is None else table.default
            slack_pct = f.power.slack_pct

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

        view: Optional[list] = None
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
                            # (see _feed_retained): two P² observations
                            # per job would dominate a short batch.
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
                        # shed: evict the least-entitled queued job
                        # (last in service order; under FIFO the
                        # youngest, otherwise the worst sort key with
                        # latest-arrival tie-break, which is exactly
                        # the last element of the stable-sorted view).
                        if fifo:
                            victim = next(reversed(queue))
                        else:
                            if view is None:
                                view = sorted(
                                    queue, key=sort_key.__getitem__
                                )
                            victim = view[-1]
                        del queue[victim]
                        view = None
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
                view = None
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
                    # * ``blocked`` memoises, per pass, each benchmark
                    #   that found no placement, with its stall-counter
                    #   increment; a repeat is skipped and repeats the
                    #   increment.
                    # * A pass that places nothing leaves the queue
                    #   ``settled``: until a start, a completion (stale
                    #   ones too) or a preemption, every queued job
                    #   stays blocked, so an arrival's round tests only
                    #   the job just admitted.  Proposed never settles
                    #   (its stall test reads ``now`` and bumps the
                    #   counter per visit), nor does a pass in which
                    #   the power gate throttled a job (the degradation
                    #   slack test reads ``now`` and the pool).
                    # Under FIFO the dict's insertion order IS the
                    # view, so iterate it live (the only mutation —
                    # del on assignment — is immediately followed by
                    # a break).
                    if settled:
                        v = (jid,)
                    elif fifo:
                        v = queue
                    elif view is not None:
                        v = view
                    else:
                        v = view = sorted(
                            queue, key=sort_key.__getitem__
                        )
                    settled = may_settle
                    assigned = False
                    blocked = {}
                    for jid in v:
                        # ---- placement decision --------------------
                        # Idleness is just ``cur_job[ci] < 0``;
                        # ``continue`` means this job waits and the
                        # scan moves to the next one.
                        b = jbid[jid]
                        if b in blocked:
                            stall_decisions += blocked[b]
                            continue
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
                                blocked[b] = 0
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
                                    blocked[b] = 0
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
                                            blocked[b] = 1
                                            continue
                                        if best_cid < 0:
                                            raise KeyError(best_cfg)
                                        if best_cid not in executed[b]:
                                            # Parity with the
                                            # table-eviction guard
                                            # (fault-only).
                                            stall_decisions += 1
                                            blocked[b] = 1
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
                                            blocked[b] = 1
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
                                    cached = f._power_ladder(b, ci, pin, 1.0)
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
                                    ladder, _ = f._power_ladder(
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
                                    continue

                        # ---- job start -----------------------------
                        del queue[jid]
                        view = None
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
                if fifo:
                    v = queue
                elif view is not None:
                    v = view
                else:
                    v = view = sorted(queue, key=sort_key.__getitem__)
                preempted = False
                for jid in v:
                    if urgency[jid] <= victim_urgency:
                        continue
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
                    view = None
                    enqueued_total += 1
                    if len(queue) > max_queue_len:
                        max_queue_len = len(queue)
                    settled = False
                    preempted = True
                    break
                if not preempted:
                    break

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
        here — in completion order, with the warm-up filter — only when
        something reads them.  P² state depends on the order of the
        observations, not on when they are made, so this equals feeding
        at every completion.
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
        cfg_names = self.f.cfg_names
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
        f = self.f
        cfg_static = f.cfg_static_nj
        makespan = s["makespan"]
        res_start = s["res_start"]
        res_busy = s["res_busy"]
        cur_cfg = s["cur_cfg"]
        idle_nj = 0.0
        for ci in range(f.n_cores):
            pp = dict(s["per_power"][ci])
            idle_cycles = (makespan - res_start[ci]) - res_busy[ci]
            if idle_cycles < 0:  # pragma: no cover - invariant
                raise RuntimeError(
                    f"{f.core_names[ci]} busy beyond the makespan"
                )
            power = cfg_static[cur_cfg[ci]]
            pp[power] = pp.get(power, 0) + idle_cycles
            for power, cycles in pp.items():
                idle_nj += cycles * power
        return idle_nj

    def _core_busy(self) -> Dict[int, int]:
        core_busy = {}
        for ci, busy in enumerate(self._s["busy_cycles"]):
            core_busy[ci] = busy
        return core_busy

    def result(self) -> StreamResult:
        """Summarise a finished run (raises while events remain)."""
        self._require_finished()
        s = self._s
        f = self.f
        config = self.config
        idle_nj = self._idle_energy()
        sim_result = None
        if config.retain_jobs:
            self._feed_retained()
            sim_result = self._assemble_sim_result(idle_nj)
        pool = f._power_pool
        return StreamResult(
            policy=f.policy.name,
            discipline=f.discipline,
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
            enqueued_total=s["enqueued_total"],
            max_queue_len=s["max_queue_len"],
            core_busy_cycles=self._core_busy(),
            waiting=self._wait_hist.snapshot(),
            turnaround=self._turn_hist.snapshot(),
            sim_result=sim_result,
            power=None if pool is None else pool.counts(),
        )

    def batch_result(self) -> SimulationResult:
        """The closed-batch result of a finished retained run.

        Unlike :meth:`result` it leaves the waiting/turnaround
        histograms unfed: the batch front end never reads them.
        """
        self._require_finished()
        if not self.config.retain_jobs:
            raise RuntimeError(
                "batch_result() needs StreamConfig(retain_jobs=True)"
            )
        return self._assemble_sim_result(self._idle_energy())

    def _assemble_sim_result(self, idle_nj: float) -> SimulationResult:
        """The closed-batch result (retain mode) from the job records."""
        s = self._s
        f = self.f
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
        bench_names = f.bench_names
        cfg_names = f.cfg_names
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
        pred_raw = f.pred_raw
        executed = f.executed
        for b in f.touch_order:
            if pred_raw[b] is not None:
                predictions[bench_names[b]] = pred_raw[b]
            exploration_counts[bench_names[b]] = len(executed[b])
        return SimulationResult(
            policy=f.policy.name,
            jobs_completed=len(job_records),
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
            core_busy_cycles=self._core_busy(),
            exploration_counts=exploration_counts,
            predictions_kb=predictions,
            jobs=job_records,
        )

    # -- checkpoint / resume -------------------------------------------------

    def _fingerprint(self) -> dict:
        """Compatibility key a snapshot embeds and restore() verifies."""
        f = self.f
        return {
            "policy": f.policy.name,
            "discipline": f.discipline,
            "preemptive": f.preemptive,
            # Still fingerprinted so existing v4 checkpoints resume.
            "preemption_quantum_cycles": PREEMPTION_QUANTUM_CYCLES,
            "profiling_overhead_fraction": f.profiling_overhead_fraction,
            "core_sizes": list(f.core_sizes),
            "benchmarks": list(f.bench_names),
            "config": asdict(self.config),
            "process": self.process.params(),
            "power": None if f.power is None else f.power.to_dict(),
        }

    def snapshot(self) -> dict:
        """Versioned, JSON-serialisable image of the entire run state.

        Everything the event loop reads is captured — job slots, queue
        order, the completion heap, buffered arrivals, the arrival
        process's RNG, per-core state, the idle-energy ledger,
        knowledge state (profiling table, tuning sessions) and the P²
        accumulators — so restoring into a freshly constructed engine
        continues bit-identically.  Floats survive the JSON round trip
        exactly (repr-based serialisation).
        """
        s = self._s
        if s is None:
            raise RuntimeError("call start() or restore() first")
        if self.config.retain_jobs:
            # The P² state must cover every record the snapshot holds.
            self._feed_retained()
        f = self.f
        abuf_i = s["abuf_i"]
        engine = {
            "jbid": list(s["jbid"]),
            "jlab": list(s["jlab"]),
            "jarr": list(s["jarr"]),
            "jprio": list(s["jprio"]),
            "jdl": list(s["jdl"]),
            "jstart": list(s["jstart"]),
            "jcomp": list(s["jcomp"]),
            "remaining": list(s["remaining"]),
            "jpre": list(s["jpre"]),
            "last_enq": list(s["last_enq"]),
            "waiting": list(s["waiting"]),
            "charged": list(s["charged"]),
            "urgency": list(s["urgency"]),
            "sortkey": list(s["sortkey"]),
            "free_slots": list(s["free_slots"]),
            "records": [list(r) for r in s["records"]],
            "queue": list(s["queue"]),
            "comp_heap": [list(e) for e in s["comp_heap"]],
            "abuf": [list(a) for a in s["abuf"][abuf_i:]],
            "deferred": (
                None
                if s["deferred"] is None
                else list(s["deferred"])
            ),
            "gen_done": s["gen_done"],
            "cur_job": list(s["cur_job"]),
            "busy_until": list(s["busy_until"]),
            "busy_cycles": list(s["busy_cycles"]),
            "run_started": list(s["run_started"]),
            "epoch": list(s["epoch"]),
            "execs": list(s["execs"]),
            "cur_cfg": list(s["cur_cfg"]),
            "recfg_count": list(s["recfg_count"]),
            "recfg_cycles_core": list(s["recfg_cycles_core"]),
            "recfg_nj_core": list(s["recfg_nj_core"]),
            "res_closed": [
                [list(interval) for interval in intervals]
                for intervals in s["res_closed"]
            ],
            "res_start": list(s["res_start"]),
            "res_busy": list(s["res_busy"]),
            "pending": [
                None if p is None else list(p) for p in s["pending"]
            ],
            "per_power": [
                [[power, cycles] for power, cycles in pp.items()]
                for pp in s["per_power"]
            ],
            "preempted_now": sorted(s["preempted_now"]),
            "core_dvfs": list(s["core_dvfs"]),
            "power": (
                None
                if f._power_pool is None
                else f._power_pool.state_dict()
            ),
        }
        for key in self._SCALAR_KEYS:
            engine[key] = s[key]
        knowledge = {
            "profiled": list(f.profiled),
            "pred_raw": list(f.pred_raw),
            "pred_size": list(f.pred_size),
            "executed": [list(d) for d in f.executed],
            "best_known": [
                [[size, e, cid] for size, (e, cid) in d.items()]
                for d in f.best_known
            ],
            "tuned": [sorted(sizes) for sizes in f.tuned],
            "touched": list(f.touched),
            "touch_order": list(f.touch_order),
            "sessions": [
                [b, size_kb, _session_to_dict(session)]
                for (b, size_kb), session in f.sessions.items()
            ],
        }
        return {
            "version": STREAM_SNAPSHOT_VERSION,
            "fingerprint": self._fingerprint(),
            "process": self.process.state_dict(),
            "engine": engine,
            "knowledge": knowledge,
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

    _SCALAR_KEYS = (
        "now", "seq", "processed", "n_busy", "enqueued_total",
        "max_queue_len", "dynamic_nj", "busy_static_nj", "reconfig_nj",
        "reconfig_cycles", "profiling_overhead_nj", "stall_decisions",
        "non_best_decisions", "tuning_executions",
        "profiling_executions", "preemption_count", "non_best_pending",
        "preempted_now_cycle", "generated", "admitted", "completed",
        "dropped", "shed", "forced", "blocked_cycles", "observed",
        "makespan", "last_arrival_cycle",
    )

    def restore(self, snapshot: dict, process: ArrivalProcess) -> None:
        """Load a snapshot into this (freshly constructed) engine.

        The snapshot must carry the supported schema version and a
        fingerprint matching this engine's configuration and the given
        process's parameters — mismatches fail loudly rather than
        resuming a subtly different run.  ``process`` is rewound to the
        snapshot's RNG position.
        """
        if self._s is not None:
            raise RuntimeError(
                "restore() needs a freshly constructed engine"
            )
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
        process.load_state(snapshot["process"])

        engine = snapshot["engine"]
        abuf = [_arrival_from_list(x) for x in engine["abuf"]]
        records = [tuple(r) for r in engine["records"]]
        state = {
            "jbid": list(engine["jbid"]),
            "jlab": list(engine["jlab"]),
            "jarr": list(engine["jarr"]),
            "jprio": list(engine["jprio"]),
            "jdl": list(engine["jdl"]),
            "jstart": list(engine["jstart"]),
            "jcomp": list(engine["jcomp"]),
            "remaining": list(engine["remaining"]),
            "jpre": list(engine["jpre"]),
            "last_enq": list(engine["last_enq"]),
            "waiting": list(engine["waiting"]),
            "charged": list(engine["charged"]),
            "urgency": list(engine["urgency"]),
            "sortkey": list(engine["sortkey"]),
            "free_slots": list(engine["free_slots"]),
            "records": records,
            # snapshot() feeds every retained record before writing
            "fed": len(records),
            "queue": dict.fromkeys(engine["queue"], True),
            "comp_heap": [tuple(e) for e in engine["comp_heap"]],
            "abuf": abuf,
            "atimes": [a[2] for a in abuf],
            "abuf_i": 0,
            "deferred": (
                None
                if engine["deferred"] is None
                else _arrival_from_list(engine["deferred"])
            ),
            "gen_done": engine["gen_done"],
            "cur_job": list(engine["cur_job"]),
            "busy_until": list(engine["busy_until"]),
            "busy_cycles": list(engine["busy_cycles"]),
            "run_started": list(engine["run_started"]),
            "epoch": list(engine["epoch"]),
            "execs": list(engine["execs"]),
            "cur_cfg": list(engine["cur_cfg"]),
            "recfg_count": list(engine["recfg_count"]),
            "recfg_cycles_core": list(engine["recfg_cycles_core"]),
            "recfg_nj_core": list(engine["recfg_nj_core"]),
            "res_closed": [
                [tuple(interval) for interval in intervals]
                for intervals in engine["res_closed"]
            ],
            "res_start": list(engine["res_start"]),
            "res_busy": list(engine["res_busy"]),
            "pending": [
                None if p is None else tuple(p)
                for p in engine["pending"]
            ],
            "per_power": [
                {power: cycles for power, cycles in pairs}
                for pairs in engine["per_power"]
            ],
            "preempted_now": set(engine["preempted_now"]),
            "core_dvfs": list(engine["core_dvfs"]),
            "sess_state": [dict() for _ in self.f.bench_names],
        }
        for key in self._SCALAR_KEYS:
            state[key] = engine[key]
        self._s = state

        f = self.f
        if engine["power"] is not None:
            f._power_pool.load_state(engine["power"])
        knowledge = snapshot["knowledge"]
        f.profiled = list(knowledge["profiled"])
        f.pred_raw = list(knowledge["pred_raw"])
        f.pred_size = list(knowledge["pred_size"])
        f.executed = [
            dict.fromkeys(keys, True) for keys in knowledge["executed"]
        ]
        f.best_known = [
            {size: (energy, cid) for size, energy, cid in entries}
            for entries in knowledge["best_known"]
        ]
        f.tuned = [set(sizes) for sizes in knowledge["tuned"]]
        f.touched = list(knowledge["touched"])
        f.touch_order = list(knowledge["touch_order"])
        f.sessions = {
            (b, size_kb): _session_from_dict(session)
            for b, size_kb, session in knowledge["sessions"]
        }

        stats = snapshot["stats"]
        self._wait_hist.load_state(stats["waiting"])
        self._turn_hist.load_state(stats["turnaround"])

        tel_state = snapshot.get("telemetry")
        if tel_state is not None:
            if self.telemetry is None:
                raise ValueError(
                    "the snapshot carries telemetry state; attach a "
                    "matching Telemetry (e.g. --telemetry-out) before "
                    "resuming, or delete the telemetry files and the "
                    "checkpoint to start over"
                )
            # Truncate the output files back to the checkpointed byte
            # offsets, then reopen for append: the resumed stream
            # rewrites exactly the samples the kill discarded, so the
            # final files are byte-identical to an uninterrupted run.
            self.telemetry.load_state(tel_state)
        if self.telemetry is not None:
            self.telemetry.begin(self._telemetry_header())

    def write_checkpoint(self, path: str) -> None:
        """Atomically write :meth:`snapshot` as JSON to ``path``."""
        write_json_atomic(path, self.snapshot())
