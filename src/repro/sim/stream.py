"""The simulation core: one object, one event loop.

:meth:`StreamingSimulation.advance` is the only copy of the scheduler's
hot loop outside the reference engine: profile once, predict the best
core, stall or run on a non-best core, tune — with the same policies,
event ordering and floating-point operation order as
:class:`~repro.core.simulation.SchedulerSimulation`.  The
:class:`StreamingSimulation` that owns it also holds the flat tables
the loop reads (interned configurations, characterisation rows, the
system layout), the knowledge state it updates and the run state.
:data:`CORE_POLICIES` is the only answer to "can the core run this
policy?".  A core runs arrivals once, from start to drain, one of two
ways:

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
  counts folded at each reconfiguration.  A recycled run buffers its
  observations and feeds the histograms in blocks of
  :data:`OBSERVE_BLOCK`, flushing before a telemetry sample and before
  :meth:`~StreamingSimulation.advance` returns.  A retained run keeps
  every job record, so it feeds the two histograms lazily from those
  records, only when a result or telemetry sample reads them;
* **admission control** — an optional bounded ready queue with
  ``drop`` (reject the arrival), ``shed`` (evict the least-entitled
  queued job) or ``block`` (delay the arrival source) policies, so
  saturating loads degrade gracefully instead of growing the heap.

A run is reproduced from its inputs, not from saved state: the arrival
processes are prefix-stable, so a seed and the process parameters
regenerate any stream exactly.

Bounded-queue and warm-up machinery never touches the arithmetic of
the simulation itself, so an unbounded-queue stream truncated to N jobs
is bit-identical to the closed batch ``poisson_arrivals(count=N)`` —
enforced by ``tests/sim/test_streaming_engine.py``, while
``tests/sim/test_fast_engine_equivalence.py`` holds the batch route to
the reference loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Union

from repro.cache.config import BASE_CONFIG, CacheConfig
from repro.core.policies import (
    BasePolicy,
    EnergyCentricPolicy,
    OptimalPolicy,
    ProposedPolicy,
    SchedulingPolicy,
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
    TokenPool,
    degradation_ladder,
    nominal_prices,
    normalize_power,
    pick_degraded,
)
from repro.workloads.arrivals import ArrivalProcess, JobArrival

__all__ = [
    "ADMISSION_POLICIES",
    "CORE_POLICIES",
    "OBSERVE_BLOCK",
    "StreamConfig",
    "StreamResult",
    "StreamingSimulation",
    "core_branch",
]

#: Bounded-queue admission policies.
ADMISSION_POLICIES = ("drop", "shed", "block")

#: Observations a recycled run buffers before feeding the waiting and
#: turnaround histograms one block at a time (bounded memory, one
#: ``observe`` call per block instead of one per job).
OBSERVE_BLOCK = 4096

_NEG_INF = float("-inf")
_INF = float("inf")

#: Placement plans a benchmark's table holds before it is emptied: every
#: idle-core set of an eight-core system fits, and a wider system's
#: table stays bounded however many sets a long stream meets.
_PLAN_TABLE_CAP = 256

#: The placement plans that carry no data (see
#: :meth:`StreamingSimulation._placement_plan`).
_WAIT = (1, None)
_STALL = (2, None)

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

    A core runs once, from start to drain, either way: drive a stream
    with :meth:`run` (or :meth:`start` then :meth:`advance`) and
    :meth:`result` summarises it; a stream needs ``config``.
    :meth:`run_batch` replays a closed batch on a core constructed
    without ``config``.
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
        # results bit-identical.
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
        #: ``(ladder, prices)`` of a full execution (:meth:`_power_ladder`).
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
        # Updated in place by the run.
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
        #: ``_tuning_state`` per (benchmark, size) session, dropped when
        #: the session records a run.
        self._tuning_states: Dict[tuple, tuple] = {}

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

    def _tuning_state(self, b: int, size_kb: int) -> tuple:
        """``(done, cid, config)`` of the (benchmark, size) tuning
        session: ``config`` is its best config (done) or the next sweep
        config (in progress), and ``cid`` its interned id, or -1 when
        that config is not in this system's design space."""
        key = (b, size_kb)
        state = self._tuning_states.get(key)
        if state is None:
            session = self._session(b, size_kb)
            done = session.done
            cfg = session.best_config if done else session.next_config()
            state = (done, self.cfg_ids.get(cfg, -1), cfg)
            self._tuning_states[key] = state
        return state

    def _placement_plan(self, b: int, idle_mask: int) -> tuple:
        """Where :meth:`advance` places a job of benchmark ``b`` while
        exactly the cores in ``idle_mask`` (bit ``ci``) are idle.

        The policies' ``choose`` on interned ids, for everything but
        ``base`` (whose choice reads the live config).  What it returns
        depends only on ``b``'s knowledge and the idle set, so
        :meth:`advance` keeps it until either changes:

        * ``(0, (ci, cid, profiling, tuning))`` — place there;
        * :data:`_WAIT` — no idle core fits, the job waits;
        * :data:`_STALL` — ``proposed`` stalls for its best size;
        * ``(3, (assignment, e_best, e_cand, best_cores))`` —
          ``proposed`` weighs stalling for the busy ``best_cores``
          against the non-best ``assignment``: it stalls when
          ``e_best`` plus the static energy of waiting (the earliest
          best core's remaining cycles at the candidate's current
          config) is at most ``e_cand``.

        Raises the reference's ``KeyError`` or ``RuntimeError`` at the
        decision that meets the missing entry.
        """
        idle = [ci for ci in range(self.n_cores) if idle_mask >> ci & 1]
        pol = core_branch(self.policy)
        if self.policy.requires_profiling and not self.profiled[b]:
            # Unprofiled: profiling core, base config.
            for ci, supports_base in self.profiling_order:
                if idle_mask >> ci & 1 and supports_base:
                    return (0, (ci, self.base_cid, True, False))
            return _WAIT
        core_sizes = self.core_sizes
        if pol == 1:  # optimal
            if not idle:
                return _WAIT
            ex = self.executed[b]
            for ci in idle:
                for cid in self.core_cfg_ids[ci]:
                    if cid not in ex:
                        return (0, (ci, cid, False, True))
            bk = self.best_known[b]
            best_ci = min(idle, key=lambda ci: (bk[core_sizes[ci]][0], ci))
            return (0, (best_ci, bk[core_sizes[best_ci]][1], False, False))
        # Predictor-driven policies share the size lookup.
        if self.pred_raw[b] is None:
            raise RuntimeError(
                f"{self.bench_names[b]} has no prediction; profiling must "
                "precede prediction-based scheduling"
            )
        size_kb = self.pred_size[b]
        for ci in idle:
            if core_sizes[ci] == size_kb:
                done, cid, cfg = self._tuning_state(b, size_kb)
                if cid < 0:
                    raise KeyError(cfg)
                return (0, (ci, cid, False, not done))
        if pol == 2 or not idle:  # energy_centric, or no idle core
            return _WAIT
        # proposed, with only non-best sizes idle: tune one first.
        nb = []
        for ci in idle:
            done, cid, cfg = self._tuning_state(b, core_sizes[ci])
            if not done:
                if cid < 0:
                    raise KeyError(cfg)
                return (0, (ci, cid, False, True))
            nb.append((ci, cid, cfg))
        best_done, best_cid, best_cfg = self._tuning_state(b, size_kb)
        if not best_done:
            return _STALL
        if best_cid < 0:
            raise KeyError(best_cfg)
        if best_cid not in self.executed[b]:
            # Parity with the table-eviction guard (fault-only).
            return _STALL
        eb = self._est[b]
        cand_ci = cand_cid = -1
        cand_key = None
        for ci, scid, scfg in nb:
            if scid < 0:
                raise KeyError(scfg)
            key = (eb[scid][3], ci)
            if cand_key is None or key < cand_key:
                cand_key = key
                cand_ci = ci
                cand_cid = scid
        best_cores = self.cores_by_size[size_kb]
        return (3, (
            (cand_ci, cand_cid, False, False),
            eb[best_cid][3], eb[cand_cid][3], best_cores,
        ))

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
        """Attach the arrival process and initialise a fresh run's state."""
        if self._s is not None:
            raise RuntimeError("a StreamingSimulation runs exactly once")
        if self.config is None:
            raise ValueError("a stream needs a StreamConfig")
        self.process = process
        n = self.n_cores
        self._s = {
            # per-job slots: parallel lists, recycled via free_slots
            "jbid": [], "jlab": [], "jarr": [], "jprio": [], "jdl": [],
            "jstart": [], "jcomp": [], "remaining": [], "jpre": [],
            "last_enq": [], "waiting": [], "charged": [], "urgency": [],
            "sortkey": [], "free_slots": [],
            # a retained run's (slot, core, config id, profiled, tuning)
            # per completion, and how many the histograms were fed
            "records": [], "fed": 0,
            # event/queue state
            "queue": {}, "comp_heap": [], "abuf": [], "deferred": None,
            "gen_done": False,
            # per-core state
            "cur_job": [-1] * n, "busy_until": [0] * n,
            "busy_cycles": [0] * n, "run_started": [0] * n,
            "epoch": [0] * n, "execs": [0] * n,
            "cur_cfg": list(self.core_reset_cid), "recfg_count": [0] * n,
            "recfg_cycles_core": [0] * n, "recfg_nj_core": [0.0] * n,
            "res_closed": [[] for _ in range(n)], "res_start": [0] * n,
            "res_busy": [0] * n, "pending": [None] * n,
            "per_power": [{} for _ in range(n)], "core_dvfs": [None] * n,
            "preempted_now": set(), "preempted_now_cycle": -1,
            # scalars
            "now": 0, "seq": 0, "processed": 0, "n_busy": 0,
            "enqueued_total": 0, "max_queue_len": 0,
            "dynamic_nj": 0.0, "busy_static_nj": 0.0, "reconfig_nj": 0.0,
            "reconfig_cycles": 0, "profiling_overhead_nj": 0.0,
            "stall_decisions": 0, "non_best_decisions": 0,
            "tuning_executions": 0, "profiling_executions": 0,
            "preemption_count": 0, "non_best_pending": False,
            "generated": 0, "admitted": 0, "completed": 0, "dropped": 0,
            "shed": 0, "forced": 0, "blocked_cycles": 0, "observed": 0,
            "makespan": 0, "last_arrival_cycle": 0,
        }
        if self.telemetry is not None:
            self.telemetry.begin(self._telemetry_header())

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

    def run(self, process: ArrivalProcess) -> StreamResult:
        """Drive the stream to completion and summarise it."""
        self.start(process)
        self.advance()
        return self.result()

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
        self.advance()
        # The waiting/turnaround histograms stay unfed: a batch never
        # reads them.
        idle_nj = self._idle_energy()
        if records:
            return self._assemble_sim_result(idle_nj)
        return self._batch_totals(idle_nj)

    # -- the event loop ------------------------------------------------------

    def advance(self) -> None:
        """Process every event of the run, until the stream drains.

        The per-decision helpers (choose / start / complete / preempt /
        dispatch) are inlined into this one loop body: in CPython a
        variable captured by a nested function (or, before 3.12, by a
        comprehension) becomes a closure cell everywhere in the frame,
        so nothing in the frame is captured and each access is a plain
        local load.  The loop mutates the run state's lists in place and
        writes its scalars back when the stream drains.
        """
        s = self._s
        if s is None:
            raise RuntimeError("call start() first")
        process = self.process
        config = self.config

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
        cfg_names = self.cfg_names
        recfg_cycles_from = self.recfg_cycles_from
        recfg_nj_from = self.recfg_nj_from
        core_sizes = self.core_sizes
        bench_names = self.bench_names
        bids_get = self.bids.get
        store = self.store
        predictor = self.predictor
        pof = self.profiling_overhead_fraction
        policy = self.policy
        uses_predictor = policy.uses_predictor
        pol = core_branch(policy)
        preemptive = self.preemptive
        quantum = PREEMPTION_QUANTUM_CYCLES
        touched = self.touched
        touch_order = self.touch_order
        nearest_size = self._nearest_size
        sessions = self.sessions
        tuning_state = self._tuning_state
        tuning_states = self._tuning_states
        C = self.n_cores
        core_range = range(C)
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
        # arrival times of the buffered chunk, and the next one's index
        atimes: list = []
        abuf_i = 0
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
        # Observed waiting/turnaround values awaiting their block feed:
        # flushed when full and before returning, and the waiting
        # values also before a telemetry sample reads their histogram.
        wait_block: list = []
        turn_block: list = []
        wait_push = wait_block.append
        turn_push = turn_block.append
        flush_at = observed + OBSERVE_BLOCK

        # Telemetry thresholds: the completion count of the next sample
        # and the completion/start counts of the next sampled trace
        # events.  Telemetry-off parks them all at -1: one int compare
        # per completion/start is the entire hot-loop cost.  Everything
        # a sample reads is state the loop already maintains, which
        # keeps telemetry-on bit-identical.
        tel = self.telemetry
        if tel is None:
            tel_every = tr_every = 0
            tel_next = tr_comp_next = tr_start_next = -1
        else:
            tel_every = tel_next = tel.sample_every
            tr_every = tel.trace_every
            tr_comp_next = tr_start_next = tr_every if tr_every > 0 else -1

        # Per-benchmark ready lanes (see _lane_push), kept current
        # wherever the queue changes.  An entry's ``order`` is
        # ``enqueued_total`` when the job was queued, so
        # ``(sortkey, order)`` is the stable ``sorted(queue,
        # key=sort_key)`` order and, under FIFO (every sortkey 0), the
        # queue's own.
        lanes: List[list] = [[] for _ in bench_names]
        heads: list = []
        # Proposed's stalled entries of the current pass that have later
        # jobs in their lane.
        stalled: list = []
        # True while every queued job is known to be blocked under the
        # current cores and knowledge (see the dispatch scan below).
        settled = False
        may_settle = pol != 3
        # Bit ``ci`` set while core ``ci`` is idle (``cur_job[ci] < 0``),
        # kept current at every start, completion and preemption.
        idle_mask = 0
        for ci in core_range:
            if cur_job[ci] < 0:
                idle_mask |= 1 << ci
        # Per-benchmark placement plans keyed by ``idle_mask``
        # (_placement_plan), cleared whenever the benchmark's knowledge
        # changes.  ``base`` places on the lowest idle bit.
        plans: List[dict] = [{} for _ in bench_names]

        while True:
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
                        idle_mask |= 1 << ci
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
                                plans[b].clear()
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
                            # No plans[b].clear() of its own: b's
                            # first profiling run is its first run of
                            # the base config, whose execution record
                            # just dropped them.
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
                            # Another core may have recorded this
                            # config of the sweep already.
                            size_kb = cfg_sizes[cid]
                            done, next_cid, _ = tuning_state(b, size_kb)
                            if not done and next_cid == cid:
                                session = sessions[(b, size_kb)]
                                session.record(cfg_objs[cid], e_tot)
                                del tuning_states[(b, size_kb)]
                                plans[b].clear()
                                if session.done:
                                    if not touched[b]:
                                        touched[b] = True
                                        touch_order.append(b)
                                    tuned[b].add(size_kb)
                        # ---- streaming accumulation ----------------
                        completed += 1
                        if now > makespan:
                            makespan = now
                        if retain:
                            # Statistics come from the records later
                            # (see _feed_retained), and only if a
                            # result or sample reads them.
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
                            # A sample reads only the waiting histogram:
                            # the turnaround block stays pending until
                            # it is full.
                            self._wait_hist.observe(*wait_block)
                            wait_block.clear()
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
                    # completions advance the clock, so the arrival
                    # after a pause may carry a timestamp in the simulated
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
                            continue
                        if adm == 2:  # block: pause the source
                            deferred = a
                            processed += 1
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
                        # ``continue`` means this job's benchmark waits
                        # and the scan moves to the next head.
                        jid = e[2]
                        b = jbid[jid]
                        if pol == 0:  # base: first idle core, as it is
                            if not idle_mask:
                                continue
                            ci = (idle_mask & -idle_mask).bit_length() - 1
                            assignment = (ci, cur_cfg[ci], False, False)
                        else:
                            plan = plans[b].get(idle_mask)
                            if plan is None:
                                plan = self._placement_plan(b, idle_mask)
                                table = plans[b]
                                if len(table) >= _PLAN_TABLE_CAP:
                                    table.clear()
                                table[idle_mask] = plan
                            kind, assignment = plan
                            if kind:
                                if kind == 1:  # wait
                                    continue
                                if kind == 3:
                                    # proposed weighs the stall live:
                                    # every best-size core is busy.
                                    (assignment, e_best, e_cand,
                                     best_cores) = assignment
                                    until = busy_until[best_cores[0]]
                                    for bc in best_cores:
                                        if busy_until[bc] < until:
                                            until = busy_until[bc]
                                    wait_cycles = (
                                        until - now if until > now else 0
                                    )
                                    stall = (
                                        e_best
                                        + wait_cycles
                                        * cfg_static[cur_cfg[assignment[0]]]
                                        <= e_cand
                                    )
                                else:
                                    stall = True
                                if stall:
                                    stall_decisions += 1
                                    if lanes[b][-1] is not e:
                                        stalled.append(e)
                                    continue
                                non_best_decisions += 1
                                non_best_pending = True

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
                        idle_mask ^= 1 << ci
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
                idle_mask |= 1 << victim_ci
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

        # -- write scalars (and the rebound buffer) back ----------------
        s["abuf"] = abuf[abuf_i:]
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
        if queue:
            raise RuntimeError(
                f"stream drained with {len(queue)} jobs still queued"
            )

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
            raise RuntimeError("call start() first")
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
        each equal to what the records' result and the pool report.  A
        closed batch never recycles or drops a slot and completes every
        admitted job, so its waiting times are the whole ``waiting``
        column: integer cycle counts, whose sum in slot order equals
        :attr:`~repro.core.results.SimulationResult.mean_waiting_cycles`'s
        sum in record order.
        """
        s = self._s
        records = s["records"]
        totals = self._totals(idle_nj)
        n = len(records)
        totals["jobs_completed"] = n
        totals["total_energy_nj"] = (
            totals["idle_energy_nj"]
            + totals["busy_static_energy_nj"]
            + totals["dynamic_energy_nj"]
        )
        totals["mean_waiting_cycles"] = (
            sum(s["waiting"]) / n if n else 0.0
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
