"""End-to-end scheduler simulation (the paper's MATLAB evaluation role).

Drives one of the four policies over an arrival stream on a
:class:`~repro.core.system.SystemConfig`, with every physical execution's
cycles and energy drawn from the characterisation store.  The scheduler
is invoked "each time a benchmark arrived or when a core became idle"
(paper §V) — exactly the two event kinds of the engine.

Energy accounting
-----------------
* **dynamic** — Figure 4's E(dynamic) of every execution, plus tuner
  reconfiguration energy and profiling counter overhead;
* **busy static** — Figure 4's E(sta) of every execution;
* **idle** — per-core static leakage over all cycles the core spent
  unoccupied, up to the makespan.

Total system energy = idle + busy static + dynamic.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache.config import BASE_CONFIG
from repro.characterization.store import CharacterizationStore
from repro.core.policies import SchedulingPolicy, make_policy
from repro.core.predictor import BestCorePredictor
from repro.core.profiling import ProfilingTable
from repro.core.results import JobRecord, SimulationResult
from repro.core.scheduler import (
    PREEMPTION_QUANTUM_CYCLES,
    Assignment,
    CoreState,
    Job,
    check_run_options,
)
from repro.core.system import SystemConfig, base_system, paper_system
from repro.core.tuning import TuningHeuristic
from repro.energy.scaling import scaled_charges
from repro.energy.tables import EnergyTable
from repro.obs.events import (
    ConfigInstalled,
    DeadlineMiss,
    EnergyAccrued,
    JobArrived,
    JobCompleted,
    JobPreempted,
    NonBestDispatch,
    PowerThrottled,
    ProfilingCompleted,
    ProfilingStarted,
    SizePredicted,
    StallDecision,
    TaskReady,
    TokenGrant,
    TuningStep,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, TraceRecorder
from repro.power.budget import (
    TokenPool,
    degradation_ladder,
    nominal_prices,
    normalize_power,
    pick_degraded,
)
from repro.sim.engine import EventEngine
from repro.sim.events import Event, EventKind
from repro.sim.queueing import ReadyQueue
from repro.sim.stream import CORE_POLICIES, core_branch
from repro.workloads.arrivals import JobArrival

__all__ = ["ENGINES", "LOADS", "SchedulerSimulation", "make_simulation",
           "select_engine"]

#: Engine selection modes accepted by the ``engine`` parameter.
ENGINES = ("auto", "fast", "reference")

#: Load shapes :func:`select_engine` rules on: a closed arrival batch
#: (:meth:`SchedulerSimulation.run`), task graphs
#: (:meth:`~SchedulerSimulation.run_dags`) or an open-system stream
#: (:meth:`~repro.sim.stream.StreamingSimulation.run`, which
#: :func:`~repro.campaign.run_spec` builds for a stream spec).
LOADS = ("batch", "dag", "stream")

#: Counters pre-registered when a metrics registry is attached, so every
#: traced run reports a uniform key set (campaign cells aggregate these
#: across replications without key drift).
_METRIC_COUNTERS = (
    "sim.jobs_arrived",
    "sim.jobs_completed",
    "sim.executions",
    "sim.profiling_executions",
    "sim.tuning_executions",
    "sim.stall_decisions",
    "sim.non_best_decisions",
    "sim.preemptions",
    "sim.reconfigurations",
    "sim.predictor_hits",
    "sim.predictor_misses",
    "sim.dispatch.best",
    "sim.dispatch.non_best",
    "sim.dispatch.tuning",
    "sim.dispatch.profiling",
    "sim.deadline.jobs",
    "sim.deadline.misses",
    "sim.dag.graphs",
    "sim.dag.tasks_released",
)

_METRIC_HISTOGRAMS = (
    "sim.queue_depth",
    "sim.waiting_cycles",
    "sim.turnaround_cycles",
    "sim.service_cycles",
    "sim.tuner.exploration_steps",
    "sim.deadline.slack_cycles",
)

#: Counters pre-registered only when the power axis is enabled, so
#: power-off metric snapshots stay byte-identical to pre-power runs.
_POWER_COUNTERS = (
    "sim.power.grants",
    "sim.power.refunds",
    "sim.power.throttled",
    "sim.power.degraded",
    "sim.power.overdrafts",
)


def select_engine(
    engine: str,
    policy: SchedulingPolicy,
    *,
    hooks: bool = False,
    telemetry: bool = False,
    load: str = "batch",
) -> str:
    """The engine that runs one simulation: ``"fast"`` or ``"reference"``.

    The one engine × feature rule (tabulated in ``docs/performance.md``,
    "Engine selection").  :class:`SchedulerSimulation`,
    :func:`~repro.campaign.run_spec` (for a stream spec, before it
    builds the core), :func:`~repro.campaign.run_campaign` and the CLI
    all ask it, so every front end accepts and rejects the same runs
    with the same message.
    ``hooks`` says whether a trace recorder, metrics registry, validation
    or fault injection is attached, ``telemetry`` whether sampled
    telemetry is, and ``load`` is one of :data:`LOADS`.  The simulation
    core runs exactly the policy classes in
    :data:`~repro.sim.stream.CORE_POLICIES`; every other class needs the
    reference loop.  A combination no engine runs raises
    :class:`ValueError` naming the conflict.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if load not in LOADS:
        raise ValueError(f"unknown load {load!r}; choose from {LOADS}")
    needs_reference = (
        hooks or type(policy) not in CORE_POLICIES
        or engine == "reference" or load == "dag"
    )
    if telemetry and needs_reference:
        raise ValueError(
            "telemetry is incompatible with the reference engine, which "
            "this run needs (hooks, a policy class the simulation core "
            "does not implement, task graphs or engine='reference'); the "
            "reference engine has the full-fidelity hooks (--trace/"
            "--metrics-out/--validate/--faults) instead.  Drop one side"
        )
    if engine != "fast" and load != "stream":
        return "reference" if needs_reference else "fast"
    # An explicit fast engine or a stream: the simulation core runs it.
    core_branch(policy)
    if hooks:
        raise ValueError(
            "the fast engine and streaming are incompatible with tracing, "
            "metrics, validation and fault injection: the simulation core "
            "compiles those hooks out.  Drop them or use "
            "engine='reference' for a batch; for visibility on the core, "
            "attach sampled telemetry (--telemetry-out, --progress) or "
            "read a stream's windowed metrics"
        )
    if engine == "reference":
        raise ValueError(
            "streaming runs on the simulation core only, so it is "
            "incompatible with engine='reference'; use engine='auto' and "
            "read the stream's windowed metrics instead of per-event hooks"
        )
    if load == "dag":
        raise ValueError(
            "engine='fast' does not implement precedence gating, which "
            "hooks the reference loop's completion path; use "
            "engine='auto' or engine='reference' for task graphs"
        )
    return "fast"


class _PendingExecution:
    """What a core is currently running (for completion handling)."""

    __slots__ = (
        "job",
        "assignment",
        "estimate",
        "fraction_at_start",
        "dynamic_charged_nj",
        "static_charged_nj",
        "overhead_charged_nj",
        "category",
    )

    def __init__(
        self,
        job,
        assignment,
        estimate,
        fraction_at_start=1.0,
        dynamic_charged_nj=0.0,
        static_charged_nj=0.0,
        overhead_charged_nj=0.0,
        category="best",
    ) -> None:
        self.job = job
        self.assignment = assignment
        self.estimate = estimate
        self.fraction_at_start = fraction_at_start
        self.dynamic_charged_nj = dynamic_charged_nj
        self.static_charged_nj = static_charged_nj
        self.overhead_charged_nj = overhead_charged_nj
        self.category = category


class SchedulerSimulation:
    """One simulation run of one policy on one system.

    Parameters
    ----------
    system:
        Machine description (the paper's quad-core, or any other).
    policy:
        Scheduling policy (one of the four evaluated systems).
    store:
        Characterisation of every benchmark that can arrive, on every
        configuration any core offers (this is "physical execution"
        ground truth).
    predictor:
        Best-core predictor; required when the policy uses one.
    energy_table:
        Per-configuration energy constants (defaults to a fresh table
        sharing the store's energy model assumptions).
    profiling_overhead_fraction:
        Extra cycles/energy charged on a profiling run for reading and
        storing the hardware counters.
    discipline:
        Ready-queue service order, one of
        :data:`~repro.core.scheduler.DISCIPLINES`: ``fifo`` (the paper),
        ``priority`` or ``edf``.  The latter two implement the paper's
        priority/deadline future work (§VIII).
    preemptive:
        With the ``priority``/``edf`` disciplines, allow a waiting job
        to preempt a strictly less urgent running job (naive preemption:
        the victim loses its cache state, its partial execution's energy
        is charged pro-rata, and it re-enters the ready queue with its
        remaining work).  Profiling runs are never preempted, and a job
        is only a victim once it has run, and still has left, at least
        :data:`~repro.core.scheduler.PREEMPTION_QUANTUM_CYCLES`.  This
        is the paper's "systems with preemption" future work.
    preload_profiles:
        §IV.B: "This profiling could be eliminated if the applications
        were known a priori with profiling-based statistics recorded at
        design time and this profiling information can be pre-loaded."
        When true, every benchmark in the store arrives pre-profiled:
        counters and the predictor's best-core prediction are installed
        in the profiling table, and the tuning heuristic is run to
        completion against design-time measurements, so no run-time
        profiling or tuning executions happen.
    recorder:
        Trace recorder receiving one typed event per run-time decision
        (see :mod:`repro.obs.events`).  Defaults to the no-op
        :data:`~repro.obs.recorder.NULL_RECORDER`; recorders only read
        simulation state, so a traced run is bit-identical to an
        untraced one.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when
        present the simulation reports counters (decisions, executions,
        predictor hit/miss), streaming histograms (queue depth, waiting
        and service cycles, tuner convergence) and end-of-run gauges
        (energy decomposition, makespan, per-core utilisation) into it.
    validate:
        Attach a :class:`~repro.validate.SimulationValidator`: an
        independent double-entry energy ledger mirrors every charge and
        refund, runtime invariants (queue conservation, core/pending
        consistency, refund and fraction bounds) are re-derived after
        every event, and end-of-run conservation checks assert the
        ledger, the :class:`~repro.core.results.SimulationResult`
        totals and the per-job/per-core attributions all agree.  Any
        violation raises
        :class:`~repro.validate.ValidationError` (and, with tracing
        attached, emits an ``invariant_violation`` event first).
        Validation only reads simulation state — a validated run is
        bit-identical to an unvalidated one.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; when present a
        :class:`~repro.faults.injector.FaultInjector` drives seeded
        core failures/slowdowns, predictor outages/mispredictions,
        profiling noise, table eviction/corruption, reconfiguration
        pinning and dispatch failures through the simulation's fault
        checkpoints (see ``docs/faults.md``).  An *empty* plan injects
        nothing and the run is bit-identical to ``faults=None``.
    engine:
        Which event loop executes :meth:`run`.  ``"reference"`` is the
        oracle loop in this module; ``"fast"`` is the struct-of-arrays
        simulation core (:class:`~repro.sim.stream.StreamingSimulation`,
        built when :meth:`run` runs) with the obs/validate/faults hooks
        compiled out — bit-identical results, an order of magnitude
        faster.  The default ``"auto"`` picks the fast engine whenever
        it can run the simulation.  :func:`select_engine` is the rule; a
        combination no engine runs raises :class:`ValueError` here, or
        in :meth:`run_dags` for task graphs (see
        ``docs/performance.md``).  Streams run on the core alone: build
        a :class:`~repro.sim.stream.StreamingSimulation`, or a stream
        spec through :func:`~repro.campaign.run_spec`.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` sink.  Unlike
        the four per-event hooks above it is *sampled* observability —
        fed every ``sample_every`` completions by the simulation core, so
        attaching it keeps ``engine="auto"`` on the fast path and the
        results bit-identical.  Requires the fast engine.  See
        ``docs/observability.md``.
    power:
        Optional :class:`~repro.power.PowerConfig`: a power-token
        budget (global and/or per-cluster caps priced in nJ from the
        energy tables) and/or a DVFS operating-point table.  Every
        dispatch must afford its dynamic+static charge from the token
        pool; unaffordable dispatches degrade down the (config × DVFS)
        ladder within their slack or wait, and tokens return on
        completion/preemption through the existing refund path.  A
        disabled configuration (``cap_nj=None``, no cluster caps, no
        DVFS) normalises to ``None`` and the run is bit-identical to
        ``power=None`` on every engine.  See ``docs/power.md``.
    """

    #: Engine selection modes accepted by the ``engine`` parameter.
    ENGINES = ENGINES

    def __init__(
        self,
        system: SystemConfig,
        policy: SchedulingPolicy,
        store: CharacterizationStore,
        *,
        predictor: Optional[BestCorePredictor] = None,
        energy_table: Optional[EnergyTable] = None,
        profiling_overhead_fraction: float = 0.003,
        discipline: str = "fifo",
        preemptive: bool = False,
        preload_profiles: bool = False,
        recorder: Optional[TraceRecorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        validate: bool = False,
        faults=None,
        engine: str = "auto",
        telemetry=None,
        power=None,
    ) -> None:
        check_run_options(
            policy, predictor, profiling_overhead_fraction, discipline,
            preemptive,
        )
        self.engine_mode = engine
        self.discipline = discipline
        self.preemptive = preemptive
        #: Jobs already preempted at the *current* timestamp (bounds
        #: churn when the policy then declines the freed core).  Only
        #: one timestamp's set is ever retained — keyed storage would
        #: leak one set per preemption time over a long run.
        self._preempted_now: set = set()
        self._preempted_now_cycle = -1
        self._preemption_count = 0
        self.system = system
        self.policy = policy
        self.store = store
        self.predictor = predictor
        self.energy_table = (
            energy_table if energy_table is not None else EnergyTable()
        )
        self.profiling_overhead_fraction = profiling_overhead_fraction
        self._preload_profiles_requested = preload_profiles
        #: ((queue.mutations, policy.order_version), view) pair backing
        #: :meth:`_queue_view`.
        self._queue_view_cache = None
        #: DAG bookkeeping, populated by :meth:`run_dags` (``None`` for
        #: plain arrival runs): job_id → successor jobs, job_id →
        #: unfinished-predecessor count, and job_id → (graph, task) ids
        #: for trace labelling.
        self._dag_successors: Optional[Dict[int, List[Job]]] = None
        self._dag_remaining: Optional[Dict[int, int]] = None
        self._dag_meta: Optional[Dict[int, tuple]] = None
        #: Per-(benchmark, config) memo over the store's estimate rows.
        self._estimate_cache: Dict[tuple, object] = {}
        #: Per-benchmark memo over the store's profiling counters.
        self._counters_cache: Dict[str, object] = {}

        self.engine = EventEngine()
        self.queue: ReadyQueue[Job] = ReadyQueue()
        self.cores: List[CoreState] = [
            CoreState(spec) for spec in system.cores
        ]
        self.table = ProfilingTable()
        self.heuristic = TuningHeuristic()

        self._pending: Dict[int, _PendingExecution] = {}
        self._records: List[JobRecord] = []
        self._dynamic_nj = 0.0
        self._busy_static_nj = 0.0
        self._reconfig_nj = 0.0
        self._reconfig_cycles = 0
        self._profiling_overhead_nj = 0.0
        self._stall_decisions = 0
        self._non_best_decisions = 0
        self._tuning_executions = 0
        self._profiling_executions = 0

        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.metrics = metrics
        #: Sampled telemetry sink (:mod:`repro.obs.telemetry`) for the
        #: fast and streaming engines.  Not a hook: telemetry fires once
        #: every ``sample_every`` completions only, so requesting it
        #: keeps ``engine="auto"`` on the fast path.
        self.telemetry = telemetry
        #: Job id the policy just flagged as a non-best dispatch; consumed
        #: by :meth:`_start` to categorise the execution it opens.
        self._non_best_next: Optional[int] = None
        if metrics is not None:
            # Pre-register the uniform key set (counters start at zero,
            # histograms empty) so snapshots of different runs align.
            for name in _METRIC_COUNTERS:
                metrics.counter(name)
            for name in _METRIC_HISTOGRAMS:
                metrics.histogram(name)

        if validate:
            # Imported lazily: the default path stays free of the
            # validation layer entirely.
            from repro.validate.invariants import SimulationValidator

            self._validator: Optional[SimulationValidator] = (
                SimulationValidator(self)
            )
            if metrics is not None:
                metrics.counter("sim.validate.checks")
                metrics.counter("sim.validate.violations")
        else:
            self._validator = None

        if faults is not None:
            # Imported lazily: the default path stays free of the fault
            # layer entirely.
            from repro.faults.injector import FaultInjector

            self._faults: Optional[FaultInjector] = FaultInjector(
                self, faults
            )
        else:
            self._faults = None

        #: Normalised power configuration (``None`` when nothing is
        #: enabled, so every power-off path is byte-for-byte the
        #: pre-power code) and its runtime token pool.
        self.power = None
        self._power_pool = None
        if power is not None:
            self.power = normalize_power(power)
            if self.power is not None:
                self._power_pool = TokenPool(self.power)
                #: (benchmark, core size, pinned config or None) →
                #: ``(ladder, prices)`` of a full execution; derived
                #: state, built on first use.
                self._power_ladders: Dict[tuple, tuple] = {}
                if metrics is not None:
                    for name in _POWER_COUNTERS:
                        metrics.counter(name)

        self._resolve_engine()

        if preload_profiles:
            self._preload_profiles()

    # -- engine selection ----------------------------------------------------

    def _resolve_engine(self, load: str = "batch") -> str:
        """The engine a ``load`` run of this simulation uses
        (:func:`select_engine` over its current hooks)."""
        return select_engine(
            self.engine_mode,
            self.policy,
            hooks=(
                self.recorder.enabled
                or self.metrics is not None
                or self._validator is not None
                or self._faults is not None
            ),
            telemetry=self.telemetry is not None,
            load=load,
        )

    def _preload_profiles(self) -> None:
        """Install design-time profiling/tuning knowledge (§IV.B)."""
        for benchmark in self.store.names():
            counters = self._counters(benchmark)
            self.table.record_profiling(benchmark, counters)
            if self.policy.uses_predictor:
                size = self.predictor.predict_size_kb(benchmark, counters)
                self.table.record_prediction(benchmark, size)
                # Design-time tuning: run the heuristic against offline
                # measurements for every core size the system offers.
                for size_kb in self.system.cache_sizes_kb:
                    session = self.heuristic.session(benchmark, size_kb)
                    while not session.done:
                        config = session.next_config()
                        estimate = self._estimate(benchmark, config)
                        self.table.record_execution(
                            benchmark,
                            config,
                            estimate.total_energy_nj,
                            estimate.total_cycles,
                        )
                        session.record(config, estimate.total_energy_nj)
                    self.table.mark_tuned(benchmark, size_kb)

    # -- store lookup memos --------------------------------------------------

    def _estimate(self, benchmark: str, config):
        """Memoised ``store.estimate``: one row walk per (bench, config).

        The store is immutable for the lifetime of a run, so the first
        lookup's result (or its ``KeyError``) is definitive; misses are
        not cached so the exception surfaces identically on every call.
        """
        key = (benchmark, config)
        estimate = self._estimate_cache.get(key)
        if estimate is None:
            estimate = self.store.estimate(benchmark, config)
            self._estimate_cache[key] = estimate
        return estimate

    def _counters(self, benchmark: str):
        """Memoised ``store.counters`` (same object, one walk)."""
        counters = self._counters_cache.get(benchmark)
        if counters is None:
            counters = self.store.counters(benchmark)
            self._counters_cache[benchmark] = counters
        return counters

    # -- read interface used by policies ------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self.engine.now

    @property
    def power_pool(self):
        """The run's :class:`~repro.power.TokenPool` (``None`` when the
        power axis is off).  On the fast engine the pool state is
        written back after :meth:`run`, so post-run reads see the same
        account either way."""
        return self._power_pool

    def predicted_size_kb(self, job: Job) -> int:
        """The job's predicted best cache size, mapped onto this system."""
        raw = self.table.predicted_size_kb(job.benchmark)
        if raw is None:
            raise RuntimeError(
                f"{job.benchmark} has no prediction; profiling must precede "
                "prediction-based scheduling"
            )
        return self.system.nearest_size_kb(raw)

    def tuning_config(self, job: Job, core: CoreState):
        """Configuration to run on ``core``: tuned best, or next trial."""
        session = self.heuristic.session(job.benchmark, core.size_kb)
        if session.done:
            return session.best_config
        return session.next_config()

    def idle_power_nj_per_cycle(self, core: CoreState) -> float:
        """Static leakage per cycle of a core (cache-size dependent)."""
        return self.energy_table.get(core.current_config).static_per_cycle_nj

    def count_stall_decision(self, job: Optional[Job] = None) -> None:
        """Policy hook: an explicit stall decision was taken."""
        self._stall_decisions += 1
        if self.metrics is not None:
            self.metrics.counter("sim.stall_decisions").inc()
        if self.recorder.enabled and job is not None:
            self.recorder.emit(
                StallDecision(
                    cycle=self.now,
                    job_id=job.job_id,
                    benchmark=job.benchmark,
                )
            )

    def count_non_best_decision(self, job: Optional[Job] = None) -> None:
        """Policy hook: an explicit run-on-non-best decision was taken."""
        self._non_best_decisions += 1
        if self.metrics is not None:
            self.metrics.counter("sim.non_best_decisions").inc()
        if job is not None:
            self._non_best_next = job.job_id

    # -- main loop -----------------------------------------------------------

    def run(self, arrivals: Sequence[JobArrival]) -> SimulationResult:
        """Simulate the full arrival stream to completion."""
        if self._resolve_engine() == "fast":
            # Imported lazily: the reference path stays importable even
            # if the fast engine's dependencies are unavailable.
            from repro.core.fastpath import run_fast

            return run_fast(self, arrivals)
        if not arrivals:
            raise ValueError("need at least one arrival")
        self._check_benchmarks(arrival.benchmark for arrival in arrivals)
        self._drain(
            Job(
                job_id=arrival.job_id,
                benchmark=arrival.benchmark,
                arrival_cycle=arrival.arrival_cycle,
                priority=arrival.priority,
                deadline_cycle=arrival.deadline_cycle,
            )
            for arrival in arrivals
        )
        return self._result()

    def _check_benchmarks(self, names) -> None:
        """Reject a workload naming a benchmark the store lacks."""
        for name in names:
            if name not in self.store:
                raise KeyError(
                    f"benchmark {name!r} missing from the "
                    "characterisation store"
                )

    def _drain(self, jobs) -> None:
        """Schedule ``jobs`` as arrivals and run the reference loop dry."""
        for job in jobs:
            self.engine.schedule_at(
                job.arrival_cycle, EventKind.ARRIVAL, payload=job
            )
        if self._faults is not None:
            self._faults.schedule_windows()
        self.engine.run(self._handle)
        if self.queue:
            raise RuntimeError(
                f"simulation drained with {len(self.queue)} jobs still queued"
            )

    def run_dags(self, graphs) -> SimulationResult:
        """Simulate a task-graph workload with precedence gating.

        Each :class:`~repro.workloads.dag.TaskGraph` is lowered to jobs
        with globally sequential ids (graph order, then task order —
        the numbering :func:`~repro.workloads.dag.dag_arrivals` mirrors,
        so an edge-free graph set runs bit-identically to its lowered
        plain-arrival equivalent).  A graph's *root* tasks enter the
        ready queue as ordinary arrivals at the graph's arrival cycle;
        every other task is released — pushed, counted and traced as
        :class:`~repro.obs.events.TaskReady` — only when its last
        predecessor completes.  Per-task deadlines are materialised as
        ``graph.arrival_cycle + deadline_offset``.

        DAG runs are reference-engine only: precedence gating hooks the
        completion path, which the struct-of-arrays fast engine
        compiles out.  ``engine='auto'`` routes here transparently;
        :func:`select_engine` rejects ``engine='fast'`` up front, naming
        the limitation.
        """
        from repro.workloads.dag import TaskGraph

        if not graphs:
            raise ValueError("need at least one task graph")
        self._resolve_engine("dag")
        seen_graphs: set = set()
        for graph in graphs:
            if not isinstance(graph, TaskGraph):
                raise TypeError(
                    f"expected TaskGraph, got {type(graph).__name__}"
                )
            if graph.graph_id in seen_graphs:
                raise ValueError(f"duplicate graph id {graph.graph_id}")
            seen_graphs.add(graph.graph_id)
            self._check_benchmarks(task.benchmark for task in graph.tasks)

        self._dag_successors = {}
        self._dag_remaining = {}
        self._dag_meta = {}
        assignments = []
        roots: List[Job] = []
        next_id = 0
        for graph in graphs:
            by_task: Dict[int, Job] = {}
            for task in graph.tasks:
                deadline = (
                    None
                    if task.deadline_offset is None
                    else graph.arrival_cycle + task.deadline_offset
                )
                job = Job(
                    job_id=next_id,
                    benchmark=task.benchmark,
                    arrival_cycle=graph.arrival_cycle,
                    priority=task.priority,
                    deadline_cycle=deadline,
                )
                next_id += 1
                by_task[task.task_id] = job
                self._dag_meta[job.job_id] = (graph.graph_id, task.task_id)
                self._dag_remaining[job.job_id] = len(task.predecessors)
                if not task.predecessors:
                    roots.append(job)
            for task in graph.tasks:
                for pred in task.predecessors:
                    self._dag_successors.setdefault(
                        by_task[pred].job_id, []
                    ).append(by_task[task.task_id])
            assignments.append((graph, by_task))

        # Rank-based policies precompute per-job urgency up front.
        self.policy.observe_graphs(assignments, self)
        if self.metrics is not None:
            self.metrics.counter("sim.dag.graphs").inc(len(graphs))
        self._drain(roots)
        unreleased = sorted(
            job_id
            for job_id, count in self._dag_remaining.items()
            if count > 0
        )
        if unreleased:
            raise RuntimeError(
                f"simulation drained with {len(unreleased)} tasks never "
                f"released (jobs {unreleased[:10]}); a predecessor never "
                "completed"
            )
        return self._result()

    def _handle(self, event: Event) -> None:
        if event.kind is EventKind.ARRIVAL:
            job = event.payload
            job.last_enqueue_cycle = self.now
            self.queue.push(job)
            if self._validator is not None:
                self._validator.on_arrival(job)
            if self.metrics is not None:
                self.metrics.counter("sim.jobs_arrived").inc()
            if self.recorder.enabled:
                self.recorder.emit(
                    JobArrived(
                        cycle=self.now,
                        job_id=job.job_id,
                        benchmark=job.benchmark,
                    )
                )
        elif event.kind is EventKind.COMPLETION:
            self._complete(event.payload)
        elif event.kind is EventKind.GENERIC and self._faults is not None:
            # Fault edges and retry wakeups; at equal timestamps the
            # engine orders COMPLETION < ARRIVAL < GENERIC, so a core
            # failing at cycle t never kills a job that finished at t.
            self._faults.handle(event.payload)
        else:  # pragma: no cover - no other generic events exist
            raise ValueError(f"unexpected event kind {event.kind}")
        self._dispatch()
        if self._validator is not None:
            self._validator.after_event()
        if self.metrics is not None:
            self.metrics.histogram("sim.queue_depth").observe(len(self.queue))

    # -- dispatch ------------------------------------------------------------

    def _queue_view(self):
        """Queued jobs in the active service order.

        An ordering policy (``policy.orders_queue``) supersedes the
        queue discipline: jobs sort by :meth:`SchedulingPolicy.queue_key`
        (stable, so ties stay FIFO).  The view is cached against the
        queue's mutation counter plus the policy's ``order_version``: a
        dispatch round that scans many jobs without assigning reuses one
        sorted copy, and a rank update on dispatch (which mutates no
        queue membership) still invalidates through the version bump.
        For the discipline sorts the keys — priority, deadline — are
        immutable, so only queue membership changes can invalidate.
        """
        policy = self.policy
        cached = self._queue_view_cache
        key = (
            self.queue.mutations,
            policy.order_version if policy.orders_queue else 0,
        )
        if cached is not None and cached[0] == key:
            return cached[1]
        jobs = list(self.queue)
        if policy.orders_queue:
            jobs.sort(key=lambda j: policy.queue_key(j, self))
        elif self.discipline == "priority":
            # Stable sort: FIFO among equal priorities.
            jobs.sort(key=lambda j: -j.priority)
        elif self.discipline == "edf":
            infinity = float("inf")
            jobs.sort(
                key=lambda j: (
                    infinity if j.deadline_cycle is None else j.deadline_cycle
                ),
            )
        self._queue_view_cache = (key, jobs)
        return jobs

    def _dispatch(self) -> None:
        """Assign queued jobs until no further assignment is possible."""
        faults = self._faults
        while True:
            assigned = False
            if any(core.is_idle(self.now) for core in self.cores):
                for job in self._queue_view():
                    if faults is not None and not faults.eligible(job):
                        continue  # dispatch-failure backoff pending
                    assignment = None
                    if faults is not None:
                        assignment = faults.surrender_assignment(job)
                    if assignment is None:
                        assignment = self._choose(job)
                    if assignment is None:
                        continue
                    if faults is not None:
                        assignment = faults.filter_dispatch(job, assignment)
                        if assignment is None:
                            continue  # dispatch failed; backoff scheduled
                    if self._power_pool is not None:
                        assignment = self._power_gate(job, assignment)
                        if assignment is None:
                            continue  # throttled: wait for tokens
                    self.queue.remove(job)
                    self._start(job, assignment)
                    assigned = True
                    break  # core states changed; rescan the queue
            if assigned:
                continue
            if self.preemptive and self._try_preempt():
                continue
            if faults is not None:
                forced = faults.break_deadlock()
                if forced is not None:
                    job, assignment = forced
                    self.queue.remove(job)
                    self._start(job, assignment)
                    continue
            return

    # -- preemption ----------------------------------------------------------

    def _urgency(self, job: Job) -> float:
        """Larger is more urgent, per the active discipline."""
        if self.discipline == "priority":
            return float(job.priority)
        # edf: earlier deadline = more urgent; deadline-free = least.
        if job.deadline_cycle is None:
            return float("-inf")
        return -float(job.deadline_cycle)

    def _try_preempt(self) -> bool:
        """Preempt one strictly-less-urgent running job, if any.

        A victim is preempted at most once per timestamp (bounds churn
        when the policy then declines the freed core); profiling runs
        are never preempted.
        """
        if self._preempted_now_cycle != self.now:
            self._preempted_now_cycle = self.now
            self._preempted_now.clear()
        already = self._preempted_now
        quantum = PREEMPTION_QUANTUM_CYCLES
        running = [
            core for core in self.cores
            if core.current_job is not None
            and core.current_job.job_id not in already
            and not self._pending[core.index].assignment.profiling
            and core.busy_until > self.now
            and self.now - core.run_started_at >= quantum
            and core.busy_until - self.now >= quantum
        ]
        if not running:
            return False
        for job in self._queue_view():
            victim_core = min(
                running, key=lambda c: self._urgency(c.current_job)
            )
            if self._urgency(job) <= self._urgency(victim_core.current_job):
                continue
            self._preempt_core(victim_core)
            return True
        return False

    def _preempt_core(self, core: CoreState) -> None:
        """Halt a core's execution; requeue the victim's remaining work."""
        self._requeue_from_core(core, reason="preemption")

    def _requeue_from_core(self, core: CoreState, *, reason: str) -> None:
        """Shared requeue path for preemptions and core failures.

        Both interruption kinds follow the exact same accounting —
        pro-rata refund of the charges made at start, remaining-fraction
        bookkeeping, ``waiting_cycles`` resumption via
        ``last_enqueue_cycle`` — so the PR-4 refund semantics hold
        identically under fault injection.  Only the scheduler-facing
        side effects differ: a ``preemption`` counts toward the
        preemption statistics and the per-timestamp churn guard, a
        ``core_failure`` toward the ``sim.faults.requeued`` counter.
        """
        pending = self._pending.pop(core.index)
        victim, fraction_run = core.preempt(self.now)
        if reason == "preemption":
            self._preempted_now.add(victim.job_id)
            self._preemption_count += 1
        # Refund the unexecuted share of the charges made at start.
        refund = 1.0 - fraction_run
        refund_dynamic = pending.dynamic_charged_nj * refund
        refund_static = pending.static_charged_nj * refund
        refund_overhead = pending.overhead_charged_nj * refund
        self._dynamic_nj -= refund_dynamic
        self._busy_static_nj -= refund_static
        self._profiling_overhead_nj -= refund_overhead
        victim.charged_energy_nj -= refund_dynamic + refund_static
        victim.remaining_fraction = (
            pending.fraction_at_start * (1.0 - fraction_run)
        )
        victim.preemptions += 1
        victim.last_enqueue_cycle = self.now
        token_refund = None
        if self._power_pool is not None:
            # Tokens return through the same refund floats the energy
            # path computed, so the ledger's token account balances
            # bit-for-bit against the execution charges.
            token_refund = refund_dynamic + refund_static
            self._power_pool.refund(victim.job_id, token_refund)
            if self.metrics is not None:
                self.metrics.counter("sim.power.refunds").inc()
        self.queue.push(victim)
        if self._validator is not None:
            self._validator.on_preempt(
                victim, core,
                fraction_run=fraction_run,
                refund_dynamic_nj=refund_dynamic,
                refund_static_nj=refund_static,
                refund_overhead_nj=refund_overhead,
                token_nj=token_refund,
            )
        if self.metrics is not None:
            if reason == "preemption":
                self.metrics.counter("sim.preemptions").inc()
            else:
                self.metrics.counter("sim.faults.requeued").inc()
        if self.recorder.enabled:
            self.recorder.emit(
                JobPreempted(
                    cycle=self.now,
                    job_id=victim.job_id,
                    core_index=core.index,
                    benchmark=victim.benchmark,
                    category=pending.category,
                    fraction_run=fraction_run,
                    refunded_dynamic_nj=refund_dynamic,
                    refunded_static_nj=refund_static,
                    refunded_overhead_nj=refund_overhead,
                    reason=reason,
                )
            )

    def _choose(self, job: Job) -> Optional[Assignment]:
        if self.policy.requires_profiling and not self.table.has_profile(
            job.benchmark
        ):
            # Unprofiled job: it must first execute on a profiling core
            # in the base configuration (primary first, §III).
            for spec in self.system.profiling_cores:
                core = self.cores[spec.index]
                if core.is_idle(self.now) and spec.supports(BASE_CONFIG):
                    return Assignment(
                        core_index=spec.index,
                        config=BASE_CONFIG,
                        profiling=True,
                    )
            return None
        return self.policy.choose(job, self)

    def _power_gate(
        self, job: Job, assignment: Assignment
    ) -> Optional[Assignment]:
        """Price the dispatch in power tokens; degrade or defer it.

        Returns the (possibly degraded) assignment to start, or ``None``
        when the job must wait for tokens.  The preferred option is the
        policy's choice at the DVFS table's nominal point; when it is
        unaffordable, strictly cheaper (config × DVFS) options *on the
        same core* are tried most
        expensive first — the minimal degradation — subject to the
        slack-percentage deadline test.  Profiling and tuning runs pin
        their configuration, so only the DVFS axis may degrade them.
        When nothing is affordable but no tokens are held anywhere, the
        preferred option is granted as an *overdraft* — the progress
        guarantee that a drained system always dispatches.
        """
        power = self.power
        pool = self._power_pool
        core = self.cores[assignment.core_index]
        table = power.dvfs
        point = None if table is None else table.default
        preferred = Assignment(
            core_index=assignment.core_index,
            config=assignment.config,
            profiling=assignment.profiling,
            tuning=assignment.tuning,
            dvfs=None if point is None else point.name,
        )
        size_kb = core.spec.cache_size_kb
        # Profiling and tuning runs pin their configuration: only the
        # DVFS axis may degrade them.
        pin = (
            assignment.config
            if assignment.profiling or assignment.tuning else None
        )
        fraction = job.remaining_fraction
        ladder = price = None
        if fraction == 1.0:
            # A full execution's ladder depends only on the benchmark,
            # the core size and the pin: build it once per run.
            key = (job.benchmark, size_kb, pin)
            entry = self._power_ladders.get(key)
            if entry is None:
                entry = self._power_ladder(job.benchmark, core, pin, 1.0)
                self._power_ladders[key] = entry
            ladder, prices = entry
            price = prices.get(assignment.config)
        if price is None:
            # A preempted remainder (or a config off the ladder) is
            # priced live.
            estimate = self._estimate(job.benchmark, assignment.config)
            _, dynamic, static = scaled_charges(
                estimate.total_cycles,
                estimate.energy.dynamic_nj,
                estimate.energy.static_nj,
                fraction,
                point,
            )
            price = dynamic + static
        if pool.affordable(price, size_kb):
            return preferred

        if ladder is None:
            ladder, _ = self._power_ladder(job.benchmark, core, pin, fraction)
        chosen = pick_degraded(
            pool,
            size_kb,
            price,
            ladder,
            now=self.now,
            arrival_cycle=job.arrival_cycle,
            deadline_cycle=job.deadline_cycle,
            slack_pct=power.slack_pct,
        )
        if chosen is not None:
            config, option = chosen
            pool.degraded += 1
            if self.metrics is not None:
                self.metrics.counter("sim.power.degraded").inc()
            if self.recorder.enabled:
                self.recorder.emit(
                    PowerThrottled(
                        cycle=self.now,
                        job_id=job.job_id,
                        benchmark=job.benchmark,
                        reason="degraded",
                        price_nj=price,
                    )
                )
            return Assignment(
                core_index=assignment.core_index,
                config=config,
                profiling=assignment.profiling,
                tuning=assignment.tuning,
                dvfs=None if option is None else option.name,
            )
        if pool.idle():
            # Progress guarantee: with no tokens held anywhere, the
            # preferred dispatch always proceeds (counted as an
            # overdraft when it exceeds the configured caps).
            pool.overdrafts += 1
            if self.metrics is not None:
                self.metrics.counter("sim.power.overdrafts").inc()
            if self.recorder.enabled:
                self.recorder.emit(
                    PowerThrottled(
                        cycle=self.now,
                        job_id=job.job_id,
                        benchmark=job.benchmark,
                        reason="overdraft",
                        price_nj=price,
                    )
                )
            return preferred
        pool.throttled += 1
        if self.metrics is not None:
            self.metrics.counter("sim.power.throttled").inc()
        if self.recorder.enabled:
            self.recorder.emit(
                PowerThrottled(
                    cycle=self.now,
                    job_id=job.job_id,
                    benchmark=job.benchmark,
                    reason="wait",
                    price_nj=price,
                )
            )
        return None

    def _power_ladder(self, benchmark: str, core: CoreState, pin, fraction):
        """``(ladder, prices)`` for ``fraction`` of ``benchmark`` on
        ``core``: the sorted degradation ladder over the core's configs
        (or the pinned one) × the DVFS table, and each config's price
        at the nominal point, the gate's preferred option."""
        table = self.power.dvfs
        points = (None,) if table is None else tuple(table)
        rows = []
        for config in (core.spec.configs if pin is None else (pin,)):
            try:
                estimate = self._estimate(benchmark, config)
            except KeyError:
                rows.append(None)
                continue
            rows.append((
                config,
                estimate.total_cycles,
                estimate.energy.dynamic_nj,
                estimate.energy.static_nj,
            ))
        ladder = degradation_ladder(rows, points, fraction)
        return ladder, nominal_prices(ladder)

    def _start(self, job: Job, assignment: Assignment) -> None:
        core = self.cores[assignment.core_index]
        if not core.spec.supports(assignment.config):
            raise ValueError(
                f"{core.spec.name} cannot install {assignment.config.name}"
            )
        previous_config = core.current_config
        cost = core.tuner.reconfigure(assignment.config)
        if assignment.config != previous_config:
            # Close the outgoing configuration's residency interval so
            # idle leakage integrates at the static power that was
            # actually installed during each idle stretch.
            core.note_reconfigured(self.now, previous_config)
        self._reconfig_nj += cost.energy_nj
        self._reconfig_cycles += cost.cycles

        estimate = self._estimate(job.benchmark, assignment.config)
        # A preempted job resumes with only its remaining work; cycles
        # and energy are charged pro-rata (the lost cache state is
        # approximated by the cold-cache characterisation itself).
        fraction = job.remaining_fraction
        if not 0.0 < fraction <= 1.0:
            raise RuntimeError(
                f"job {job.job_id} has invalid remaining fraction {fraction}"
            )
        overhead_cycles = 0
        overhead_nj = 0.0
        if assignment.profiling:
            overhead_cycles = int(
                round(estimate.total_cycles * self.profiling_overhead_fraction)
            )
            overhead_nj = (
                estimate.total_energy_nj * self.profiling_overhead_fraction
            )
            self._profiling_overhead_nj += overhead_nj
            self._profiling_executions += 1
        if assignment.tuning and fraction == 1.0:
            self._tuning_executions += 1

        token_grant = None
        if self._power_pool is not None:
            point = None
            if self.power.dvfs is not None and assignment.dvfs is not None:
                point = self.power.dvfs.get(assignment.dvfs)
            work_cycles, dynamic_charge, static_charge = scaled_charges(
                estimate.total_cycles,
                estimate.energy.dynamic_nj,
                estimate.energy.static_nj,
                fraction,
                point,
            )
            token_grant = dynamic_charge + static_charge
            self._power_pool.grant(
                job.job_id, token_grant, core.spec.cache_size_kb
            )
            core.dvfs = assignment.dvfs
            if self.metrics is not None:
                self.metrics.counter("sim.power.grants").inc()
        else:
            dynamic_charge = estimate.energy.dynamic_nj * fraction
            static_charge = estimate.energy.static_nj * fraction
            work_cycles = max(1, int(round(estimate.total_cycles * fraction)))
        self._dynamic_nj += dynamic_charge
        self._busy_static_nj += static_charge
        job.charged_energy_nj += dynamic_charge + static_charge

        service = work_cycles + cost.cycles + overhead_cycles
        if self._faults is not None:
            # Transient slowdown dilates occupancy only; energy charges
            # stay estimate-based, so the ledger's busy/idle split (both
            # derived from the same dilated busy cycles) stays balanced.
            service = self._faults.scale_service(core.index, service, job)
        if job.start_cycle is None:
            job.start_cycle = self.now
        enqueued_at = (
            job.last_enqueue_cycle
            if job.last_enqueue_cycle is not None
            else job.arrival_cycle
        )
        job.waiting_cycles += self.now - enqueued_at
        job.last_enqueue_cycle = None
        core.begin(job, self.now, service)
        # Rank-updating policies (HEFT) react to the dispatch; a no-op
        # for the paper's four systems.
        self.policy.on_dispatch(job, self)
        if self._validator is not None:
            self._validator.on_dispatch(
                job, core,
                dynamic_nj=dynamic_charge,
                static_nj=static_charge,
                overhead_nj=overhead_nj,
                reconfig_nj=cost.energy_nj,
                token_nj=token_grant,
            )

        # Dispatch category, by precedence: a profiling run trumps
        # everything, a tuning trial trumps the policy's non-best flag.
        if assignment.profiling:
            category = "profiling"
        elif assignment.tuning:
            category = "tuning"
        elif self._non_best_next == job.job_id:
            category = "non_best"
        else:
            category = "best"
        if self._non_best_next == job.job_id:
            self._non_best_next = None

        self._pending[core.index] = _PendingExecution(
            job,
            assignment,
            estimate,
            fraction_at_start=fraction,
            dynamic_charged_nj=dynamic_charge,
            static_charged_nj=static_charge,
            overhead_charged_nj=overhead_nj,
            category=category,
        )
        self.engine.schedule_at(
            self.now + service,
            EventKind.COMPLETION,
            payload=(core.index, core.epoch),
        )

        if self.metrics is not None:
            metrics = self.metrics
            metrics.counter("sim.executions").inc()
            metrics.counter(f"sim.dispatch.{category}").inc()
            metrics.histogram("sim.service_cycles").observe(service)
            if assignment.profiling:
                metrics.counter("sim.profiling_executions").inc()
            elif assignment.tuning:
                metrics.counter("sim.tuning_executions").inc()
            if cost.cycles or cost.energy_nj:
                metrics.counter("sim.reconfigurations").inc()

        rec = self.recorder
        if rec.enabled:
            if cost.cycles or cost.energy_nj:
                rec.emit(
                    ConfigInstalled(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core.index,
                        config=assignment.config.name,
                        cycles=cost.cycles,
                        energy_nj=cost.energy_nj,
                    )
                )
            if category == "profiling":
                rec.emit(
                    ProfilingStarted(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core.index,
                        benchmark=job.benchmark,
                    )
                )
            elif category == "tuning":
                session = self.heuristic.session(
                    job.benchmark, assignment.config.size_kb
                )
                rec.emit(
                    TuningStep(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core.index,
                        benchmark=job.benchmark,
                        config=assignment.config.name,
                        step=session.exploration_count + 1,
                    )
                )
            elif category == "non_best":
                rec.emit(
                    NonBestDispatch(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core.index,
                        benchmark=job.benchmark,
                        config=assignment.config.name,
                        predicted_size_kb=self.predicted_size_kb(job),
                    )
                )
            rec.emit(
                EnergyAccrued(
                    cycle=self.now,
                    job_id=job.job_id,
                    core_index=core.index,
                    benchmark=job.benchmark,
                    category=category,
                    dynamic_nj=dynamic_charge,
                    static_nj=static_charge,
                    overhead_nj=overhead_nj,
                    service_cycles=service,
                )
            )
            if token_grant is not None:
                rec.emit(
                    TokenGrant(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core.index,
                        benchmark=job.benchmark,
                        config=assignment.config.name,
                        dvfs=assignment.dvfs or "",
                        tokens_nj=token_grant,
                    )
                )

    # -- completion ----------------------------------------------------------

    def _complete(self, payload) -> None:
        core_index, epoch = payload
        core = self.cores[core_index]
        if epoch != core.epoch:
            # Stale completion: the execution it announced was preempted.
            return
        pending = self._pending.pop(core_index)
        job = core.finish(self.now)
        if job is not pending.job:  # pragma: no cover - internal invariant
            raise RuntimeError("completion does not match pending execution")
        job.completion_cycle = self.now
        job.remaining_fraction = 0.0
        if self._power_pool is not None:
            # Settle the dispatch's token grant: the energy was spent.
            self._power_pool.consume(job.job_id)

        assignment = pending.assignment
        estimate = pending.estimate
        benchmark = job.benchmark

        # Knowledge updates only for complete, uninterrupted executions —
        # a resumed partial run is not a valid measurement of the
        # configuration.
        full_run = pending.fraction_at_start == 1.0
        if full_run:
            # The execution's measured energy/cycles enter the profiling
            # table (the paper's "performance and energy consumption of
            # any core configurations that have been explored").
            self.table.record_execution(
                benchmark,
                assignment.config,
                estimate.total_energy_nj,
                estimate.total_cycles,
            )

        if assignment.profiling:
            counters = self._counters(benchmark)
            if self._faults is not None:
                counters = self._faults.perturb_counters(benchmark, counters)
            self.table.record_profiling(benchmark, counters)
            if self.recorder.enabled:
                self.recorder.emit(
                    ProfilingCompleted(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core_index,
                        benchmark=benchmark,
                    )
                )
            if self.policy.uses_predictor:
                if (
                    self._faults is not None
                    and not self._faults.predictor_available()
                ):
                    # Predictor outage: fall back to the base-config
                    # size heuristic (no hit/miss accounting — no
                    # prediction was made).
                    size = self._faults.fallback_prediction(job, core_index)
                    self.table.record_prediction(benchmark, size)
                else:
                    size = self.predictor.predict_size_kb(
                        benchmark, counters
                    )
                    if self._faults is not None:
                        size = self._faults.perturb_prediction(
                            job, core_index, size
                        )
                    self.table.record_prediction(benchmark, size)
                    if self.metrics is not None or self.recorder.enabled:
                        best = self.store.best_size_kb(benchmark)
                        if self.metrics is not None:
                            hit = "hits" if size == best else "misses"
                            self.metrics.counter(
                                f"sim.predictor_{hit}"
                            ).inc()
                        if self.recorder.enabled:
                            self.recorder.emit(
                                SizePredicted(
                                    cycle=self.now,
                                    job_id=job.job_id,
                                    core_index=core_index,
                                    benchmark=benchmark,
                                    size_kb=size,
                                    best_size_kb=best,
                                )
                            )

        if full_run and assignment.tuning and self.policy.uses_predictor:
            session = self.heuristic.session(
                benchmark, assignment.config.size_kb
            )
            if not session.done and session.next_config() == assignment.config:
                session.record(assignment.config, estimate.total_energy_nj)
                if session.done:
                    self.table.mark_tuned(benchmark, assignment.config.size_kb)

        # The job's attributed energy is what was actually charged over
        # all its slices (pro-rata, refunds netted) — for a never-
        # preempted job this equals the estimate's total exactly.
        charged_nj = job.charged_energy_nj
        waiting = job.waiting_cycles
        self._records.append(
            JobRecord(
                job_id=job.job_id,
                benchmark=benchmark,
                arrival_cycle=job.arrival_cycle,
                start_cycle=job.start_cycle,
                completion_cycle=job.completion_cycle,
                core_index=core_index,
                config_name=assignment.config.name,
                profiled=assignment.profiling,
                tuning=assignment.tuning,
                energy_nj=charged_nj,
                priority=job.priority,
                deadline_cycle=job.deadline_cycle,
                preemptions=job.preemptions,
                waiting_cycles=waiting,
            )
        )

        if self._faults is not None:
            # Table eviction/corruption draws happen once per
            # completion, after all knowledge updates for this job.
            self._faults.after_completion(benchmark)

        if self._validator is not None:
            self._validator.on_complete(job, core_index)
        if self.metrics is not None:
            metrics = self.metrics
            metrics.counter("sim.jobs_completed").inc()
            metrics.histogram("sim.waiting_cycles").observe(waiting)
            metrics.histogram("sim.turnaround_cycles").observe(
                job.completion_cycle - job.arrival_cycle
            )
        if self.recorder.enabled:
            self.recorder.emit(
                JobCompleted(
                    cycle=self.now,
                    job_id=job.job_id,
                    core_index=core_index,
                    benchmark=benchmark,
                    config=assignment.config.name,
                    category=pending.category,
                    energy_nj=charged_nj,
                    waiting_cycles=waiting,
                )
            )

        # Deadline accounting (any run whose jobs carry deadlines, DAG
        # or plain): slack is signed, a miss is strictly negative slack.
        deadline = job.deadline_cycle
        if deadline is not None:
            slack = deadline - self.now
            if self.metrics is not None:
                self.metrics.counter("sim.deadline.jobs").inc()
                self.metrics.histogram("sim.deadline.slack_cycles").observe(
                    slack
                )
                if slack < 0:
                    self.metrics.counter("sim.deadline.misses").inc()
            if slack < 0 and self.recorder.enabled:
                self.recorder.emit(
                    DeadlineMiss(
                        cycle=self.now,
                        job_id=job.job_id,
                        core_index=core_index,
                        benchmark=benchmark,
                        deadline_cycle=deadline,
                        miss_cycles=self.now - deadline,
                    )
                )

        if self._dag_successors is not None:
            self._release_successors(job)

    def _release_successors(self, job: Job) -> None:
        """Push DAG successors whose last predecessor just completed.

        A release is the DAG analogue of an arrival: the task enters
        the ready queue, the queue-conservation validator and the
        ``sim.jobs_arrived`` counter see it exactly like an arrival,
        and the trace carries a :class:`TaskReady` instead of a
        :class:`JobArrived`.  Successors release in task-declaration
        order, keeping the stream deterministic.
        """
        for successor in self._dag_successors.get(job.job_id, ()):
            remaining = self._dag_remaining[successor.job_id] - 1
            self._dag_remaining[successor.job_id] = remaining
            if remaining:
                continue
            successor.last_enqueue_cycle = self.now
            self.queue.push(successor)
            if self._validator is not None:
                self._validator.on_arrival(successor)
            if self.metrics is not None:
                self.metrics.counter("sim.jobs_arrived").inc()
                self.metrics.counter("sim.dag.tasks_released").inc()
            if self.recorder.enabled:
                graph_id, task_id = self._dag_meta[successor.job_id]
                self.recorder.emit(
                    TaskReady(
                        cycle=self.now,
                        job_id=successor.job_id,
                        benchmark=successor.benchmark,
                        graph_id=graph_id,
                        task_id=task_id,
                    )
                )

    # -- result assembly ------------------------------------------------------

    def _result(self) -> SimulationResult:
        makespan = max((r.completion_cycle for r in self._records), default=0)
        # Idle leakage is integrated piecewise over each core's
        # config-residency intervals: a core that spent part of the run
        # under a different configuration leaks at *that* config's
        # static power for the idle cycles of that interval, not at the
        # final config's.  Idle cycles are grouped by power value per
        # core before multiplying, mirroring EnergyLedger.close_idle so
        # that validated and simulated totals agree bit-for-bit.
        idle_nj = 0.0
        for core in self.cores:
            per_power: Dict[float, int] = {}
            for start, end, config, busy in core.residency_intervals(makespan):
                idle_cycles = (end - start) - busy
                if idle_cycles < 0:  # pragma: no cover - internal invariant
                    raise RuntimeError(
                        f"{core.spec.name} busy beyond the makespan"
                    )
                power = self.energy_table.get(config).static_per_cycle_nj
                per_power[power] = per_power.get(power, 0) + idle_cycles
            for power, cycles in per_power.items():
                idle_nj += cycles * power
        predictions = {
            name: self.table.predicted_size_kb(name)
            for name in self.table.benchmarks()
            if self.table.predicted_size_kb(name) is not None
        }
        if self.metrics is not None:
            metrics = self.metrics
            metrics.gauge("sim.makespan_cycles").set(makespan)
            metrics.gauge("sim.energy.idle_nj").set(idle_nj)
            metrics.gauge("sim.energy.dynamic_nj").set(
                self._dynamic_nj
                + self._reconfig_nj
                + self._profiling_overhead_nj
            )
            metrics.gauge("sim.energy.busy_static_nj").set(
                self._busy_static_nj
            )
            metrics.gauge("sim.energy.reconfig_nj").set(self._reconfig_nj)
            metrics.gauge("sim.energy.profiling_overhead_nj").set(
                self._profiling_overhead_nj
            )
            metrics.gauge("sim.energy.total_nj").set(
                idle_nj
                + self._busy_static_nj
                + self._dynamic_nj
                + self._reconfig_nj
                + self._profiling_overhead_nj
            )
            for core in self.cores:
                prefix = f"sim.core.{core.index}"
                metrics.gauge(f"{prefix}.busy_cycles").set(core.busy_cycles)
                metrics.gauge(f"{prefix}.utilization").set(
                    core.busy_cycles / makespan if makespan else 0.0
                )
            if self._power_pool is not None:
                pool = self._power_pool
                metrics.gauge("sim.power.granted_nj").set(pool.granted_nj)
                metrics.gauge("sim.power.refunded_nj").set(pool.refunded_nj)
                metrics.gauge("sim.power.consumed_nj").set(pool.consumed_nj)
                metrics.gauge("sim.power.outstanding_nj").set(
                    pool.outstanding_nj
                )
            hits = metrics.counter("sim.predictor_hits").value
            misses = metrics.counter("sim.predictor_misses").value
            if hits + misses:
                metrics.gauge("sim.predictor.hit_rate").set(
                    hits / (hits + misses)
                )
            for steps in self.table.exploration_counts().values():
                metrics.histogram("sim.tuner.exploration_steps").observe(
                    steps
                )
        result = SimulationResult(
            policy=self.policy.name,
            jobs_completed=len(self._records),
            makespan_cycles=makespan,
            idle_energy_nj=idle_nj,
            dynamic_energy_nj=(
                self._dynamic_nj
                + self._reconfig_nj
                + self._profiling_overhead_nj
            ),
            busy_static_energy_nj=self._busy_static_nj,
            reconfig_energy_nj=self._reconfig_nj,
            profiling_overhead_nj=self._profiling_overhead_nj,
            reconfig_cycles=self._reconfig_cycles,
            stall_decisions=self._stall_decisions,
            non_best_decisions=self._non_best_decisions,
            tuning_executions=self._tuning_executions,
            profiling_executions=self._profiling_executions,
            preemption_count=self._preemption_count,
            core_busy_cycles={
                core.index: core.busy_cycles for core in self.cores
            },
            exploration_counts=dict(self.table.exploration_counts()),
            predictions_kb=predictions,
            jobs=list(self._records),
        )
        if self._validator is not None:
            self._validator.finish(result, makespan)
        return result


def make_simulation(policy_name, store, predictor=None, energy_table=None,
                    system=None, **kwargs) -> "SchedulerSimulation":
    """A simulation for ``policy_name`` with the conventional system.

    ``base`` runs on the homogeneous baseline system, everything else on
    the paper's heterogeneous four-core system; the predictor is only
    attached when the policy consults one.  Extra ``kwargs`` (recorder,
    metrics, discipline, validate, faults, engine, power, ...) pass
    straight through to :class:`SchedulerSimulation`.
    """
    policy = make_policy(policy_name)
    if system is None:
        system = base_system() if policy_name == "base" else paper_system()
    return SchedulerSimulation(
        system,
        policy,
        store,
        predictor=predictor if policy.uses_predictor else None,
        energy_table=energy_table,
        **kwargs,
    )
