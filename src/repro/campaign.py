"""Process-parallel replication campaigns.

The paper's evaluation claims are statements about *distributions* —
energy and latency of each scheduling policy over many arrival streams —
so every ablation replays a (policy × seed × load) grid of independent
simulations.  This module runs that grid as a campaign: each replication
is one deterministic :class:`~repro.core.simulation.SchedulerSimulation`
run, the grid fans out over a process pool sharing the read-only
characterisation store, and the results aggregate to per-cell
mean / std / 95 % confidence intervals.

Determinism contract: a replication's arrival stream derives only from
its :class:`ReplicationSpec` (the replication seed feeds
:func:`~repro.workloads.arrivals.uniform_arrivals` directly), and
``pool.map``/``pool.imap`` preserve task order, so campaign results are
identical for
any worker count — including the in-process serial path — and for any
scheduling of tasks onto workers.  The ``fork`` start method is
preferred when available (workers inherit the store without pickling);
the initializer ships the shared state once per worker either way, so
per-task payloads stay tiny.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro._util import check_cycles, check_finite
from repro.characterization.store import CharacterizationStore
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.predictor import BestCorePredictor, OraclePredictor
from repro.core.fastpath import build_fast
from repro.core.simulation import make_simulation, select_engine
from repro.core.system import base_system, paper_system
from repro.energy.tables import EnergyTable
from repro.obs.metrics import MetricsRegistry
from repro.power.budget import PowerConfig, normalize_power
from repro.power.dvfs import DvfsTable
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads.arrivals import make_process, uniform_arrivals
from repro.workloads.dag import check_graph_shape, generate_task_graphs
from repro.workloads.eembc import eembc_suite

logger = logging.getLogger(__name__)

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "DagLoad",
    "MetricAggregate",
    "ReplicationResult",
    "ReplicationSpec",
    "StreamLoad",
    "campaign_specs",
    "power_grid",
    "run_campaign",
    "run_spec",
]

#: Metrics aggregated per campaign cell, in report order.
CAMPAIGN_METRICS = (
    "total_energy_nj",
    "idle_energy_nj",
    "dynamic_energy_nj",
    "makespan_cycles",
    "mean_waiting_cycles",
    "jobs_completed",
    "non_best_decisions",
)


@dataclass(frozen=True)
class StreamLoad:
    """Open-system load axis: replications stream instead of replaying.

    When passed to :func:`run_campaign`, every replication consumes a
    generator-backed arrival process through the streaming engine
    (:mod:`repro.sim.stream`) instead of materialising a batch: the
    grid's ``(count, gap)`` loads become ``(max_jobs,
    mean_interarrival_cycles)`` of the stream, and the replication seed
    seeds the process.  Hashable/picklable pure data, like
    :class:`~repro.power.budget.PowerConfig`; construction runs
    :class:`~repro.sim.stream.StreamConfig`'s checks on the fields and
    the arrival process's checks on ``process_args``.  ``repro stream``
    is one spec with this load.
    """

    #: Arrival process kind (see
    #: :func:`~repro.workloads.arrivals.make_process`).
    process: str = "poisson"
    #: Metrics-only warm-up: jobs arriving before this cycle are
    #: excluded from the waiting/turnaround quantiles.
    warmup_cycles: int = 0
    #: Ready-queue bound (``None`` = unbounded, no admission control).
    queue_capacity: Optional[int] = None
    #: Admission policy under a full queue: ``drop`` / ``shed`` /
    #: ``block``.
    admission: str = "block"
    #: Extra keyword arguments for the process constructor, as a sorted
    #: tuple of ``(name, value)`` pairs so the spec stays hashable.
    process_args: Tuple[Tuple[str, float], ...] = ()
    #: Stop generating at this cycle (``None`` = bounded by the job
    #: count alone; a spec with no count needs it).
    duration_cycles: Optional[int] = None

    def __post_init__(self) -> None:
        self.config(max_jobs=1)
        make_process(self.process, eembc_suite(), **dict(self.process_args))

    def config(self, max_jobs: Optional[int]):
        """The :class:`~repro.sim.stream.StreamConfig` of one replication."""
        return StreamConfig(
            max_jobs=max_jobs,
            duration_cycles=self.duration_cycles,
            warmup_cycles=self.warmup_cycles,
            queue_capacity=self.queue_capacity,
            admission=self.admission,
        )


@dataclass(frozen=True)
class DagLoad:
    """Task-graph load axis: replications run generated DAG workloads.

    When passed to :func:`run_campaign`, every replication generates a
    seed-keyed task-graph set
    (:func:`~repro.workloads.dag.generate_task_graphs`) and runs it
    through :meth:`~repro.core.simulation.SchedulerSimulation.run_dags`
    with precedence gating: the grid's ``(count, gap)`` loads become
    ``(graph count, mean graph interarrival)``, and the replication
    seed keys the generator.  Deadline/slack outcomes ride back through
    :attr:`CampaignCell.observed` under ``dag.*`` keys.  DAG campaigns
    are reference-engine territory, so the metrics and validation
    hooks compose with this axis; the open-system ``stream`` axis
    does not.  Hashable/picklable pure data, like :class:`StreamLoad`;
    construction runs the generator's shape checks
    (:func:`~repro.workloads.dag.check_graph_shape`).
    """

    #: Tasks per graph, drawn uniformly from this range.
    tasks_min: int = 3
    tasks_max: int = 8
    #: Probability of a forward precedence edge between any task pair.
    edge_density: float = 0.35
    #: Deadline looseness multiplier (smaller = tighter = more misses).
    deadline_slack: float = 2.5
    #: DAG-level criticality is drawn from ``1..criticality_levels``.
    criticality_levels: int = 3

    def __post_init__(self) -> None:
        check_graph_shape(**dataclasses.asdict(self))


def power_grid(
    caps: Sequence[Optional[float]] = (None,),
    *,
    slacks: Sequence[float] = (0.0,),
    dvfs: Optional[DvfsTable] = None,
    cluster_caps: Tuple[Tuple[int, float], ...] = (),
) -> Tuple[Optional[PowerConfig], ...]:
    """The ``caps × slacks`` power axis for :func:`run_campaign`.

    Builds one :class:`~repro.power.budget.PowerConfig` per (cap, slack)
    pair, sharing the optional DVFS table and per-cluster caps.  A cap of
    ``None`` (or ``inf``) means uncapped; configurations that end up
    disabled entirely normalise to ``None`` (the unconstrained cell) and
    collapse to a single ``None`` entry, so a sweep like
    ``power_grid([None, 4e5, 2e5], slacks=[0, 20])`` yields exactly one
    baseline cell plus the four capped ones.
    """
    if not caps:
        raise ValueError("need at least one power cap (None = uncapped)")
    if not slacks:
        raise ValueError("need at least one slack percentage (0 = none)")
    grid = []
    seen_clean = False
    for cap in caps:
        cap_nj = None if cap is None or cap == float("inf") else float(cap)
        for slack in slacks:
            config = normalize_power(
                PowerConfig(
                    cap_nj=cap_nj,
                    cluster_caps_nj=cluster_caps,
                    slack_pct=float(slack),
                    dvfs=dvfs,
                )
            )
            if config is None:
                if seen_clean:
                    continue
                seen_clean = True
            grid.append(config)
    return tuple(grid)


@dataclass(frozen=True)
class ReplicationSpec:
    """One simulated run (a campaign replication, one of ``compare``'s
    four, or ``stream``): policy × load × power × seed."""

    policy: str
    seed: int
    #: Jobs in the arrival stream (``None`` only for a stream bounded by
    #: :attr:`StreamLoad.duration_cycles`).
    count: Optional[int]
    #: Mean gap between arrivals (smaller = heavier load).
    mean_interarrival_cycles: int
    #: Simulation engine (``auto`` / ``fast`` / ``reference``), forwarded
    #: to :class:`~repro.core.simulation.SchedulerSimulation`.
    engine: str = "auto"
    #: Open-system load (``None`` = closed-batch replay, the default).
    stream: Optional[StreamLoad] = None
    #: Task-graph load (``None`` = independent-job arrivals).
    dag: Optional[DagLoad] = None
    #: Power budget / DVFS configuration (``None`` = unconstrained).
    #: :class:`~repro.power.budget.PowerConfig` is hashable/picklable
    #: pure data, so the spec stays frozen and pool-shippable.
    power: Optional[PowerConfig] = None


@dataclass(frozen=True)
class ReplicationResult:
    """Metrics of one simulated replication."""

    spec: ReplicationSpec
    jobs_completed: int
    makespan_cycles: int
    total_energy_nj: float
    idle_energy_nj: float
    dynamic_energy_nj: float
    mean_waiting_cycles: float
    non_best_decisions: int
    #: Wall time of this replication (instrumentation only: never part
    #: of the aggregates, of equality or of ``repro campaign --json``,
    #: so it cannot break worker-count independence or byte-identical
    #: output).
    seconds: float = field(compare=False)
    #: Flat per-replication metric snapshot
    #: (:meth:`~repro.obs.metrics.MetricsRegistry.scalars`); empty unless
    #: the campaign ran with ``collect_metrics=True``.
    observed: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str) -> float:
        """Metric value by aggregate name."""
        if name not in CAMPAIGN_METRICS:
            raise KeyError(f"unknown campaign metric {name!r}")
        return float(getattr(self, name))


@dataclass(frozen=True)
class MetricAggregate:
    """Mean / sample std / 95 % CI half-width over a cell's replications."""

    mean: float
    std: float
    ci95: float
    n: int


@dataclass(frozen=True)
class CampaignCell:
    """Aggregates of every replication sharing one spec but the seed."""

    policy: str
    count: int
    mean_interarrival_cycles: int
    metrics: Dict[str, MetricAggregate]
    n: int
    #: Engine mode the cell's replications ran under.  Part of the cell
    #: label whenever it is not the default ``auto``, so results from
    #: explicitly pinned engines are never silently aggregated with
    #: others.
    engine: str = "auto"
    #: Aggregates of the per-replication registry scalars (empty unless
    #: the campaign ran with ``collect_metrics=True``).  Keys follow the
    #: flat ``sim.*`` naming of
    #: :meth:`~repro.obs.metrics.MetricsRegistry.scalars`; open-system
    #: campaigns report their windowed metrics here under ``stream.*``.
    observed: Dict[str, MetricAggregate] = field(default_factory=dict)
    #: Arrival-process kind of an open-system campaign (``None`` =
    #: closed-batch replay).  Part of the cell label, like ``engine``.
    stream: Optional[str] = None
    #: Whether the cell's replications ran task-graph workloads
    #: (:class:`DagLoad`).  Part of the cell label (``policy^dag``), so
    #: DAG results are never silently aggregated with plain-job ones.
    dag: bool = False
    #: Label of the cell's power configuration
    #: (:attr:`~repro.power.budget.PowerConfig.label`; ``None`` =
    #: unconstrained).  Part of the cell label (``policy%cap=...``) and
    #: of the cell identity, so differently capped results are never
    #: silently aggregated.
    power: Optional[str] = None

    def metric(self, name: str) -> MetricAggregate:
        """Aggregate by metric name."""
        return self.metrics[name]


#: Two-tailed 95 % Student-t critical values by degrees of freedom.
#: Campaign cells aggregate a handful of replications, where the
#: normal z=1.96 understates the interval badly (at n=2, df=1, the true
#: critical value is 12.706 — a ~6.5× narrower-than-real CI).  The
#: table covers df 1..30 exactly plus the conventional 40/60/120
#: waypoints; untabulated df fall back to the largest tabulated df not
#: exceeding them, which rounds the interval *wider* (conservative).
_T_CRITICAL_95 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
    11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
    16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
    21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
    26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
    40: 2.021, 60: 2.000, 120: 1.980,
}


#: Cell fields that mark a cell's summary label when away from their
#: default (``base@reference~poisson^dag%cap=...``).
_LABEL_MARKS = (
    ("engine", "@{}"), ("stream", "~{}"), ("dag", "^dag"), ("power", "%{}"),
)


def _t_critical(df: int) -> float:
    """Two-tailed 95 % t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    exact = _T_CRITICAL_95.get(df)
    if exact is not None:
        return exact
    # Conservative fallback: the largest tabulated df below the actual
    # one has a slightly *larger* critical value, so the reported
    # interval can only err wide, never narrow.
    floor_df = max(d for d in _T_CRITICAL_95 if d <= df)
    return _T_CRITICAL_95[floor_df]


def _aggregate(values: Sequence[float]) -> MetricAggregate:
    n = len(values)
    if n == 0:
        raise ValueError("cannot aggregate an empty cell")
    mean = sum(values) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
        ci95 = _t_critical(n - 1) * std / math.sqrt(n)
    else:
        std = 0.0
        ci95 = 0.0
    return MetricAggregate(mean=mean, std=std, ci95=ci95, n=n)


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced.

    ``replications`` are in grid order (policy-major, then load, then
    seed); ``cells`` aggregate each (policy, load) over its seeds.
    """

    replications: Tuple[ReplicationResult, ...]
    cells: Tuple[CampaignCell, ...]
    wall_seconds: float
    workers: int

    def cell(self, policy: str, **selectors) -> CampaignCell:
        """The unique cell of ``policy`` matching the selectors.

        Each selector names a :class:`CampaignCell` field (``count``,
        ``mean_interarrival_cycles``, ``power``, ``engine``,
        ``stream``, ``dag``, ...).  ``None`` matches every cell, so a
        selector may be omitted when the campaign swept one value of
        that axis; the string ``"none"`` selects the cells whose field
        is ``None`` (the unconstrained / closed-batch cell of a mixed
        campaign); any other value must equal the field (``power`` is
        the :attr:`~repro.power.budget.PowerConfig.label`).  Ambiguous
        or empty selections raise ``KeyError``.
        """
        names = [f.name for f in dataclasses.fields(CampaignCell)]
        unknown = sorted(set(selectors) - set(names))
        if unknown:
            raise TypeError(
                f"unknown cell selectors {unknown}; choose from {names}"
            )
        wanted = {"policy": policy}
        wanted.update(
            (name, None if value == "none" else value)
            for name, value in selectors.items()
            if value is not None
        )
        matches = [
            cell
            for cell in self.cells
            if all(getattr(cell, name) == value
                   for name, value in wanted.items())
        ]
        if not matches:
            raise KeyError(f"no campaign cell matches {wanted}")
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} campaign cells match {wanted}; pass "
                "count= / mean_interarrival_cycles= / power= "
                "(or another cell field) to disambiguate"
            )
        return matches[0]

    def summary(self) -> str:
        """Text table of per-cell mean ± CI for the headline metrics."""
        defaults = {
            f.name: f.default for f in dataclasses.fields(CampaignCell)
        }

        def label_for(cell: CampaignCell) -> str:
            # Every axis field away from its default marks the label.
            label = cell.policy
            for name, mark in _LABEL_MARKS:
                value = getattr(cell, name)
                if value != defaults[name]:
                    label += mark.format(value)
            return label

        width = max([15] + [len(label_for(cell)) for cell in self.cells])
        header = (
            f"{'policy':<{width}} {'jobs':>6} {'gap':>8} {'n':>3} "
            f"{'energy (mJ)':>16} {'makespan (Mcyc)':>18} {'wait (kcyc)':>14}"
        )
        lines = [header, "-" * len(header)]
        for cell in self.cells:
            energy = cell.metrics["total_energy_nj"]
            makespan = cell.metrics["makespan_cycles"]
            wait = cell.metrics["mean_waiting_cycles"]
            label = label_for(cell)
            lines.append(
                f"{label:<{width}} {cell.count:>6} "
                f"{cell.mean_interarrival_cycles:>8} {cell.n:>3} "
                f"{energy.mean / 1e6:>9.3f} ±{energy.ci95 / 1e6:<5.3f} "
                f"{makespan.mean / 1e6:>11.2f} ±{makespan.ci95 / 1e6:<5.2f} "
                f"{wait.mean / 1e3:>8.1f} ±{wait.ci95 / 1e3:<4.1f}"
            )
        lines.append(
            f"replications={len(self.replications)} workers={self.workers} "
            f"wall={self.wall_seconds:.2f}s"
        )
        return "\n".join(lines)


def run_spec(
    spec: ReplicationSpec,
    store: CharacterizationStore,
    predictor: Optional[BestCorePredictor] = None,
    *,
    energy_table: Optional[EnergyTable] = None,
    discipline: str = "fifo",
    records: bool = True,
    **sinks,
):
    """Run one spec: the only code that turns a spec into a simulation.

    Builds the spec's load (uniform arrivals, task graphs or an arrival
    process) and simulation, runs it, and returns ``(result, simulation,
    load)``.  The simulation is a
    :class:`~repro.core.simulation.SchedulerSimulation` for a batch or
    task graphs, and for a stream the
    :class:`~repro.sim.stream.StreamingSimulation` core that ran it.
    The store, predictor, energy table and discipline are run context.
    ``sinks`` (``recorder``, ``metrics``, ``validate``, ``telemetry``)
    observe the run and never change its result.

    ``records=False`` (closed-batch specs only) makes ``result`` a dict
    of the run's totals: the :data:`CAMPAIGN_METRICS` values and the
    token-pool counts under ``power`` (``None`` unpowered).  A run on
    the core then builds no per-job records and writes no state back
    into ``simulation``, which stays as constructed; a run on the
    reference loop reads the same totals off its result and pool.
    """
    if not records and (spec.stream is not None or spec.dag is not None):
        raise ValueError("records=False needs a closed-batch spec")
    arrival_args = dict(
        seed=spec.seed, mean_interarrival_cycles=spec.mean_interarrival_cycles
    )
    if spec.stream is not None:
        core = _stream_core(spec, store, predictor, energy_table,
                            discipline, **sinks)
        load = make_process(spec.stream.process, eembc_suite(),
                            **arrival_args, **dict(spec.stream.process_args))
        return core.run(load), core, load
    simulation = make_simulation(
        spec.policy, store, predictor, energy_table, discipline=discipline,
        engine=spec.engine, power=spec.power,
        **sinks,
    )
    if spec.dag is not None:
        load = generate_task_graphs(
            count=spec.count, benchmarks=[s.name for s in eembc_suite()],
            **arrival_args, **dataclasses.asdict(spec.dag),
        )
        result = simulation.run_dags(load)
    else:
        load = uniform_arrivals(eembc_suite(), count=spec.count,
                                **arrival_args)
        if records:
            result = simulation.run(load)
        elif simulation._resolve_engine() == "fast":
            totals = build_fast(simulation).run_batch(load, records=False)
            result = {
                key: totals[key] for key in (*CAMPAIGN_METRICS, "power")
            }
        else:
            result = _result_totals(simulation.run(load), simulation)
    return result, simulation, load


def _stream_core(
    spec: ReplicationSpec, store, predictor, energy_table, discipline, *,
    recorder=None, metrics=None, validate=False, telemetry=None, **options,
) -> StreamingSimulation:
    """The simulation core a stream spec runs on, on the spec's
    conventional system (as :func:`~repro.core.simulation.make_simulation`
    picks it), once :func:`select_engine` accepts the stream."""
    policy = make_policy(spec.policy)
    select_engine(
        spec.engine, policy,
        hooks=(
            (recorder is not None and recorder.enabled)
            or metrics is not None or bool(validate)
        ),
        telemetry=telemetry is not None,
        load="stream",
    )
    return StreamingSimulation(
        base_system() if spec.policy == "base" else paper_system(),
        policy,
        store,
        predictor=predictor if policy.uses_predictor else None,
        energy_table=energy_table,
        discipline=discipline,
        config=spec.stream.config(spec.count),
        telemetry=telemetry,
        power=spec.power,
        **options,
    )


def _result_totals(result, simulation) -> dict:
    """``run_spec(..., records=False)``'s totals of a run with records."""
    totals = {name: getattr(result, name) for name in CAMPAIGN_METRICS}
    pool = simulation.power_pool
    totals["power"] = None if pool is None else pool.counts()
    return totals


# Whether to attach a metrics registry, and run_spec's keyword arguments:
# installed once per worker by the pool initializer (or in-process).
_WORKER_STATE: dict = {}


def _init_worker(collect_metrics: bool, run_kwargs: dict) -> None:
    _WORKER_STATE.update(collect_metrics=collect_metrics,
                         run_kwargs=run_kwargs)


#: :class:`~repro.sim.stream.StreamResult` fields a streamed replication
#: reports as ``stream.*``.
_STREAM_FIELDS = (
    "jobs_generated", "jobs_dropped", "jobs_shed", "shed_rate",
    "blocked_cycles", "observed_jobs", "throughput_jobs_per_mcycle",
    "energy_rate_nj_per_cycle",
)


def _run_replication(spec: ReplicationSpec) -> ReplicationResult:
    """Simulate one grid point (executed inside a worker process)."""
    start = time.perf_counter()
    registry = (
        MetricsRegistry() if _WORKER_STATE["collect_metrics"] else None
    )
    # A closed batch reports only totals, so it asks for no records.
    batch = spec.stream is None and spec.dag is None
    result, simulation, load = run_spec(
        spec, metrics=registry, records=not batch,
        **_WORKER_STATE["run_kwargs"],
    )
    observed = dict(registry.scalars()) if registry is not None else {}
    if batch:
        totals = result
    elif spec.stream is not None:
        # The windowed stream metrics ride back through ``observed``
        # (flat floats, exactly like registry scalars) so cells
        # aggregate the quantile snapshots without retaining per-job
        # state anywhere.
        observed = {
            f"stream.{name}": float(getattr(result, name))
            for name in _STREAM_FIELDS
        }
        for prefix, snapshot in (
            ("stream.waiting", result.waiting),
            ("stream.turnaround", result.turnaround),
        ):
            for key, value in snapshot.items():
                observed[f"{prefix}.{key}"] = value
        totals = {
            name: getattr(result, name)
            for name in CAMPAIGN_METRICS
            if name != "mean_waiting_cycles"
        }
        totals["mean_waiting_cycles"] = result.waiting.get("mean", 0.0)
        totals["power"] = result.power
    else:
        # Deadline/slack outcomes ride back through ``observed``
        # alongside any registry scalars, so cells aggregate them like
        # every other per-replication metric.
        observed.update({
            "dag.graphs": float(len(load)),
            "dag.tasks": float(sum(g.task_count for g in load)),
            "dag.edges": float(sum(g.edge_count for g in load)),
            "dag.deadline_jobs": float(result.deadline_jobs),
            "dag.deadline_misses": float(result.deadline_misses),
            "dag.deadline_miss_rate": result.deadline_miss_rate,
        })
        totals = _result_totals(result, simulation)
    # A powered run's token-pool account rides back as ``power.*``.
    for key, value in (totals.pop("power") or {}).items():
        observed[f"power.{key}"] = float(value)
    return ReplicationResult(
        spec=spec,
        seconds=time.perf_counter() - start,
        observed=observed,
        **totals,
    )


class _PredictionMemo(BestCorePredictor):
    """A campaign's predictor, asked once per (benchmark, counters).

    Every replication profiles the same store, so without the memo each
    one would re-run the predictor (the ANN's forward pass) for every
    benchmark it profiles.  The key holds the name because a predictor
    may dispatch on it; an exception is raised again on the next call,
    never stored.  Pool workers each fill their own copy.
    """

    def __init__(self, predictor: BestCorePredictor) -> None:
        self.predictor = predictor
        self._sizes: Dict[tuple, int] = {}

    def predict_size_kb(self, benchmark, counters) -> int:
        key = (benchmark, counters)
        size = self._sizes.get(key)
        if size is None:
            size = self.predictor.predict_size_kb(benchmark, counters)
            self._sizes[key] = size
        return size


def _pool_context() -> multiprocessing.context.BaseContext:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return multiprocessing.get_context()


def campaign_specs(
    *,
    policies: Sequence[str] = POLICY_NAMES,
    seeds: Sequence[int] = (0,),
    loads: Sequence[Tuple[int, int]] = ((1000, 56_000),),
    power_configs: Sequence[Optional[PowerConfig]] = (None,),
    engine: str = "auto",
    stream: Optional[StreamLoad] = None,
    dag: Optional[DagLoad] = None,
    hooks: bool = False,
    telemetry: bool = False,
) -> Tuple[ReplicationSpec, ...]:
    """The checked specs of a campaign grid, ``compare`` or ``stream``.

    Takes :func:`run_campaign`'s axis arguments and returns the
    cartesian product of the axes as specs, in grid order (policy,
    load, power configuration, seed).  ``hooks`` and
    ``telemetry`` say whether the runs attach per-event hooks or
    sampled telemetry.  Every spec-shaped check runs here, before a
    store, predictor or worker exists: each axis needs at least one
    value and no repeated one (a repeat would silently double a cell's
    ``n``), loads must be positive and finite (a stream bounded by
    ``duration_cycles`` may have no count), a closed batch's horizon
    ``count × mean_interarrival_cycles`` must stay below the int64
    cycle clock, the ``dag`` and ``stream``
    axes exclude each other, and
    :func:`~repro.core.simulation.select_engine` rules once per
    distinct spec shape.  Raises :class:`ValueError` naming the
    problem.
    """
    # Each axis with the label that keys its cells: two values with the
    # same label would land in one cell.
    axes = (
        ("policies", policies, str),
        ("loads", loads, tuple),
        ("power_configs", [normalize_power(p) for p in power_configs],
         lambda power: "unconstrained" if power is None else power.label),
        ("seeds", seeds, int),
    )
    for axis, values, label in axes:
        if not values:
            raise ValueError(f"need at least one {axis} entry")
        seen = set()
        for value in values:
            key = label(value)
            if key in seen:
                raise ValueError(
                    f"campaign axis {axis} repeats {key!r}; values on an "
                    "axis must be unique (each keys its own cells)"
                )
            seen.add(key)
    for count, gap in loads:
        if count is None and stream is not None:
            stream.config(count)  # needs a duration_cycles bound
        elif count is None or count <= 0:
            raise ValueError("load count must be positive")
        check_finite("mean_interarrival_cycles", gap)
        if stream is None and dag is None:
            check_cycles("mean_interarrival_cycles", count * gap)
    if dag is not None and stream is not None:
        raise ValueError(
            "the dag and stream axes are mutually exclusive: task-graph "
            "runs are closed-batch on the reference engine, streaming is "
            "open-system on the fast engine"
        )
    specs = tuple(
        ReplicationSpec(
            policy=policy,
            seed=seed,
            count=count,
            mean_interarrival_cycles=gap,
            engine=engine,
            stream=stream,
            dag=dag,
            power=power,
        )
        for policy, (count, gap), power, seed in itertools.product(
            *(values for _, values, _ in axes)
        )
    )
    if stream is not None:
        load = "stream"
    else:
        load = "batch" if dag is None else "dag"
    for policy in dict.fromkeys(spec.policy for spec in specs):
        select_engine(
            engine,
            make_policy(policy),
            hooks=hooks,
            telemetry=telemetry,
            load=load,
        )
    return specs


def run_campaign(
    store: CharacterizationStore,
    predictor: Optional[BestCorePredictor] = None,
    *,
    policies: Sequence[str] = POLICY_NAMES,
    seeds: Sequence[int] = (0,),
    loads: Sequence[Tuple[int, int]] = ((1000, 56_000),),
    discipline: str = "fifo",
    energy_table: Optional[EnergyTable] = None,
    workers: Optional[int] = 1,
    collect_metrics: bool = False,
    validate: bool = False,
    engine: str = "auto",
    stream: Optional[StreamLoad] = None,
    dag: Optional[DagLoad] = None,
    power_configs: Sequence[Optional[PowerConfig]] = (None,),
    progress: Optional[Callable[[int, int], None]] = None,
) -> CampaignResult:
    """Run a (policy × load × power × seed) grid, optionally parallel.

    The grid and every check on it come from :func:`campaign_specs`,
    before any worker starts; which engine runs which combination is
    the one table in ``docs/performance.md`` ("Engine selection").

    Parameters
    ----------
    store:
        Characterisation of every benchmark that can arrive — shared
        read-only by all replications.
    predictor:
        Best-core predictor for predictor-driven policies; ``None``
        uses an :class:`~repro.core.predictor.OraclePredictor` over the
        store.
    policies:
        Policy names to sweep (see
        :data:`~repro.core.policies.POLICY_NAMES`; the deadline-aware
        ``edf``/``heft`` policies are accepted too).
    seeds:
        Replication seeds; each seed generates an independent arrival
        stream per load, and cells aggregate over seeds.
    loads:
        ``(count, mean_interarrival_cycles)`` pairs — sweep either the
        stream length or the arrival rate (or both).
    discipline:
        Ready-queue service order, forwarded to the simulation.
    energy_table:
        Energy constants; defaults to the paper's table.
    workers:
        Worker processes; ``None`` means one per CPU.  Clamped to the
        replication count; ``<= 1`` runs serially in-process.  Results
        are identical for every worker count.
    collect_metrics:
        Attach a fresh :class:`~repro.obs.metrics.MetricsRegistry` to
        every replication; each worker ships the flat scalar snapshot
        back with its result, and cells expose per-key aggregates via
        :attr:`CampaignCell.observed`.  Off by default (small but
        nonzero simulation overhead).
    validate:
        Attach the energy-conservation ledger and runtime invariant
        checks (:mod:`repro.validate`) to every replication; a
        violation raises :class:`~repro.validate.ledger.ValidationError`
        out of the failing worker.  Results are unchanged when all
        checks pass.
    engine:
        Simulation engine for every replication (``auto`` / ``fast`` /
        ``reference``, see
        :class:`~repro.core.simulation.SchedulerSimulation`).
        Non-default engines appear in the cell labels
        (``policy@engine``) so differently pinned results are never
        silently aggregated.
    stream:
        Open-system load axis (:class:`StreamLoad`).  When set, every
        replication consumes a generator-backed arrival process through
        the streaming engine instead of replaying a materialised batch:
        ``loads`` become ``(max_jobs, mean_interarrival_cycles)`` of
        the stream, and the windowed waiting/turnaround quantiles,
        throughput and shed rates come back through
        :attr:`CampaignCell.observed` under ``stream.*`` keys.
    dag:
        Task-graph load axis (:class:`DagLoad`).  When set, every
        replication generates a seed-keyed DAG set and runs it with
        precedence gating
        (:meth:`~repro.core.simulation.SchedulerSimulation.run_dags`):
        ``loads`` become ``(graph count, mean graph interarrival)``,
        and deadline/slack outcomes come back through
        :attr:`CampaignCell.observed` under ``dag.*`` keys.
    power_configs:
        Power budget / DVFS configurations to sweep as a grid axis (see
        :mod:`repro.power` and the :func:`power_grid` helper); each
        entry is a :class:`~repro.power.budget.PowerConfig` or ``None``
        for an unconstrained run.  The default single-``None`` axis
        leaves campaign behaviour bit-identical to before the axis
        existed.  Labels must be unique within the sweep (they key the
        cells); entries whose configuration enables nothing normalise
        to ``None``.  Powered replications ship their token-pool gauges
        back through :attr:`CampaignCell.observed` under ``power.*``
        keys, and combined with ``dag`` the per-cell (energy,
        deadline-miss) pairs feed :func:`repro.analysis.render_frontier`.
    progress:
        ``progress(done, total)`` callback invoked after every finished
        replication (and once with ``(0, total)`` before the first), in
        completion order on the driving process.  The parallel path
        switches from ``pool.map`` to the equally order-preserving
        ``pool.imap`` so results stream back as they finish; the
        replications and aggregates are identical either way.
    """
    specs = campaign_specs(
        policies=policies,
        seeds=seeds,
        loads=loads,
        power_configs=power_configs,
        engine=engine,
        stream=stream,
        dag=dag,
        hooks=collect_metrics or validate,
    )
    if predictor is None:
        predictor = OraclePredictor(store)
    predictor = _PredictionMemo(predictor)
    if energy_table is None:
        energy_table = EnergyTable()

    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, len(specs)))

    logger.info(
        "campaign: %d replications, %d worker(s), metrics %s",
        len(specs), workers, "on" if collect_metrics else "off",
    )
    start = time.perf_counter()
    if progress is not None:
        progress(0, len(specs))
    run_kwargs = dict(
        store=store, predictor=predictor, energy_table=energy_table,
        discipline=discipline, validate=validate,
    )
    if workers == 1 or len(specs) <= 1:
        _init_worker(collect_metrics, run_kwargs)
        replications = []
        for spec in specs:
            replications.append(_run_replication(spec))
            if progress is not None:
                progress(len(replications), len(specs))
    else:
        ctx = _pool_context()
        with ctx.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(collect_metrics, run_kwargs),
        ) as pool:
            if progress is None:
                replications = pool.map(_run_replication, specs)
            else:
                replications = []
                for result in pool.imap(_run_replication, specs):
                    replications.append(result)
                    progress(len(replications), len(specs))
    wall_seconds = time.perf_counter() - start
    logger.info("campaign: finished in %.2fs", wall_seconds)

    # A cell is every replication of one spec-minus-seed, in first-seen
    # (grid) order.  Specs are frozen pure data, so the worker pool's
    # pickled round trip keeps them equal and hashable.
    groups: Dict[ReplicationSpec, List[ReplicationResult]] = {}
    for replication in replications:
        key = dataclasses.replace(replication.spec, seed=0)
        groups.setdefault(key, []).append(replication)
    cells = []
    for spec, members in groups.items():
        # Observed scalars aggregate over the union of keys (missing
        # keys default to 0.0, matching a never-incremented counter), so
        # cells stay well-formed even across heterogeneous runs.
        keys = sorted({key for m in members for key in m.observed})
        cells.append(
            CampaignCell(
                policy=spec.policy,
                count=spec.count,
                mean_interarrival_cycles=spec.mean_interarrival_cycles,
                metrics={
                    name: _aggregate([m.metric(name) for m in members])
                    for name in CAMPAIGN_METRICS
                },
                n=len(members),
                observed={
                    key: _aggregate(
                        [m.observed.get(key, 0.0) for m in members]
                    )
                    for key in keys
                },
                engine=spec.engine,
                stream=(
                    None if spec.stream is None else spec.stream.process
                ),
                dag=spec.dag is not None,
                power=None if spec.power is None else spec.power.label,
            )
        )

    return CampaignResult(
        replications=tuple(replications),
        cells=tuple(cells),
        wall_seconds=wall_seconds,
        workers=workers,
    )
