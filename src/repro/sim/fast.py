"""Construction-time tables of the simulation core, and its batch front end.

The scheduler's event loop exists once, in
:meth:`repro.sim.stream.StreamingSimulation.advance`.  It has two front
ends: the open-system stream itself, and :meth:`FastSimulation.run`,
which replays a closed batch with exactly the semantics of
:class:`~repro.core.simulation.SchedulerSimulation` — same four
policies, same event ordering, same floating-point operation order.

:class:`FastSimulation` holds the flat data that loop reads:

* **configuration interning** — cache configurations become integer
  ids ascending in :class:`~repro.cache.config.CacheConfig` order, so
  integer comparisons reproduce config tie-breaks;
* **characterisation rows** — one ``(cycles, dynamic_nj, static_nj,
  total_nj)`` tuple per (benchmark × config), plus per-config static
  leakage and reconfiguration costs, so the loop never walks
  ``store.get(name).result(config).estimate`` chains;
* **the system layout** and the **knowledge state** (profiling table,
  predictions, explored configs, tuning sessions) the loop updates in
  place.

:data:`CORE_POLICIES` declares which policies the loop implements: the
paper's four systems, keyed by exact class.  It is the only answer to
"can the core run this policy?" —
:func:`~repro.core.simulation.select_engine` routes every other class
(the ordering policies, any subclass) to the reference loop, and
:class:`FastSimulation` rejects it.

A closed batch is a finite stream: :meth:`FastSimulation.run` sorts the
arrivals stably by arrival cycle and feeds them from a list through a
:class:`~repro.sim.stream.StreamingSimulation` with
``StreamConfig(max_jobs=len(arrivals), retain_jobs=True)``.  The
**obs/validate/faults hooks are compiled out** of that loop: engine
selection in :class:`~repro.core.simulation.SchedulerSimulation` only
routes a run here when all of them are off, and they are
observation-only, so skipping them cannot change results.

Bit-identity with the reference engine across the policy × discipline ×
preemption grid is enforced by
``tests/sim/test_fast_engine_equivalence.py`` and the
``simulation-speed`` CI job.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence

from repro.cache.config import BASE_CONFIG, CacheConfig
from repro.characterization.store import CharacterizationStore
from repro.core.policies import (
    BasePolicy,
    EnergyCentricPolicy,
    OptimalPolicy,
    ProposedPolicy,
    SchedulingPolicy,
)
from repro.core.predictor import BestCorePredictor
from repro.core.results import SimulationResult
from repro.core.scheduler import TUNER_COSTS, check_run_options
from repro.core.tuning import TuningSession
from repro.energy.tables import EnergyTable
from repro.power.budget import (
    TokenPool,
    degradation_ladder,
    nominal_prices,
    normalize_power,
)
from repro.workloads.arrivals import JobArrival

__all__ = ["CORE_POLICIES", "FastSimulation", "core_branch"]

#: The policies the simulation core implements, keyed by exact class,
#: and the placement branch of
#: :meth:`~repro.sim.stream.StreamingSimulation.advance` each one
#: takes.  A subclass is not in the table even when it only renames
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


class FastSimulation:
    """Tables of the simulation core, and its closed-batch front end.

    Construction mirrors
    :class:`~repro.core.simulation.SchedulerSimulation` (same defaults,
    same validation errors) and also rejects a policy class outside
    :data:`CORE_POLICIES`; :meth:`run` returns a bit-identical
    :class:`~repro.core.results.SimulationResult`.  The observability /
    validation / fault hooks are deliberately absent — use the reference
    engine when any of them is needed.  The one observability surface
    this engine does carry is the sampled
    :class:`~repro.obs.telemetry.Telemetry` sink, fed every
    ``sample_every`` completions (never per event) from state the loop
    already maintains, so results stay bit-identical telemetry-on vs
    telemetry-off.

    After :meth:`run`, :attr:`stream` is the finished
    :class:`~repro.sim.stream.StreamingSimulation` that ran the batch;
    its run state plus this object's knowledge state are what the glue
    layer writes back into a :class:`SchedulerSimulation`.
    """

    def __init__(
        self,
        system,
        policy: SchedulingPolicy,
        store: CharacterizationStore,
        *,
        predictor: Optional[BestCorePredictor] = None,
        energy_table: Optional[EnergyTable] = None,
        profiling_overhead_fraction: float = 0.003,
        discipline: str = "fifo",
        preemptive: bool = False,
        preload_profiles: bool = False,
        telemetry=None,
        power=None,
    ) -> None:
        check_run_options(
            policy, predictor, profiling_overhead_fraction, discipline,
            preemptive,
        )
        core_branch(policy)
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
        # Sampled telemetry sink (repro.obs.telemetry).  Unlike the
        # per-event hooks the loop compiles out, telemetry fires on
        # completion-count thresholds only, so attaching it keeps the
        # fast path fast and the results bit-identical.
        self.telemetry = telemetry
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
        #: The stream that ran (or is running) on these tables.  Set
        #: once: the stream consumes the knowledge state below.
        self.stream = None

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

    # -- helpers -------------------------------------------------------------

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

    # -- closed-batch front end ----------------------------------------------

    def run(self, arrivals: Sequence[JobArrival]) -> SimulationResult:
        """Simulate the full arrival stream to completion."""
        # Imported here: repro.sim.stream builds on this module.
        from repro.sim.stream import StreamConfig, StreamingSimulation

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
        stream = StreamingSimulation.over(
            self,
            StreamConfig(max_jobs=len(ordered), retain_jobs=True),
            front_end="fast",
        )
        stream.start(_ArrivalList(ordered))
        while stream.advance():
            pass
        return stream.batch_result()
