"""Deterministic fault plans (pure data, JSON-serialisable).

A :class:`FaultPlan` describes *what goes wrong and when* during one
scheduler simulation — independently of any simulation state, so the
same plan can be replayed, shipped to campaign workers, or stored next
to a results directory.  The plan is pure data: windowed faults are
frozen dataclasses, rates are floats, and every random draw the
injection layer makes comes from a seeded per-site stream
(:meth:`FaultPlan.rng`), keyed by ``f"{seed}:{site}"`` so streams are
independent of each other, of process start-up order and of
``PYTHONHASHSEED``.

Fault classes
-------------
* ``core_failure`` — a core goes down for a window (its occupant is
  requeued with a pro-rata energy refund) and comes back up;
* ``core_slowdown`` — executions dispatched on a core during the window
  take ``factor`` times as long;
* ``reconfig_pin`` — the cache tuner cannot reconfigure the core during
  the window; dispatches are pinned to the core's base (reset)
  configuration;
* ``predictor_outage`` — the best-core predictor is unavailable; the
  scheduler falls back to the base-configuration size heuristic;
* ``misprediction`` — predictions made during the window are perturbed
  by a seeded size-class offset;
* ``counter_noise`` — multiplicative per-counter noise on profiling
  counters;
* ``table_eviction`` / ``table_corruption`` — profiling-table entries
  are evicted (forcing re-profiling / re-tuning) or their recorded
  energies scaled by a random factor, at job-completion checkpoints;
* ``dispatch_failure`` — dispatches fail with a given probability and
  retry with capped exponential backoff before surrendering to any
  idle core.

An empty plan (:meth:`FaultPlan.is_empty`) injects nothing; a
simulation run with an empty plan is bit-identical to a run without a
plan at all (asserted by the property suite in ``tests/faults``).
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence, Tuple

from repro._util import load_json_document

__all__ = [
    "CoreFault",
    "PredictorFault",
    "FaultPlan",
    "FAULT_CLASSES",
    "CORE_FAULT_KINDS",
    "PREDICTOR_FAULT_KINDS",
    "generate_plan",
    "load_plan",
]

#: Windowed per-core fault kinds.
CORE_FAULT_KINDS = ("failure", "slowdown", "reconfig_pin")

#: Windowed predictor fault kinds.
PREDICTOR_FAULT_KINDS = ("outage", "misprediction")

#: Every fault class a plan can schedule (the chaos grid iterates this).
FAULT_CLASSES = (
    "core_failure",
    "core_slowdown",
    "reconfig_pin",
    "predictor_outage",
    "misprediction",
    "counter_noise",
    "table_eviction",
    "table_corruption",
    "dispatch_failure",
)


def _check_window(start_cycle: int, end_cycle: Optional[int]) -> None:
    if start_cycle < 0:
        raise ValueError("start_cycle must be non-negative")
    if end_cycle is not None and end_cycle <= start_cycle:
        raise ValueError("end_cycle must exceed start_cycle")


@dataclass(frozen=True)
class CoreFault:
    """One windowed fault on one core.

    ``end_cycle=None`` means the fault lasts to the end of the run.
    ``factor`` is only meaningful for ``slowdown`` (service-time
    multiplier, >= 1).
    """

    kind: str
    core_index: int
    start_cycle: int
    end_cycle: Optional[int] = None
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CORE_FAULT_KINDS:
            raise ValueError(
                f"unknown core fault kind {self.kind!r}; "
                f"choose from {CORE_FAULT_KINDS}"
            )
        if self.core_index < 0:
            raise ValueError("core_index must be non-negative")
        _check_window(self.start_cycle, self.end_cycle)
        if self.kind == "slowdown" and self.factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")

    def active(self, cycle: int) -> bool:
        """Whether the window covers ``cycle``."""
        return self.start_cycle <= cycle and (
            self.end_cycle is None or cycle < self.end_cycle
        )


@dataclass(frozen=True)
class PredictorFault:
    """One windowed predictor fault (outage or misprediction spike).

    ``offset`` is the misprediction size-class shift magnitude (how many
    steps up or down the cache-size ladder a prediction is moved; the
    direction is drawn from the plan's ``mispredict`` stream).
    """

    kind: str
    start_cycle: int
    end_cycle: Optional[int] = None
    offset: int = 1

    def __post_init__(self) -> None:
        if self.kind not in PREDICTOR_FAULT_KINDS:
            raise ValueError(
                f"unknown predictor fault kind {self.kind!r}; "
                f"choose from {PREDICTOR_FAULT_KINDS}"
            )
        _check_window(self.start_cycle, self.end_cycle)
        if self.kind == "misprediction" and self.offset < 1:
            raise ValueError("misprediction offset must be >= 1")

    def active(self, cycle: int) -> bool:
        """Whether the window covers ``cycle``."""
        return self.start_cycle <= cycle and (
            self.end_cycle is None or cycle < self.end_cycle
        )


def _rate(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one simulation run.

    Hashable and picklable (tuples only), so it can ride inside a frozen
    :class:`~repro.campaign.ReplicationSpec` across a process pool.
    """

    name: str = "plan"
    seed: int = 0
    core_faults: Tuple[CoreFault, ...] = ()
    predictor_faults: Tuple[PredictorFault, ...] = ()
    #: Multiplicative half-width of per-counter profiling noise (0.1 =
    #: each counter scaled by a uniform factor in [0.9, 1.1]).
    counter_noise: float = 0.0
    #: Per-completion probability of evicting a profiling-table entry.
    table_eviction_rate: float = 0.0
    #: Per-completion probability of corrupting a recorded energy.
    table_corruption_rate: float = 0.0
    #: Per-attempt probability that a dispatch fails and must retry.
    dispatch_failure_rate: float = 0.0
    #: First retry delay; doubles per consecutive failure of the job.
    dispatch_retry_base_cycles: int = 2_000
    #: Backoff ceiling.
    dispatch_retry_cap_cycles: int = 64_000
    #: Failures after which the job surrenders to any idle core.
    dispatch_max_retries: int = 4

    def __post_init__(self) -> None:
        # Normalise sequences (e.g. lists from JSON) to tuples so the
        # plan stays hashable.
        object.__setattr__(self, "core_faults", tuple(self.core_faults))
        object.__setattr__(
            self, "predictor_faults", tuple(self.predictor_faults)
        )
        if not self.name:
            raise ValueError("plan name must be non-empty")
        if self.counter_noise < 0:
            raise ValueError("counter_noise must be >= 0")
        _rate("table_eviction_rate", self.table_eviction_rate)
        _rate("table_corruption_rate", self.table_corruption_rate)
        _rate("dispatch_failure_rate", self.dispatch_failure_rate)
        if self.dispatch_retry_base_cycles <= 0:
            raise ValueError("dispatch_retry_base_cycles must be positive")
        if self.dispatch_retry_cap_cycles < self.dispatch_retry_base_cycles:
            raise ValueError(
                "dispatch_retry_cap_cycles must be >= the base delay"
            )
        if self.dispatch_max_retries < 0:
            raise ValueError("dispatch_max_retries must be >= 0")

    # -- behaviour queries ---------------------------------------------------

    def is_empty(self) -> bool:
        """Whether the plan injects nothing at all."""
        return (
            not self.core_faults
            and not self.predictor_faults
            and self.counter_noise == 0.0
            and self.table_eviction_rate == 0.0
            and self.table_corruption_rate == 0.0
            and self.dispatch_failure_rate == 0.0
        )

    def classes(self) -> Tuple[str, ...]:
        """The fault classes this plan actually schedules."""
        present = []
        kinds = {f.kind for f in self.core_faults}
        if "failure" in kinds:
            present.append("core_failure")
        if "slowdown" in kinds:
            present.append("core_slowdown")
        if "reconfig_pin" in kinds:
            present.append("reconfig_pin")
        pkinds = {f.kind for f in self.predictor_faults}
        if "outage" in pkinds:
            present.append("predictor_outage")
        if "misprediction" in pkinds:
            present.append("misprediction")
        if self.counter_noise:
            present.append("counter_noise")
        if self.table_eviction_rate:
            present.append("table_eviction")
        if self.table_corruption_rate:
            present.append("table_corruption")
        if self.dispatch_failure_rate:
            present.append("dispatch_failure")
        return tuple(present)

    def rng(self, site: str) -> random.Random:
        """A dedicated deterministic stream for one fault site.

        String seeding makes the stream independent of
        ``PYTHONHASHSEED`` and identical across worker processes.
        """
        return random.Random(f"{self.seed}:{site}")

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable payload (round-trips via :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Reconstruct a plan from a :meth:`to_dict` payload."""
        data = dict(payload)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fault-plan fields {unknown}")
        data["core_faults"] = tuple(
            CoreFault(**entry) for entry in data.get("core_faults", ())
        )
        data["predictor_faults"] = tuple(
            PredictorFault(**entry)
            for entry in data.get("predictor_faults", ())
        )
        return cls(**data)

    def to_json(self, path) -> None:
        """Write the plan as a deterministic JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def describe(self) -> str:
        """Human-readable multi-line plan summary."""
        lines = [f"fault plan {self.name!r} (seed {self.seed})"]
        classes = self.classes()
        if not classes:
            lines.append("  empty: injects nothing")
            return "\n".join(lines)
        for fault in self.core_faults:
            end = "end-of-run" if fault.end_cycle is None else fault.end_cycle
            extra = (
                f" x{fault.factor:g}" if fault.kind == "slowdown" else ""
            )
            lines.append(
                f"  core {fault.core_index}: {fault.kind}{extra} "
                f"[{fault.start_cycle}, {end})"
            )
        for fault in self.predictor_faults:
            end = "end-of-run" if fault.end_cycle is None else fault.end_cycle
            extra = (
                f" offset {fault.offset}"
                if fault.kind == "misprediction"
                else ""
            )
            lines.append(
                f"  predictor: {fault.kind}{extra} "
                f"[{fault.start_cycle}, {end})"
            )
        if self.counter_noise:
            lines.append(
                f"  counter noise: +/-{self.counter_noise:.3f} per counter"
            )
        if self.table_eviction_rate:
            lines.append(
                f"  table eviction: p={self.table_eviction_rate:.3f} "
                "per completion"
            )
        if self.table_corruption_rate:
            lines.append(
                f"  table corruption: p={self.table_corruption_rate:.3f} "
                "per completion"
            )
        if self.dispatch_failure_rate:
            lines.append(
                f"  dispatch failure: p={self.dispatch_failure_rate:.3f}, "
                f"backoff {self.dispatch_retry_base_cycles}.."
                f"{self.dispatch_retry_cap_cycles} cycles, surrender after "
                f"{self.dispatch_max_retries} retries"
            )
        return "\n".join(lines)


def load_plan(path) -> FaultPlan:
    """Read a :meth:`FaultPlan.to_json` document back into a plan.

    Raises :class:`ValueError` naming ``path`` when it does not hold a
    valid plan.
    """
    return load_json_document(path, "fault plan", FaultPlan.from_dict)


def generate_plan(
    seed: int,
    *,
    density: float = 0.25,
    horizon_cycles: int = 3_000_000,
    cores: int = 4,
    classes: Sequence[str] = FAULT_CLASSES,
    name: Optional[str] = None,
) -> FaultPlan:
    """Generate a mixed seeded plan (the CLI ``faults generate`` engine).

    ``density`` in [0, 1] scales window counts, window lengths and
    rates; the same ``(seed, density, horizon, cores, classes)`` always
    yields the same plan.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if horizon_cycles <= 0:
        raise ValueError("horizon_cycles must be positive")
    if cores <= 0:
        raise ValueError("cores must be positive")
    unknown = sorted(set(classes) - set(FAULT_CLASSES))
    if unknown:
        raise ValueError(
            f"unknown fault classes {unknown}; choose from {FAULT_CLASSES}"
        )
    rng = random.Random(f"{seed}:generate")
    chosen = set(classes)
    core_faults = []

    def window(max_share: float) -> Tuple[int, int]:
        start = rng.randrange(0, max(1, int(horizon_cycles * 0.7)))
        length = max(
            1, int(horizon_cycles * rng.uniform(0.05, max_share))
        )
        return start, start + length

    if "core_failure" in chosen:
        for _ in range(max(1, round(density * cores))):
            start, end = window(0.10 + 0.15 * density)
            core_faults.append(CoreFault(
                kind="failure",
                core_index=rng.randrange(cores),
                start_cycle=start,
                end_cycle=end,
            ))
    if "core_slowdown" in chosen:
        for _ in range(max(1, round(density * cores))):
            start, end = window(0.20 + 0.20 * density)
            core_faults.append(CoreFault(
                kind="slowdown",
                core_index=rng.randrange(cores),
                start_cycle=start,
                end_cycle=end,
                factor=round(rng.uniform(1.2, 1.2 + 2.8 * density), 3),
            ))
    if "reconfig_pin" in chosen:
        start, end = window(0.25 + 0.25 * density)
        core_faults.append(CoreFault(
            kind="reconfig_pin",
            core_index=rng.randrange(cores),
            start_cycle=start,
            end_cycle=end,
        ))
    predictor_faults = []
    if "predictor_outage" in chosen:
        start, end = window(0.10 + 0.30 * density)
        predictor_faults.append(PredictorFault(
            kind="outage", start_cycle=start, end_cycle=end,
        ))
    if "misprediction" in chosen:
        start, end = window(0.15 + 0.30 * density)
        predictor_faults.append(PredictorFault(
            kind="misprediction",
            start_cycle=start,
            end_cycle=end,
            offset=1 + (rng.random() < density),
        ))
    return FaultPlan(
        name=name if name is not None else f"generated-{seed}",
        seed=seed,
        core_faults=tuple(core_faults),
        predictor_faults=tuple(predictor_faults),
        counter_noise=(
            round(0.2 * density, 4) if "counter_noise" in chosen else 0.0
        ),
        table_eviction_rate=(
            round(0.15 * density, 4) if "table_eviction" in chosen else 0.0
        ),
        table_corruption_rate=(
            round(0.10 * density, 4) if "table_corruption" in chosen else 0.0
        ),
        dispatch_failure_rate=(
            round(0.20 * density, 4) if "dispatch_failure" in chosen else 0.0
        ),
        dispatch_max_retries=3,
    )
