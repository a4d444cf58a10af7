"""Power-token budget: configuration, pool accounting, dispatch gate.

The scheduler spends *power tokens* (denominated in nJ, priced from the
energy tables) on every dispatch and gets them back when the execution
completes or is preempted.  A :class:`PowerConfig` sets the global cap,
optional per-cluster caps (clusters are the cache-size groups of
:meth:`repro.core.system.SystemConfig.cores_with_size`), the
slack percentage used when degrading deadline-carrying jobs, and the
optional DVFS table.

The :class:`TokenPool` is the runtime account.  It is deliberately
engine-agnostic: the reference, fast and streaming engines all drive the
same pool through ``affordable`` / ``grant`` / ``refund`` / ``consume``,
and its :meth:`TokenPool.state_dict` round-trips through streaming
checkpoints.  Outstanding tokens are tracked per held grant (bounded by
the core count), so availability checks are exact — no drift from
running-sum accumulation.

The rigorous conservation *check* (granted − refunded equals the
ledger's net dispatch charges at ``2**-40`` relative tolerance) lives in
:mod:`repro.validate.ledger`, which keeps full entry lists and sums with
``math.fsum``; the pool's ``granted_nj``/``refunded_nj`` running totals
are reporting gauges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .dvfs import DvfsTable

__all__ = [
    "PowerConfig",
    "TokenPool",
    "normalize_power",
    "slack_admissible",
    "pick_degraded",
]

_INF = float("inf")


@dataclass(frozen=True)
class PowerConfig:
    """Everything the power axis can vary, hashable for campaign specs."""

    #: Global token cap in nJ; ``None`` (or ``inf``) means unlimited.
    cap_nj: Optional[float] = None
    #: Optional per-cluster caps as sorted ``(cache_size_kb, cap_nj)``.
    cluster_caps_nj: Tuple[Tuple[int, float], ...] = ()
    #: STOMP-style slack percentage: a degraded dispatch of a
    #: deadline-carrying job is admitted while it still finishes within
    #: ``deadline + slack_pct/100 * (deadline - arrival)``.
    slack_pct: float = 0.0
    #: Optional DVFS operating points (nominal first).
    dvfs: Optional[DvfsTable] = None

    def __post_init__(self) -> None:
        if self.cap_nj is not None and not self.cap_nj > 0.0:
            raise ValueError(f"cap_nj must be positive, got {self.cap_nj!r}")
        sizes = [size for size, _ in self.cluster_caps_nj]
        if sizes != sorted(set(sizes)):
            raise ValueError(
                "cluster_caps_nj must be sorted by size with unique sizes"
            )
        for size, cap in self.cluster_caps_nj:
            if size <= 0:
                raise ValueError(f"cluster size must be positive, got {size}")
            if not cap > 0.0:
                raise ValueError(
                    f"cluster cap must be positive, got {cap!r} for {size}KB"
                )
        if self.slack_pct < 0.0:
            raise ValueError(
                f"slack_pct must be non-negative, got {self.slack_pct!r}"
            )

    @property
    def enabled(self) -> bool:
        """Whether this configuration changes anything at all."""
        has_cap = self.cap_nj is not None and self.cap_nj != _INF
        return has_cap or bool(self.cluster_caps_nj) or self.dvfs is not None

    @property
    def label(self) -> str:
        """Compact deterministic label for campaign cells and traces."""
        cap = "inf" if self.cap_nj is None else format(self.cap_nj, "g")
        parts = [f"cap={cap}"]
        for size, cluster_cap in self.cluster_caps_nj:
            parts.append(f"{size}kb={format(cluster_cap, 'g')}")
        if self.slack_pct:
            parts.append(f"slack={format(self.slack_pct, 'g')}")
        if self.dvfs is not None:
            parts.append("dvfs")
        return "~".join(parts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "cap_nj": self.cap_nj,
            "cluster_caps_nj": [list(pair) for pair in self.cluster_caps_nj],
            "slack_pct": self.slack_pct,
            "dvfs": None if self.dvfs is None else self.dvfs.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PowerConfig":
        dvfs = payload.get("dvfs")
        return cls(
            cap_nj=(
                None if payload.get("cap_nj") is None
                else float(payload["cap_nj"])
            ),
            cluster_caps_nj=tuple(
                (int(size), float(cap))
                for size, cap in payload.get("cluster_caps_nj", ())
            ),
            slack_pct=float(payload.get("slack_pct", 0.0)),
            dvfs=None if dvfs is None else DvfsTable.from_dict(dvfs),
        )


def normalize_power(power: Optional[PowerConfig]) -> Optional[PowerConfig]:
    """``None`` when nothing is enabled, so engines keep their exact
    pre-power code paths (the empty-fault-plan precedent)."""
    if power is None:
        return None
    if not isinstance(power, PowerConfig):
        raise TypeError(
            f"power must be a PowerConfig or None, got {type(power).__name__}"
        )
    return power if power.enabled else None


def slack_admissible(
    now: int,
    work_cycles: int,
    arrival_cycle: int,
    deadline_cycle: Optional[int],
    slack_pct: float,
) -> bool:
    """Whether a *degraded* dispatch may still start.

    Deadline-free jobs degrade freely.  Deadline-carrying jobs accept a
    degraded (cheaper, slower) option only while it can still finish by
    ``deadline + slack_pct/100 * (deadline - arrival)`` — STOMP's
    ``SLACK_PERC`` contract.
    """
    if deadline_cycle is None:
        return True
    budget = deadline_cycle - arrival_cycle
    limit = deadline_cycle + slack_pct / 100.0 * budget
    return now + work_cycles <= limit


def pick_degraded(
    pool: "TokenPool",
    size_kb: int,
    preferred_price_nj: float,
    candidates: Iterable[Tuple[float, int, int, object]],
    *,
    now: int,
    arrival_cycle: int,
    deadline_cycle: Optional[int],
    slack_pct: float,
) -> Optional[object]:
    """Pick the least-degraded affordable candidate, or ``None``.

    ``candidates`` are ``(price_nj, work_cycles, rank, payload)`` tuples;
    ``rank`` is the engine's deterministic enumeration index (configs in
    natural ascending order × operating points in table order), shared by
    the reference and fast engines so ties break identically.  Only
    candidates strictly cheaper than the preferred price are considered,
    most expensive (least degraded) first.
    """
    best = None
    for price, work, rank, payload in candidates:
        if not price < preferred_price_nj:
            continue
        key = (-price, rank)
        if best is not None and key >= best[0]:
            continue
        if not slack_admissible(
            now, work, arrival_cycle, deadline_cycle, slack_pct
        ):
            continue
        if not pool.affordable(price, size_kb):
            continue
        best = (key, payload)
    return None if best is None else best[1]


class TokenPool:
    """Runtime token account for one simulation run."""

    def __init__(self, config: PowerConfig) -> None:
        self.config = config
        self._cap = _INF if config.cap_nj is None else config.cap_nj
        self._cluster_caps: Dict[int, float] = dict(config.cluster_caps_nj)
        #: job id → (grant_nj, size_kb); bounded by the core count.
        self._held: Dict[int, Tuple[float, int]] = {}
        self.granted_nj = 0.0
        self.refunded_nj = 0.0
        self.grants = 0
        self.refunds = 0
        self.throttled = 0
        self.degraded = 0
        self.overdrafts = 0

    # -- availability -------------------------------------------------

    @property
    def outstanding_nj(self) -> float:
        """Tokens currently held by running executions (exact)."""
        if not self._held:
            return 0.0
        return math.fsum(grant for grant, _ in self._held.values())

    def cluster_outstanding_nj(self, size_kb: int) -> float:
        held = [g for g, size in self._held.values() if size == size_kb]
        return math.fsum(held) if held else 0.0

    @property
    def consumed_nj(self) -> float:
        """granted − refunded − outstanding, exact by construction."""
        return self.granted_nj - self.refunded_nj - self.outstanding_nj

    def counts(self) -> Dict[str, float]:
        """The pool's account: token totals (nJ) and event counts."""
        return {
            "granted_nj": self.granted_nj,
            "refunded_nj": self.refunded_nj,
            "consumed_nj": self.consumed_nj,
            "grants": self.grants,
            "refunds": self.refunds,
            "throttled": self.throttled,
            "degraded": self.degraded,
            "overdrafts": self.overdrafts,
        }

    def idle(self) -> bool:
        """No grants held anywhere — the progress-guarantee condition."""
        return not self._held

    def affordable(self, price_nj: float, size_kb: int) -> bool:
        if price_nj > self._cap - self.outstanding_nj:
            return False
        cluster_cap = self._cluster_caps.get(size_kb)
        if cluster_cap is None:
            return True
        return price_nj <= cluster_cap - self.cluster_outstanding_nj(size_kb)

    # -- mutation -----------------------------------------------------

    def grant(self, job_id: int, price_nj: float, size_kb: int) -> None:
        if job_id in self._held:
            raise RuntimeError(f"job {job_id} already holds a token grant")
        self._held[job_id] = (price_nj, size_kb)
        self.granted_nj += price_nj
        self.grants += 1

    def refund(self, job_id: int, refund_nj: float) -> float:
        """Return tokens on preemption; the unrefunded remainder is
        consumed.  Returns the grant that was released."""
        grant, _ = self._held.pop(job_id)
        self.refunded_nj += refund_nj
        self.refunds += 1
        return grant

    def consume(self, job_id: int) -> float:
        """Settle a grant on completion; returns the grant amount."""
        grant, _ = self._held.pop(job_id)
        return grant

    # -- checkpoint ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "held": [
                [job_id, grant, size]
                for job_id, (grant, size) in sorted(self._held.items())
            ],
            "granted_nj": self.granted_nj,
            "refunded_nj": self.refunded_nj,
            "grants": self.grants,
            "refunds": self.refunds,
            "throttled": self.throttled,
            "degraded": self.degraded,
            "overdrafts": self.overdrafts,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        self._held = {
            int(job_id): (float(grant), int(size))
            for job_id, grant, size in state["held"]
        }
        self.granted_nj = float(state["granted_nj"])
        self.refunded_nj = float(state["refunded_nj"])
        self.grants = int(state["grants"])
        self.refunds = int(state["refunds"])
        self.throttled = int(state["throttled"])
        self.degraded = int(state["degraded"])
        self.overdrafts = int(state["overdrafts"])
