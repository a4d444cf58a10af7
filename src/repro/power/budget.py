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
and :meth:`TokenPool.state_dict` / :meth:`TokenPool.load_state` copy an
account from one pool to another.  Outstanding tokens are tracked per
held grant (bounded by the core count), and every grant, refund or
settlement re-sums them with ``math.fsum``, so availability checks are
exact — no drift from running-sum accumulation — and read a stored
total.

An unaffordable dispatch walks a *degradation ladder*: the cheaper
(config × DVFS point) options on the same core.
:func:`degradation_ladder` prices and sorts one ladder, which an engine
builds once per (benchmark, core size, pinned config) for full
executions; :func:`pick_degraded` walks it in order and returns the
first rung the pool and the deadline slack admit.

The rigorous conservation *check* (granted − refunded equals the
ledger's net dispatch charges at ``2**-40`` relative tolerance) lives in
:mod:`repro.validate.ledger`, which keeps full entry lists and sums with
``math.fsum``; the pool's ``granted_nj``/``refunded_nj`` running totals
are reporting gauges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro._util import check_finite, check_int, check_number
from repro.energy.scaling import scaled_charges

from .dvfs import DvfsPoint, DvfsTable

__all__ = [
    "PowerConfig",
    "TokenPool",
    "normalize_power",
    "slack_admissible",
    "degradation_ladder",
    "nominal_prices",
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
        check_finite("slack_pct", self.slack_pct, minimum=0)

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


#: One ladder rung: ``(price_nj, work_cycles, rank, (payload, point))``.
Rung = Tuple[float, int, int, Tuple[object, Optional[DvfsPoint]]]


def degradation_ladder(
    rows: Sequence[Optional[Tuple[object, int, float, float]]],
    points: Sequence[Optional[DvfsPoint]],
    fraction: float,
) -> Tuple[Rung, ...]:
    """Price every (config × operating point) option, least degraded first.

    ``rows`` holds one ``(payload, total_cycles, dynamic_nj, static_nj)``
    per configuration in the engine's ascending config order, or
    ``None`` for a configuration the store lacks; ``points`` is the DVFS
    table in order (``(None,)`` without one).  A rung's ``rank`` is its
    enumeration index — a missing row still uses up ``len(points)``
    ranks — so every engine breaks price ties identically.  Prices come
    from :func:`~repro.energy.scaling.scaled_charges`, the arithmetic
    the dispatch itself is charged with.  The rungs are sorted by
    ``(-price, rank)``.
    """
    rungs = []
    rank = 0
    for row in rows:
        if row is None:
            rank += len(points)
            continue
        payload, total_cycles, dynamic_nj, static_nj = row
        for point in points:
            work, dynamic, static = scaled_charges(
                total_cycles, dynamic_nj, static_nj, fraction, point
            )
            rungs.append((dynamic + static, work, rank, (payload, point)))
            rank += 1
    rungs.sort(key=lambda rung: (-rung[0], rung[2]))
    return tuple(rungs)


def nominal_prices(ladder: Sequence[Rung]) -> Dict[object, float]:
    """Each payload's price at the nominal point (or without DVFS): the
    gate's preferred option, priced by the same ``scaled_charges``."""
    return {
        payload: price
        for price, _, _, (payload, point) in ladder
        if point is None or point.is_nominal
    }


def pick_degraded(
    pool: "TokenPool",
    size_kb: int,
    preferred_price_nj: float,
    ladder: Sequence[Rung],
    *,
    now: int,
    arrival_cycle: int,
    deadline_cycle: Optional[int],
    slack_pct: float,
) -> Optional[Tuple[object, Optional[DvfsPoint]]]:
    """The least-degraded affordable ``(payload, point)``, or ``None``.

    ``ladder`` comes from :func:`degradation_ladder`, so the first rung
    strictly cheaper than the preferred price that fits the pool's
    global and cluster headroom and passes :func:`slack_admissible` is
    the most expensive such option, ties going to the lowest rank.
    """
    room, cluster_room = pool.headroom(size_kb)
    for price, work, _, option in ladder:
        if not price < preferred_price_nj:
            continue
        if price > room or price > cluster_room:
            continue
        if slack_admissible(
            now, work, arrival_cycle, deadline_cycle, slack_pct
        ):
            return option
    return None


class TokenPool:
    """Runtime token account for one simulation run."""

    def __init__(self, config: PowerConfig) -> None:
        self.config = config
        self._cap = _INF if config.cap_nj is None else config.cap_nj
        self._cluster_caps: Dict[int, float] = dict(config.cluster_caps_nj)
        #: job id → (grant_nj, size_kb); bounded by the core count.
        self._held: Dict[int, Tuple[float, int]] = {}
        #: ``math.fsum`` of the held grants, globally and per capped
        #: cluster, re-summed by :meth:`_resum` whenever ``_held``
        #: changes.
        self._outstanding = 0.0
        self._cluster_outstanding = dict.fromkeys(self._cluster_caps, 0.0)
        self.granted_nj = 0.0
        self.refunded_nj = 0.0
        self.grants = 0
        self.refunds = 0
        self.throttled = 0
        self.degraded = 0
        self.overdrafts = 0

    # -- availability -------------------------------------------------

    def _resum(self) -> None:
        held = self._held.values()
        self._outstanding = math.fsum([grant for grant, _ in held])
        for size in self._cluster_caps:
            self._cluster_outstanding[size] = math.fsum(
                [grant for grant, held_size in held if held_size == size]
            )

    @property
    def outstanding_nj(self) -> float:
        """Tokens currently held by running executions (exact)."""
        return self._outstanding

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
        room, cluster_room = self.headroom(size_kb)
        return price_nj <= room and price_nj <= cluster_room

    def headroom(self, size_kb: int) -> Tuple[float, float]:
        """``(global, cluster)`` tokens a new grant on a ``size_kb``
        core may take; ``inf`` where no cap applies."""
        cluster_cap = self._cluster_caps.get(size_kb)
        return (
            self._cap - self._outstanding,
            _INF if cluster_cap is None
            else cluster_cap - self._cluster_outstanding[size_kb],
        )

    # -- mutation -----------------------------------------------------

    def grant(self, job_id: int, price_nj: float, size_kb: int) -> None:
        if job_id in self._held:
            raise RuntimeError(f"job {job_id} already holds a token grant")
        self._held[job_id] = (price_nj, size_kb)
        self._resum()
        self.granted_nj += price_nj
        self.grants += 1

    def refund(self, job_id: int, refund_nj: float) -> float:
        """Return tokens on preemption; the unrefunded remainder is
        consumed.  Returns the grant that was released."""
        grant, _ = self._held.pop(job_id)
        self._resum()
        self.refunded_nj += refund_nj
        self.refunds += 1
        return grant

    def consume(self, job_id: int) -> float:
        """Settle a grant on completion; returns the grant amount."""
        grant, _ = self._held.pop(job_id)
        self._resum()
        return grant

    # -- account copy -------------------------------------------------

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
        """Restore the account :meth:`state_dict` wrote.

        Every field is checked first, so a missing or mistyped one is a
        :class:`ValueError` naming it, with the pool untouched.
        """
        if not isinstance(state, Mapping):
            raise ValueError(
                f"a token pool state is a JSON object, got {state!r}"
            )
        rows = state.get("held")
        if not isinstance(rows, list):
            raise ValueError(f"token pool 'held' must be a list, got {rows!r}")
        held = {}
        for row in rows:
            if not isinstance(row, list) or len(row) != 3:
                raise ValueError(
                    "a token pool 'held' row is [job_id, grant_nj, size_kb], "
                    f"got {row!r}"
                )
            job_id, grant, size = row
            held[check_int("token pool held job_id", job_id, minimum=0)] = (
                float(check_number("token pool held grant_nj", grant)),
                check_int("token pool held size_kb", size, minimum=1),
            )
        totals = {
            key: float(check_number(f"token pool {key!r}", state.get(key)))
            for key in ("granted_nj", "refunded_nj")
        }
        counts = {
            key: check_int(f"token pool {key!r}", state.get(key), minimum=0)
            for key in (
                "grants", "refunds", "throttled", "degraded", "overdrafts",
            )
        }
        self._held = held
        self._resum()
        for key, value in {**totals, **counts}.items():
            setattr(self, key, value)
