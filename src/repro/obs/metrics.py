"""Metrics registry: counters, gauges and streaming histograms.

One API for every stage of the reproduction — the scheduler simulation,
the characterisation sweeps, predictor training and replication
campaigns all report through a :class:`MetricsRegistry`.  Instruments
are created on first use and live for the registry's lifetime:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — last-written point-in-time values;
* :class:`Histogram` — running count/sum/min/max plus streaming
  quantile estimates (p50/p90/p99) via the P² algorithm
  [Jain & Chlamtac 1985], so no samples are stored regardless of how
  many observations arrive.

:meth:`MetricsRegistry.snapshot` returns a nested plain-dict view;
:meth:`MetricsRegistry.scalars` flattens it to ``name -> float`` (with
``histogram.field`` keys), which is what campaign workers ship back
across the fork pool for per-cell aggregation.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


class P2Quantile:
    """Streaming estimate of one quantile (the P² algorithm).

    Keeps five markers instead of the sample set; the estimate converges
    to the true quantile as observations accumulate and is exact while
    fewer than five samples have been seen.  Fully deterministic for a
    fixed observation sequence.
    """

    __slots__ = ("p", "_heights", "_positions", "_desired", "_increments")

    def __init__(self, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError("quantile must be in (0, 1)")
        self.p = p
        self._heights: List[float] = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1 + 2 * p, 1 + 4 * p, 3 + 2 * p, 5.0]
        self._increments = [0.0, p / 2, p, (1 + p) / 2, 1.0]

    def observe(self, x: float) -> None:
        """Feed one observation."""
        q = self._heights
        if len(q) < 5:
            q.append(x)
            q.sort()
            return
        n = self._positions
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            for i in range(1, 4):
                if x >= q[i]:
                    k = i
        for i in range(k + 1, 5):
            n[i] += 1
        desired = self._desired
        for i in range(5):
            desired[i] += self._increments[i]
        for i in (1, 2, 3):
            d = desired[i] - n[i]
            if (d >= 1 and n[i + 1] - n[i] > 1) or (
                d <= -1 and n[i - 1] - n[i] < -1
            ):
                step = 1 if d >= 0 else -1
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, d: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + d / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, d: int) -> float:
        q, n = self._heights, self._positions
        return q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])

    @property
    def value(self) -> float:
        """Current estimate (0.0 before any observation)."""
        q = self._heights
        if not q:
            return 0.0
        if len(q) < 5:
            # Exact linear-interpolated quantile of the few samples.
            rank = self.p * (len(q) - 1)
            low = int(rank)
            high = min(low + 1, len(q) - 1)
            return q[low] + (q[high] - q[low]) * (rank - low)
        return q[2]

    @property
    def count(self) -> int:
        """Observations fed so far."""
        q = self._heights
        return len(q) if len(q) < 5 else self._positions[4]

    def snapshot(self) -> Dict[str, float]:
        """Cheap point-in-time view: ``{p, count, value}``.

        Reads the current marker state without merging, copying or
        touching the estimator, so periodic window reporting can call
        it at any cadence with O(1) cost and zero perturbation of the
        stream.
        """
        return {
            "p": self.p,
            "count": float(self.count),
            "value": self.value,
        }

    def state_dict(self) -> dict:
        """Full estimator state, JSON-serialisable and exact.

        Every field (marker heights, integer positions, fractional
        desired positions) round-trips bit-exactly through
        :meth:`load_state`, so a checkpointed estimator continues the
        stream as if never interrupted.
        """
        return {
            "p": self.p,
            "heights": list(self._heights),
            "positions": list(self._positions),
            "desired": list(self._desired),
        }

    def load_state(self, state: dict) -> None:
        """Restore the exact state captured by :meth:`state_dict`."""
        if state["p"] != self.p:
            raise ValueError(
                f"state is for p={state['p']}, estimator tracks p={self.p}"
            )
        self._heights = [float(x) for x in state["heights"]]
        self._positions = [int(x) for x in state["positions"]]
        self._desired = [float(x) for x in state["desired"]]


#: The quantiles every histogram tracks (reported as p50 / p90 / p99).
QUANTILES = (0.5, 0.9, 0.99)


def _quantile_key(p: float) -> str:
    return f"p{p * 100:g}".replace(".", "_")


class Histogram:
    """Streaming distribution summary: count/sum/min/max + quantiles."""

    __slots__ = ("name", "count", "total", "min", "max", "_estimators")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._estimators = tuple(P2Quantile(p) for p in QUANTILES)

    def observe(self, value: float) -> None:
        """Feed one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for estimator in self._estimators:
            estimator.observe(value)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, p: float) -> float:
        """Current estimate for one of :data:`QUANTILES`."""
        for estimator in self._estimators:
            if estimator.p == p:
                return estimator.value
        raise KeyError(f"histogram {self.name!r} does not track p={p}")

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict summary of the distribution so far."""
        empty = self.count == 0
        summary: Dict[str, float] = {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
        }
        for estimator in self._estimators:
            summary[_quantile_key(estimator.p)] = estimator.value
        return summary

    def state_dict(self) -> dict:
        """Exact JSON-serialisable state (for checkpoint/resume)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "estimators": [e.state_dict() for e in self._estimators],
        }

    def load_state(self, state: dict) -> None:
        """Restore the exact state captured by :meth:`state_dict`."""
        estimators = state["estimators"]
        if len(estimators) != len(self._estimators):
            raise ValueError(
                f"state has {len(estimators)} estimators, histogram "
                f"{self.name!r} tracks {len(self._estimators)}"
            )
        self.count = int(state["count"])
        self.total = float(state["total"])
        self.min = float(state["min"])
        self.max = float(state["max"])
        for estimator, sub in zip(self._estimators, estimators):
            estimator.load_state(sub)


class MetricsRegistry:
    """Create-on-first-use registry of named instruments."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created at zero on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created at zero on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created empty on first use)."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the ``<name>_seconds`` histogram."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(f"{name}_seconds").observe(
                time.perf_counter() - start
            )

    # -- views ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Nested plain-dict view of every instrument (sorted names)."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }

    def scalars(self) -> Dict[str, float]:
        """Flat ``name -> value`` view (histogram fields dot-suffixed).

        This is the exchange format campaign workers return across the
        process pool; every value is a plain float, so the dict pickles
        cheaply and aggregates uniformly.
        """
        flat: Dict[str, float] = {}
        for name in sorted(self._counters):
            flat[name] = float(self._counters[name].value)
        for name in sorted(self._gauges):
            flat[name] = self._gauges[name].value
        for name in sorted(self._histograms):
            for field, value in self._histograms[name].snapshot().items():
                flat[f"{name}.{field}"] = value
        return flat
