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
  many observations arrive.  ``observe(*values)`` takes one value or a
  whole block; a block costs one call per estimator and ends in the
  same state as its values fed one at a time.

:meth:`MetricsRegistry.snapshot` returns a nested plain-dict view;
:meth:`MetricsRegistry.scalars` flattens it to ``name -> float`` (with
``histogram.field`` keys), which is what campaign workers ship back
across the fork pool for per-cell aggregation.
"""

from __future__ import annotations

import math
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

    def observe(self, *values: float) -> None:
        """Feed a block of observations, in order.

        The five marker heights, positions and desired positions live
        in local variables for the whole block, so ``n`` values cost one
        call instead of ``n``.  Each value runs the same floating-point
        operations in the same order as a one-value call, so any split
        of a sequence into blocks ends in the same state.
        """
        q = self._heights
        start = 0
        while len(q) < 5:
            # Exact regime: keep the sorted samples themselves.
            if start == len(values):
                return
            q.append(values[start])
            q.sort()
            start += 1
        if start == len(values):
            return
        if start:
            values = values[start:]
        q0, q1, q2, q3, q4 = q
        n0, n1, n2, n3, n4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        _, i1, i2, i3, i4 = self._increments
        for x in values:
            # Find the cell k (q[k] <= x < q[k+1]), widening the end
            # cells, and shift the positions of markers k+1..4.
            if x < q0:
                q0 = x
                n1 += 1
                n2 += 1
                n3 += 1
            elif x >= q4:
                q4 = x
            elif x >= q3:
                pass
            elif x >= q2:
                n3 += 1
            elif x >= q1:
                n2 += 1
                n3 += 1
            else:
                n1 += 1
                n2 += 1
                n3 += 1
            n4 += 1
            # desired[0] never moves: its increment is 0.0.
            d1 += i1
            d2 += i2
            d3 += i3
            d4 += i4
            # Adjust markers 1, 2, 3 in turn: a parabolic step when it
            # keeps the heights ordered, otherwise a linear one.
            d = d1 - n1
            if (d >= 1 and n2 - n1 > 1) or (d <= -1 and n0 - n1 < -1):
                step = 1 if d >= 0 else -1
                candidate = q1 + step / (n2 - n0) * (
                    (n1 - n0 + step) * (q2 - q1) / (n2 - n1)
                    + (n2 - n1 - step) * (q1 - q0) / (n1 - n0)
                )
                if q0 < candidate < q2:
                    q1 = candidate
                elif step > 0:
                    q1 = q1 + step * (q2 - q1) / (n2 - n1)
                else:
                    q1 = q1 + step * (q0 - q1) / (n0 - n1)
                n1 += step
            d = d2 - n2
            if (d >= 1 and n3 - n2 > 1) or (d <= -1 and n1 - n2 < -1):
                step = 1 if d >= 0 else -1
                candidate = q2 + step / (n3 - n1) * (
                    (n2 - n1 + step) * (q3 - q2) / (n3 - n2)
                    + (n3 - n2 - step) * (q2 - q1) / (n2 - n1)
                )
                if q1 < candidate < q3:
                    q2 = candidate
                elif step > 0:
                    q2 = q2 + step * (q3 - q2) / (n3 - n2)
                else:
                    q2 = q2 + step * (q1 - q2) / (n1 - n2)
                n2 += step
            d = d3 - n3
            if (d >= 1 and n4 - n3 > 1) or (d <= -1 and n2 - n3 < -1):
                step = 1 if d >= 0 else -1
                candidate = q3 + step / (n4 - n2) * (
                    (n3 - n2 + step) * (q4 - q3) / (n4 - n3)
                    + (n4 - n3 - step) * (q3 - q2) / (n3 - n2)
                )
                if q2 < candidate < q4:
                    q3 = candidate
                elif step > 0:
                    q3 = q3 + step * (q4 - q3) / (n4 - n3)
                else:
                    q3 = q3 + step * (q2 - q3) / (n2 - n3)
                n3 += step
        q[:] = (q0, q1, q2, q3, q4)
        self._positions = [n0, n1, n2, n3, n4]
        self._desired = [d0, d1, d2, d3, d4]

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
    """Streaming distribution summary: count/sum/min/max + quantiles,
    fed by ``observe(*values)``."""

    __slots__ = ("name", "count", "total", "min", "max", "_estimators")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._estimators = tuple(P2Quantile(p) for p in QUANTILES)

    def observe(self, *values: float) -> None:
        """Feed a block of observations, in order.

        Each value goes through ``float()``; count, sum, min and max
        fold in one pass, then every quantile estimator takes the whole
        block.  A non-finite value (or a sum that overflows) raises
        :class:`ValueError` naming the histogram, with its state
        untouched: one NaN would otherwise poison the sum, the mean and
        the P² markers for the rest of the stream.
        """
        block = []
        append = block.append
        total = self.total
        low = self.min
        high = self.max
        for value in values:
            value = float(value)
            append(value)
            total += value
            if value < low:
                low = value
            if value > high:
                high = value
        if not math.isfinite(total):
            bad = [v for v in block if not math.isfinite(v)]
            raise ValueError(
                f"histogram {self.name!r} takes finite values only, got "
                + (f"{bad[0]!r}" if bad else f"a sum of {total!r}")
            )
        self.count += len(block)
        self.total = total
        self.min = low
        self.max = high
        for estimator in self._estimators:
            estimator.observe(*block)

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
