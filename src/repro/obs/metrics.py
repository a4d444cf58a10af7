"""Metrics registry: counters, gauges and log-bucket histograms.

One API for every stage of the reproduction — the scheduler simulation,
the characterisation sweeps, predictor training and replication
campaigns all report through a :class:`MetricsRegistry`.  Instruments
are created on first use and live for the registry's lifetime:

* :class:`Counter` — monotonically increasing event counts;
* :class:`Gauge` — last-written point-in-time values;
* :class:`Histogram` — running count/sum/min/max plus p50/p90/p99 read
  from a sparse count per log-linear bucket, as HdrHistogram keeps
  them (https://hdrhistogram.github.io/HdrHistogram/):
  :data:`SUB_BUCKETS` buckets per power of two, so a quantile is within
  2**-8 (about 0.4 %) of an exact order statistic, and no samples are
  stored however many observations arrive.  ``observe(*values)`` takes
  one value or a whole block; the bucket counts do not depend on the
  order of the observations or on how blocks split them.

:meth:`MetricsRegistry.snapshot` returns a nested plain-dict view;
:meth:`MetricsRegistry.scalars` flattens it to ``name -> float`` (with
``histogram.field`` keys), which is what campaign workers ship back
across the fork pool for per-cell aggregation.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from contextlib import contextmanager
from itertools import accumulate, chain, islice
from typing import Dict, Iterator, List

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
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


#: Buckets per power of two.  A nonzero value ``x = m * 2**e`` (``m`` in
#: [0.5, 1), as :func:`math.frexp` splits it) falls in the bucket of
#: ``round(|m| * 256)``: its top eight significant bits, rounded to the
#: nearest.  Each bucket stands for the one value on that grid, which is
#: within ``2**-8 * |x|`` (about 0.4 %) of every value it holds, and
#: integers below 2**8 in magnitude are grid values, so exact.
SUB_BUCKETS = 128

#: A positive value's key adds ``_BIAS`` so that it is positive (frexp's
#: exponent goes down to -1073).
_BIAS = 1074 * SUB_BUCKETS
#: The keys of positive values run up to ``_MAX_KEY`` (``2**1024``,
#: where the largest floats round to); negative values take the negated
#: keys.
_MAX_KEY = _BIAS + 1026 * SUB_BUCKETS


def _representative(key: int) -> float:
    """The grid value bucket ``key`` stands for (the inverse of
    :meth:`Histogram.observe`'s key rule on grid values)."""
    if key == 0:
        return 0.0
    exponent, sub = divmod(abs(key) - _BIAS, SUB_BUCKETS)
    # Only _MAX_KEY's 2**1024 overflows; a quantile clamps it to max.
    value = (
        math.ldexp(SUB_BUCKETS + sub, exponent - 9)
        if abs(key) < _MAX_KEY else math.inf
    )
    return value if key > 0 else -value


#: Blocks of at least this many values go through numpy in
#: :meth:`Histogram._observe_block`; shorter ones take the per-value
#: loop, whose fixed cost is lower.  Set at the measured crossover (see
#: docs/performance.md, "The cost of the streaming statistics").
_NUMPY_BLOCK = 100

#: The quantiles every histogram reports (as p50 / p90 / p99).
QUANTILES = (0.5, 0.9, 0.99)


def _quantile_key(p: float) -> str:
    return f"p{p * 100:g}".replace(".", "_")


class Histogram:
    """Distribution summary: count/sum/min/max + log-bucket quantiles,
    fed by ``observe(*values)``.

    Values are floats: ``observe`` passes each through ``float()``.
    Zero has a bucket of its own; a negative value goes to the mirror
    image of its magnitude's bucket; fractions get the same relative
    resolution as large values (see :data:`SUB_BUCKETS`).  The
    p-quantile is the grid value of the bucket holding the observation
    of rank ``round(p * (count - 1))`` in sorted order (0-based, halves
    up), clamped to ``[min, max]``.  So every quantile is within
    ``2**-8`` of that observation, relative to its magnitude; the
    quantiles are monotone in ``p``; and the bucket counts, count, min,
    max and quantiles depend only on the multiset of observations, not
    on their order or block split.  The float ``sum`` adds the values in
    the order given, so it is order-free exactly when the sum is exact
    (integer values summing below 2**53, like cycle counts).
    """

    __slots__ = ("name", "count", "total", "min", "max", "_counts", "_keys")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        #: bucket key -> observations in it
        self._counts: Dict[int, int] = {}
        #: the keys of ``_counts`` sorted, brought up to date by the
        #: next quantile read after a new key appears
        self._keys: List[int] = []

    def observe(self, *values: float) -> None:
        """Feed a block of observations.

        Each value goes through ``float()``; count, sum, min and max
        fold in one pass, then each value's bucket count goes up by one.
        A non-finite value (or a sum that overflows) raises
        :class:`ValueError` naming the histogram, with its state
        untouched: one NaN would otherwise poison the sum and the mean
        for the rest of the stream.

        A block of :data:`_NUMPY_BLOCK` values or more takes
        :meth:`_observe_block`'s numpy pass, which ends in the same
        state, bit for bit.
        """
        if len(values) >= _NUMPY_BLOCK:
            return self._observe_block(values)
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
            raise self._refusal(
                [v for v in block if not math.isfinite(v)], total
            )
        self.count += len(block)
        self.total = total
        self.min = low
        self.max = high
        # Blocks this short are mostly one value: the constants are read
        # where they are used, not bound to locals first.
        counts = self._counts
        frexp = math.frexp
        for value in block:
            # The key: 0 for zero, and for x != 0 one with the sign of
            # x, ordered as the values are, so sorted keys walk the
            # distribution from low to high.
            if value > 0.0:
                m, e = frexp(value)
                key = e * SUB_BUCKETS + int(m * 256.0 + 0.5) + _BIAS
            elif value < 0.0:
                m, e = frexp(value)
                key = int(m * 256.0 - 0.5) - e * SUB_BUCKETS - _BIAS
            else:
                key = 0
            counts[key] = counts.get(key, 0) + 1

    def _observe_block(self, values: tuple) -> None:
        """:meth:`observe`'s loop as numpy passes over a long block.

        Each step keeps the loop's float semantics: the sum folds left
        to right from the running total (``add.accumulate``; builtin
        ``sum`` compensates from Python 3.12 and ``np.sum`` adds
        pairwise), min and max are the first occurrence of the extreme
        and replace the old one only when strictly beyond it (so a
        signed zero ends as the loop leaves it), and the keys follow the
        loop's rounding, which truncates toward zero on both signs.
        """
        n = len(values)
        # Slot 0 seeds the fold with the running total.
        column = np.fromiter(
            chain((self.total,), map(float, values)), np.float64, n + 1
        )
        block = column[1:]
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.accumulate(column)[-1].item()
        if not math.isfinite(total):
            raise self._refusal(block[~np.isfinite(block)].tolist(), total)
        self.count += n
        self.total = total
        low = block[block.argmin()].item()
        if low < self.min:
            self.min = low
        high = block[block.argmax()].item()
        if high > self.max:
            self.max = high
        # x = m * 2**e: the loop's rounded mantissa bits (m * 256 -/+
        # 0.5, truncated toward zero) plus the exponent's offset with
        # the sign of x; zero (m = 0, e = 0) gets key 0.  Every term is
        # an integer below 2**53, so the float arithmetic is exact.
        mantissa, exponent = np.frexp(block)
        keys = np.trunc(mantissa * 256.0 + np.copysign(0.5, mantissa))
        keys += np.sign(mantissa) * (exponent * float(SUB_BUCKETS) + _BIAS)
        unique, repeats = np.unique(keys.astype(np.int64), return_counts=True)
        counts = self._counts
        get = counts.get
        for key, count in zip(unique.tolist(), repeats.tolist()):
            counts[key] = get(key, 0) + count

    def _refusal(self, bad: List[float], total: float) -> ValueError:
        """The error for a block with non-finite values ``bad`` (named
        by the first) or, when there are none, an overflowing sum."""
        return ValueError(
            f"histogram {self.name!r} takes finite values only, got "
            + (f"{bad[0]!r}" if bad else f"a sum of {total!r}")
        )

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def _quantiles(self) -> List[float]:
        """The values of :data:`QUANTILES`, in order (zeros when empty)."""
        if not self.count:
            return [0.0] * len(QUANTILES)
        counts = self._counts
        keys = self._keys
        if len(keys) != len(counts):
            # Keys are never removed, and a dict keeps insertion order:
            # the new ones are the tail.  Sorting a sorted run plus a
            # short tail is a merge.
            keys.extend(islice(counts, len(keys), None))
            keys.sort()
        # below[i]: observations in the buckets up to keys[i]
        below = list(accumulate(map(counts.__getitem__, keys)))
        last = self.count - 1
        values = []
        for p in QUANTILES:
            rank = int(p * last + 0.5)
            value = _representative(keys[bisect_right(below, rank)])
            values.append(min(max(value, self.min), self.max))
        return values

    def quantile(self, p: float) -> float:
        """The current value of one of :data:`QUANTILES`."""
        if p not in QUANTILES:
            raise KeyError(f"histogram {self.name!r} does not track p={p}")
        return self._quantiles()[QUANTILES.index(p)]

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict summary of the distribution so far.

        Costs one pass over the nonempty buckets (about 2,000 for a
        million-job stream's waiting times); the sorted keys are kept
        between calls and merged with any new ones.
        """
        empty = self.count == 0
        summary: Dict[str, float] = {
            "count": float(self.count),
            "sum": self.total,
            "mean": self.mean,
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
        }
        for p, value in zip(QUANTILES, self._quantiles()):
            summary[_quantile_key(p)] = value
        return summary


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
