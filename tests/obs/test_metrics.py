"""Counters, gauges, P² streaming quantiles and the registry."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
)

from tests.oracles import HistogramOracle


def test_counter():
    counter = Counter("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge():
    gauge = Gauge("g")
    assert gauge.value == 0.0
    gauge.set(3)
    gauge.set(1.5)
    assert gauge.value == 1.5


def test_p2_rejects_bad_quantile():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


def test_p2_exact_under_five_samples():
    estimator = P2Quantile(0.5)
    assert estimator.value == 0.0
    estimator.observe(10.0)
    assert estimator.value == 10.0
    estimator.observe(20.0)
    assert estimator.value == 15.0  # interpolated median of {10, 20}
    estimator.observe(30.0)
    assert estimator.value == 20.0


def test_p2_converges_on_uniform():
    rng = random.Random(7)
    samples = [rng.random() for _ in range(20_000)]
    for p in (0.5, 0.9, 0.99):
        estimator = P2Quantile(p)
        for x in samples:
            estimator.observe(x)
        exact = sorted(samples)[int(p * len(samples))]
        assert estimator.value == pytest.approx(exact, abs=0.02)


def test_p2_is_deterministic():
    rng = random.Random(3)
    samples = [rng.gauss(0, 1) for _ in range(5000)]

    def run():
        estimator = P2Quantile(0.9)
        for x in samples:
            estimator.observe(x)
        return estimator.value

    assert run() == run()


def test_p2_heavy_duplicates():
    """Long runs of identical values must not divide by zero or drift.

    Duplicate-heavy streams are the classic P² killer: adjacent markers
    collapse onto the same height and naive implementations divide by a
    zero position gap in the parabolic step.
    """
    estimator = P2Quantile(0.9)
    for _ in range(10_000):
        estimator.observe(7.0)
    assert estimator.value == 7.0
    assert estimator.count == 10_000

    # Duplicates with a sprinkle of outliers: estimate stays on the
    # dominant value (90% of mass IS 5.0).
    mixed = P2Quantile(0.5)
    rng = random.Random(11)
    for _ in range(20_000):
        mixed.observe(5.0 if rng.random() < 0.9 else 100.0)
    assert mixed.value == pytest.approx(5.0, abs=1e-6)


def test_p2_marker_heights_stay_monotone():
    """q0 <= q1 <= q2 <= q3 <= q4 after every observation.

    The marker heights are order statistics of the stream; the
    parabolic/linear adjustment must never let one cross a neighbour.
    """
    rng = random.Random(13)
    estimator = P2Quantile(0.9)
    for i in range(30_000):
        # A nasty mix: heavy tails, duplicates and constants.
        bucket = i % 4
        if bucket == 0:
            x = rng.gauss(0, 1)
        elif bucket == 1:
            x = rng.expovariate(1e-3)
        elif bucket == 2:
            x = 42.0
        else:
            x = rng.random()
        estimator.observe(x)
        q = estimator._heights
        if len(q) == 5:
            assert q[0] <= q[1] <= q[2] <= q[3] <= q[4], i
            n = estimator._positions
            assert n[0] < n[1] < n[2] < n[3] < n[4], i


def test_p2_tiny_sample_exactness():
    """With fewer than five samples the estimate is the exact
    linear-interpolated quantile, for every p, in any feed order."""
    samples = [3.0, 1.0, 4.0, 1.5]
    for p in (0.25, 0.5, 0.75, 0.9):
        estimator = P2Quantile(p)
        for x in samples:
            estimator.observe(x)
        data = sorted(samples)
        rank = p * (len(data) - 1)
        low = int(rank)
        exact = data[low] + (data[low + 1] - data[low]) * (rank - low)
        assert estimator.value == exact
        assert estimator.count == 4


def test_p2_snapshot_is_merge_free():
    """snapshot() reads without perturbing: the estimate sequence is
    identical whether or not snapshots are interleaved."""
    rng = random.Random(5)
    samples = [rng.gauss(10, 3) for _ in range(4_000)]

    plain = P2Quantile(0.9)
    for x in samples:
        plain.observe(x)

    snapshotted = P2Quantile(0.9)
    views = []
    for i, x in enumerate(samples):
        snapshotted.observe(x)
        if i % 7 == 0:
            views.append(snapshotted.snapshot())

    assert snapshotted.value == plain.value
    assert snapshotted.state_dict() == plain.state_dict()
    last = views[-1]
    assert last["p"] == 0.9
    assert last["count"] == 3998.0  # last i with i % 7 == 0 is 3997
    # Snapshots are plain floats (windowed reporting serialises them).
    assert all(isinstance(v, float) for v in last.values())


def test_p2_state_round_trip_continues_bit_identically():
    """Checkpoint mid-stream, restore, and the tail of the stream
    produces the same estimate as the uninterrupted run."""
    rng = random.Random(17)
    samples = [rng.expovariate(0.01) for _ in range(6_000)]

    straight = P2Quantile(0.99)
    for x in samples:
        straight.observe(x)

    first = P2Quantile(0.99)
    for x in samples[:2_500]:
        first.observe(x)
    import json
    state = json.loads(json.dumps(first.state_dict()))

    resumed = P2Quantile(0.99)
    resumed.load_state(state)
    for x in samples[2_500:]:
        resumed.observe(x)

    assert resumed.value == straight.value
    assert resumed.state_dict() == straight.state_dict()


def test_p2_load_state_rejects_wrong_quantile():
    donor = P2Quantile(0.5)
    donor.observe(1.0)
    estimator = P2Quantile(0.9)
    with pytest.raises(ValueError, match="p=0.5"):
        estimator.load_state(donor.state_dict())


def test_histogram_state_round_trip():
    rng = random.Random(23)
    samples = [rng.gauss(50, 20) for _ in range(3_000)]

    straight = Histogram("h")
    for x in samples:
        straight.observe(x)

    first = Histogram("h")
    for x in samples[:1_000]:
        first.observe(x)
    resumed = Histogram("h")
    resumed.load_state(first.state_dict())
    for x in samples[1_000:]:
        resumed.observe(x)

    assert resumed.snapshot() == straight.snapshot()
    assert resumed.state_dict() == straight.state_dict()


def test_histogram_load_state_rejects_estimator_mismatch():
    donor = Histogram("h")
    donor.observe(1.0)
    state = donor.state_dict()
    state["estimators"] = state["estimators"][:1]
    histogram = Histogram("h")
    with pytest.raises(ValueError, match="estimators"):
        histogram.load_state(state)


@pytest.mark.parametrize("key,value,message", [
    ("count", "x", "'count'"),
    ("count", -1, "'count'"),
    ("total", None, "'total'"),
    ("min", "x", "'min'"),
    ("estimators", None, "'estimators'"),
])
def test_histogram_load_state_checks_every_field_first(key, value, message):
    donor = Histogram("h")
    donor.observe(1.0, 2.0)
    histogram = Histogram("h")
    before = histogram.state_dict()
    with pytest.raises(ValueError, match=re.escape(message)):
        histogram.load_state({**donor.state_dict(), key: value})
    assert histogram.state_dict() == before


@pytest.mark.parametrize("key,value", [
    ("heights", [1.0, "x"]),
    ("heights", [0.0] * 6),
    ("positions", [1, 2, 3, 4]),
    ("positions", [1, 2, 3, 4, 5.5]),
    ("desired", None),
])
def test_p2_load_state_checks_every_field_first(key, value):
    donor = P2Quantile(0.5)
    donor.observe(*range(10))
    estimator = P2Quantile(0.5)
    before = estimator.state_dict()
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        estimator.load_state({**donor.state_dict(), key: value})
    assert estimator.state_dict() == before


def test_histogram_snapshot():
    histogram = Histogram("h")
    empty = histogram.snapshot()
    assert empty == {
        "count": 0.0, "sum": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p90": 0.0, "p99": 0.0,
    }
    for value in (4, 1, 3, 2):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == 10.0
    assert snap["mean"] == 2.5
    assert snap["min"] == 1.0
    assert snap["max"] == 4.0
    assert histogram.quantile(0.5) == 2.5
    with pytest.raises(KeyError):
        histogram.quantile(0.42)


#: Observation values: ints and floats, with a small pool of repeated
#: values (negatives and zero among them) so ties are common.
_VALUES = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    st.sampled_from([-3.0, -1, 0, 0.0, 2.5, 7, 7.0]),
)

_SEQUENCES = st.one_of(
    # Fewer than five values: the exact-interpolation regime.
    st.lists(_VALUES, max_size=5),
    st.lists(_VALUES, min_size=6, max_size=600),
    # A long run of one value between two random stretches.
    st.tuples(
        st.lists(_VALUES, max_size=40),
        _VALUES,
        st.integers(min_value=0, max_value=300),
        st.lists(_VALUES, max_size=40),
    ).map(lambda t: t[0] + [t[1]] * t[2] + t[3]),
)


@settings(max_examples=150, deadline=None)
@given(values=_SEQUENCES, data=st.data())
def test_histogram_block_feed_matches_per_value_oracle(values, data):
    """Any split of any sequence into blocks ends where the per-value
    update (tests/oracles.py) ends, down to every marker."""
    cuts = sorted(data.draw(st.lists(
        st.integers(min_value=0, max_value=len(values)), max_size=12
    )))
    bounds = [0] + cuts + [len(values)]
    histogram = Histogram("h")
    for lo, hi in zip(bounds, bounds[1:]):
        histogram.observe(*values[lo:hi])

    oracle = HistogramOracle()
    for value in values:
        oracle.observe(value)

    assert json.dumps(histogram.state_dict()) == json.dumps(
        oracle.state_dict()
    )
    assert histogram.snapshot() == oracle.snapshot()


def test_histogram_empty_block_is_a_no_op():
    histogram = Histogram("h")
    histogram.observe(3.0, 1.0)
    before = histogram.state_dict()
    histogram.observe()
    assert histogram.state_dict() == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_histogram_rejects_non_finite_values(bad):
    """A non-finite value raises, names the histogram and changes
    nothing: the histogram goes on as if it had never been offered."""
    first = [12.0 + i / 1000 for i in range(10)]
    rest = [12.0, 11.999, 12.001, 12.0, 12.0]
    histogram = Histogram("latency")
    for value in first:
        histogram.observe(value)
    before = histogram.state_dict()
    with pytest.raises(ValueError, match="'latency'"):
        histogram.observe(bad)
    with pytest.raises(ValueError, match="'latency'"):
        histogram.observe(1.0, bad, 2.0)
    assert histogram.state_dict() == before
    histogram.observe(*rest)

    clean = Histogram("latency")
    clean.observe(*first, *rest)
    assert histogram.state_dict() == clean.state_dict()
    assert histogram.snapshot() == clean.snapshot()
    assert math.isfinite(histogram.snapshot()["mean"])


def test_histogram_rejects_an_overflowing_sum():
    histogram = Histogram("h")
    with pytest.raises(ValueError, match="sum"):
        histogram.observe(1e308, 1e308)
    assert histogram.count == 0


def test_registry_create_on_first_use():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")


def test_registry_snapshot_and_scalars():
    registry = MetricsRegistry()
    registry.counter("jobs").inc(3)
    registry.gauge("rate").set(0.75)
    registry.histogram("wait").observe(10)
    registry.histogram("wait").observe(30)

    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"jobs": 3}
    assert snapshot["gauges"] == {"rate": 0.75}
    assert snapshot["histograms"]["wait"]["mean"] == 20.0

    scalars = registry.scalars()
    assert scalars["jobs"] == 3.0
    assert scalars["rate"] == 0.75
    assert scalars["wait.count"] == 2.0
    assert scalars["wait.mean"] == 20.0
    assert all(isinstance(v, float) for v in scalars.values())


def test_registry_span_times_blocks():
    registry = MetricsRegistry()
    with registry.span("work"):
        pass
    snap = registry.histogram("work_seconds").snapshot()
    assert snap["count"] == 1
    assert snap["max"] >= 0.0
