"""Counters, gauges, log-bucket histograms and the registry."""

import json
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OraclePredictor, make_policy, paper_system
from repro.experiment import default_store
from repro.obs.metrics import (
    _NUMPY_BLOCK,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads import PoissonProcess, eembc_suite

from tests.oracles import SampleOracle


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


def _state(histogram: Histogram) -> dict:
    """Everything a histogram holds: its scalars and bucket counts."""
    return {
        "count": histogram.count, "total": histogram.total,
        "min": histogram.min, "max": histogram.max,
        "buckets": sorted(histogram._counts.items()),
    }


def _one_by_one(values) -> Histogram:
    """A histogram fed ``values`` one per call (the per-value loop)."""
    histogram = Histogram("h")
    for value in values:
        histogram.observe(value)
    return histogram


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
    # The observation of rank round(0.5 * 3) = 2 (halves up), exact:
    # integers below 2**8 have buckets of their own.
    assert histogram.quantile(0.5) == 3.0
    with pytest.raises(KeyError):
        histogram.quantile(0.42)


#: Finite observations with heavy tails: floats from subnormal to 1e300
#: in magnitude (few enough per list that no sum overflows), integers,
#: and a pool of repeated values, negatives and zeros among them, so
#: ties are common.
_VALUES = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.integers(min_value=-10**6, max_value=10**6),
    st.sampled_from([-3.0, -1, 0, 0.0, -0.0, 2.5, 7, 7.0, 1e-9]),
)

_SEQUENCES = st.one_of(
    st.lists(_VALUES, max_size=3 * _NUMPY_BLOCK),
    # A long run of one value between two random stretches.
    st.tuples(
        st.lists(_VALUES, max_size=40),
        _VALUES,
        st.integers(min_value=0, max_value=3 * _NUMPY_BLOCK),
        st.lists(_VALUES, max_size=40),
    ).map(lambda t: t[0] + [t[1]] * t[2] + t[3]),
)

#: A block length on either side of the cut-off between
#: ``Histogram.observe``'s per-value loop and its numpy pass.
_BLOCK_LENGTHS = st.one_of(
    st.integers(min_value=1, max_value=_NUMPY_BLOCK - 1),
    st.integers(min_value=_NUMPY_BLOCK, max_value=2 * _NUMPY_BLOCK),
)


def _fed_in_blocks(values, data, read=None) -> Histogram:
    """A histogram fed ``values`` in blocks of lengths ``data`` draws,
    short and long; ``read(histogram, fed)`` runs after each block."""
    histogram = Histogram("h")
    lo = 0
    while lo < len(values):
        hi = min(lo + data.draw(_BLOCK_LENGTHS), len(values))
        histogram.observe(*values[lo:hi])
        if read is not None:
            read(histogram, hi)
        lo = hi
    return histogram


def _assert_quantiles_ordered(snapshot):
    if snapshot["count"]:
        assert snapshot["min"] <= snapshot["p50"] <= snapshot["p90"]
        assert snapshot["p90"] <= snapshot["p99"] <= snapshot["max"]


@settings(deadline=None)
@given(values=_SEQUENCES, data=st.data())
def test_histogram_block_feed_matches_per_value_oracle(values, data):
    """Any split of any sequence into blocks ends where one value per
    call ends; after every block, count/sum/min/max equal the exact
    sample's, and each quantile is within the stated bound of its order
    statistic."""
    def read(histogram, fed):
        snapshot = histogram.snapshot()
        assert SampleOracle(values[:fed]).mismatches(snapshot) == []
        _assert_quantiles_ordered(snapshot)

    histogram = _fed_in_blocks(values, data, read)
    assert json.dumps(_state(histogram)) == json.dumps(
        _state(_one_by_one(values))
    )


@settings(deadline=None)
@given(
    values=_SEQUENCES,
    ints=st.lists(st.integers(min_value=-10**9, max_value=10**9),
                  max_size=200),
    data=st.data(),
)
def test_histogram_ignores_order_and_block_split(values, ints, data):
    """Shuffled and split differently, a sequence leaves the same bucket
    counts, count, min, max and quantiles; the float sum too when it is
    exact, as a sum of integers is."""
    straight = Histogram("h")
    straight.observe(*values)
    shuffled = _fed_in_blocks(data.draw(st.permutations(values)), data)
    scalars = ("count", "min", "max", "buckets")
    assert {k: _state(shuffled)[k] for k in scalars} == {
        k: _state(straight)[k] for k in scalars
    }
    assert {
        k: v for k, v in shuffled.snapshot().items()
        if k not in ("sum", "mean")
    } == {
        k: v for k, v in straight.snapshot().items()
        if k not in ("sum", "mean")
    }

    straight = Histogram("h")
    straight.observe(*ints)
    shuffled = _fed_in_blocks(data.draw(st.permutations(ints)), data)
    assert _state(shuffled) == _state(straight)
    assert shuffled.snapshot() == straight.snapshot()


def _inside_a_long_block(values):
    """``values`` amid padding, so that one ``observe`` call takes the
    numpy pass."""
    pad = [1.0] * (_NUMPY_BLOCK // 2)
    return pad + list(values) + pad


def _short_and_long(argname, cases, ids):
    """Parametrize ``argname`` over ``cases`` in a short block, under
    ``ids``, and inside a long one (the numpy pass), under ``<id>-long``;
    ``block`` makes the block from a case."""
    return pytest.mark.parametrize(
        f"{argname},block",
        [(case, list) for case in cases]
        + [(case, _inside_a_long_block) for case in cases],
        ids=list(ids) + [f"{id_}-long" for id_ in ids],
    )


@_short_and_long("values", [
    [sys.float_info.max],
    [-sys.float_info.max, sys.float_info.max],
    [-5e-324, 0.0, -0.0, 5e-324],
], ids=["largest", "both-signs", "subnormal"])
def test_histogram_holds_the_float_extremes(values, block):
    """The largest floats round to 2**1024, which no float holds: the
    quantile clamps to ``max``."""
    values = block(values)
    histogram = Histogram("h")
    histogram.observe(*values)
    snapshot = histogram.snapshot()
    assert SampleOracle(values).mismatches(snapshot) == []
    assert json.dumps(_state(histogram)) == json.dumps(
        _state(_one_by_one(values))
    )


def _ar1(count, phi, seed):
    """An autocorrelated AR(1) walk mapped through ``exp``, so it is
    heavy-tailed and trends for long stretches, like queueing waits."""
    rng = random.Random(seed)
    level = 0.0
    values = []
    for _ in range(count):
        level = phi * level + rng.gauss(0.0, 1.0)
        values.append(math.exp(level / 4) * 1e5)
    return values


@pytest.mark.parametrize("values", [
    _ar1(20_000, 0.999, seed=5),
    sorted(_ar1(20_000, 0.9, seed=6)),
    sorted(_ar1(20_000, 0.9, seed=7), reverse=True),
], ids=["ar1", "rising", "falling"])
def test_histogram_is_exact_within_bound_on_trending_input(values):
    """Trending input, which drove P² markers off (p99 below p90 on a
    stream's waits), changes nothing for bucket counts."""
    histogram = Histogram("h")
    for lo in range(0, len(values), 4096):
        histogram.observe(*values[lo:lo + 4096])
    snapshot = histogram.snapshot()
    assert SampleOracle(values).mismatches(snapshot) == []
    _assert_quantiles_ordered(snapshot)


@pytest.fixture(scope="module")
def stream_steady_shape():
    """A retained stream of the benchmark's ``stream-steady`` shape
    (``proposed``, seed 1, Poisson gap 56k cycles), with the oracle
    predictor and 10,000 jobs.  P² read p90 3.58M and p99 4.48M cycles
    on it; the exact values are about 1.47M and 4.64M."""
    store = default_store(cache_path=None)
    return StreamingSimulation(
        paper_system(), make_policy("proposed"), store,
        predictor=OraclePredictor(store),
        config=StreamConfig(max_jobs=10_000, retain_jobs=True),
    ).run(PoissonProcess(
        eembc_suite(), mean_interarrival_cycles=56_000, seed=1
    ))


def test_stream_waiting_quantiles_are_exact_within_bound(
    stream_steady_shape,
):
    waits = [job.waiting_cycles for job in stream_steady_shape.sim_result.jobs]
    assert SampleOracle(waits).mismatches(stream_steady_shape.waiting) == []
    _assert_quantiles_ordered(stream_steady_shape.waiting)


def test_stream_waits_end_alike_in_blocks_and_one_by_one(
    stream_steady_shape,
):
    """The stream's waits fed in its blocks of 4096 and one per call
    leave the same count, sum, min, max and bucket counts."""
    waits = [job.waiting_cycles for job in stream_steady_shape.sim_result.jobs]
    blocks = Histogram("h")
    for lo in range(0, len(waits), 4096):
        blocks.observe(*waits[lo:lo + 4096])
    assert _state(blocks) == _state(_one_by_one(waits))


def test_histogram_sum_folds_left_to_right():
    """The sum adds each value to the running total in order, in a long
    block too: 2**-53 is half an ulp of 1.0, so every addition rounds
    back to 1.0, where a pairwise or compensated sum would not."""
    values = [1.0] + [2.0 ** -53] * (2 * _NUMPY_BLOCK)
    histogram = Histogram("h")
    histogram.observe(*values)
    assert histogram.total == _one_by_one(values).total == 1.0


@pytest.mark.parametrize("zeros,sign", [
    ([0.0, -0.0], 1.0),
    ([-0.0, 0.0], -1.0),
], ids=["positive-first", "negative-first"])
def test_histogram_min_and_max_keep_the_first_signed_zero(zeros, sign):
    """Zeros compare equal, so min and max keep the first one seen, in
    a block or across blocks, as the per-value loop does."""
    first, other = zeros
    for feed in (
        [[first, other] * _NUMPY_BLOCK],
        [[first], [other, first] * _NUMPY_BLOCK],
    ):
        histogram = Histogram("h")
        for block in feed:
            histogram.observe(*block)
        assert math.copysign(1.0, histogram.min) == sign
        assert math.copysign(1.0, histogram.max) == sign


def test_histogram_negative_keys_round_toward_zero():
    """A negative value's key is its magnitude's key negated: the
    numpy pass rounds ``m * 256 - 0.5`` toward zero, as the loop's
    ``int`` does."""
    values = [-(1.0 + i / 7) * 10.0 ** (i % 9) for i in range(_NUMPY_BLOCK)]
    block = Histogram("h")
    block.observe(*values)
    mirror = Histogram("h")
    mirror.observe(*(-value for value in values))
    assert _state(block) == _state(_one_by_one(values))
    assert sorted(block._counts.items()) == sorted(
        (-key, count) for key, count in mirror._counts.items()
    )


def test_histogram_empty_block_is_a_no_op():
    histogram = Histogram("h")
    histogram.observe(3.0, 1.0)
    before = _state(histogram)
    histogram.observe()
    assert _state(histogram) == before


@_short_and_long(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
def test_histogram_rejects_non_finite_values(bad, block):
    """A non-finite value raises, names the histogram and the first bad
    value, and changes nothing: the histogram goes on as if it had never
    been offered."""
    first = [12.0 + i / 1000 for i in range(10)]
    rest = [12.0, 11.999, 12.001, 12.0, 12.0]
    histogram = Histogram("latency")
    for value in first:
        histogram.observe(value)
    before = _state(histogram)
    message = re.escape(
        f"histogram 'latency' takes finite values only, got {bad!r}"
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        histogram.observe(*block([bad]))
    with pytest.raises(ValueError, match=f"^{message}$"):
        histogram.observe(*block([1.0, bad, 2.0, -bad, math.nan]))
    assert _state(histogram) == before
    histogram.observe(*rest)

    clean = Histogram("latency")
    clean.observe(*first, *rest)
    assert _state(histogram) == _state(clean)
    assert histogram.snapshot() == clean.snapshot()
    assert math.isfinite(histogram.snapshot()["mean"])


def test_histogram_rejects_an_overflowing_sum():
    """In a short block and inside a long one; the second sum is back
    in range in any other order of addition, but folded left to right
    it stays at inf."""
    histogram = Histogram("h")
    histogram.observe(3.0, -2.0)
    before = _state(histogram)
    for values in ([1e308, 1e308], [1e308, 1e308, -1e308, -1e308]):
        for block in (list, _inside_a_long_block):
            with pytest.raises(ValueError, match=(
                r"^histogram 'h' takes finite values only, got a sum of inf$"
            )):
                histogram.observe(*block(values))
    assert _state(histogram) == before


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
