"""The power gate's ladder walk and the pool's stored sums, against
the oracles in tests/oracles.py.

* :func:`~repro.power.budget.degradation_ladder` plus
  :func:`~repro.power.budget.pick_degraded` pick the same option as a
  full scan over the unsorted candidates, for random rows (tied prices,
  missing configs, pinned one-config ladders, partial fractions) and
  random pools (held grants, global and cluster caps, deadlines, slack);
* after any sequence of grants, refunds, settlements and state loads,
  the pool's stored outstanding totals equal a fresh ``math.fsum`` over
  its held grants, bit for bit.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power.budget import (
    PowerConfig,
    TokenPool,
    degradation_ladder,
    nominal_prices,
    pick_degraded,
)
from repro.power.dvfs import DEFAULT_DVFS_TABLE, DvfsPoint, DvfsTable

from tests.oracles import degradation_candidates, pick_degraded_scan

SIZES = (2, 4, 8)

#: Few distinct energies, so equal prices (the rank tie-break) are common.
ENERGIES = (0.0, 12.5, 25.0, 40.0, 97.25)

POINT_SETS = (
    (None,),
    tuple(DEFAULT_DVFS_TABLE),
    tuple(DvfsTable((
        DvfsPoint("nominal", 1.0, 1.0),
        DvfsPoint("mid", 0.75, 0.9),
        DvfsPoint("low", 0.5, 0.5),
    ))),
)

rows_strategy = st.lists(
    st.one_of(
        st.none(),
        st.tuples(
            st.integers(min_value=1, max_value=2_000_000),
            st.sampled_from(ENERGIES),
            st.sampled_from(ENERGIES),
        ),
    ),
    min_size=1,
    max_size=6,
).map(lambda rows: [
    None if row is None else (f"cfg{i}",) + row
    for i, row in enumerate(rows)
])

fraction_strategy = st.one_of(
    st.just(1.0),
    st.floats(min_value=1e-3, max_value=1.0, allow_nan=False),
)


@st.composite
def pools(draw):
    cap = draw(st.one_of(st.none(), st.floats(min_value=1.0, max_value=400.0)))
    capped = draw(st.lists(st.sampled_from(SIZES), unique=True, max_size=3))
    clusters = tuple(sorted(
        (size, draw(st.floats(min_value=1.0, max_value=200.0)))
        for size in capped
    ))
    pool = TokenPool(PowerConfig(cap_nj=cap, cluster_caps_nj=clusters))
    grants = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=150.0),
            st.sampled_from(SIZES),
        ),
        max_size=4,
    ))
    for job_id, (grant, size) in enumerate(grants):
        pool.grant(job_id, grant, size)
    return pool


@given(
    rows=rows_strategy,
    points=st.sampled_from(POINT_SETS),
    fraction=fraction_strategy,
    pool=pools(),
    size_kb=st.sampled_from(SIZES),
    preferred=st.one_of(
        st.sampled_from((50.0, 97.25, 200.0, math.inf)),
        st.floats(min_value=0.0, max_value=250.0),
    ),
    arrival=st.integers(min_value=0, max_value=1_000_000),
    now_after=st.integers(min_value=0, max_value=2_000_000),
    deadline_budget=st.one_of(
        st.none(), st.integers(min_value=1, max_value=3_000_000)
    ),
    slack_pct=st.floats(min_value=0.0, max_value=50.0),
)
@settings(max_examples=400, deadline=None)
def test_walk_picks_what_the_scan_picks(
    rows, points, fraction, pool, size_kb, preferred, arrival, now_after,
    deadline_budget, slack_pct,
):
    deadline = None if deadline_budget is None else arrival + deadline_budget
    candidates = degradation_candidates(rows, points, fraction)
    ladder = degradation_ladder(rows, points, fraction)
    # The same rungs, priced bit for bit alike, least degraded first.
    assert list(ladder) == sorted(
        candidates, key=lambda rung: (-rung[0], rung[2])
    )
    kwargs = dict(
        now=arrival + now_after,
        arrival_cycle=arrival,
        deadline_cycle=deadline,
        slack_pct=slack_pct,
    )
    assert pick_degraded(
        pool, size_kb, preferred, ladder, **kwargs
    ) == pick_degraded_scan(pool, size_kb, preferred, candidates, **kwargs)


@given(
    rows=rows_strategy,
    points=st.sampled_from(POINT_SETS),
    fraction=fraction_strategy,
)
@settings(max_examples=100, deadline=None)
def test_nominal_prices_are_the_preferred_prices(rows, points, fraction):
    ladder = degradation_ladder(rows, points, fraction)
    expected = {
        payload: price
        for price, _, _, (payload, point) in degradation_candidates(
            rows, points[:1], fraction
        )
    }
    assert nominal_prices(ladder) == expected


def _check_sums(pool):
    held = pool._held.values()
    outstanding = math.fsum(grant for grant, _ in held)
    assert pool.outstanding_nj == outstanding
    assert pool.consumed_nj == (
        pool.granted_nj - pool.refunded_nj - outstanding
    )
    for size in pool._cluster_caps:
        assert pool._cluster_outstanding[size] == math.fsum(
            grant for grant, held_size in held if held_size == size
        )
    room, cluster_room = pool.headroom(4)
    assert room == pool._cap - outstanding
    assert (cluster_room == math.inf) == (4 not in pool._cluster_caps)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("grant"),
            st.floats(min_value=0.0, max_value=1e6),
            st.sampled_from(SIZES),
        ),
        st.tuples(
            st.just("refund"),
            st.integers(min_value=0, max_value=20),
            st.floats(min_value=0.0, max_value=1e6),
        ),
        st.tuples(st.just("consume"), st.integers(min_value=0, max_value=20)),
        st.tuples(st.just("load_state")),
    ),
    max_size=30,
)


@given(
    ops=operations,
    capped=st.lists(st.sampled_from(SIZES), unique=True, max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_stored_sums_equal_a_fresh_fsum(ops, capped):
    config = PowerConfig(
        cap_nj=1e7,
        cluster_caps_nj=tuple((size, 5e6) for size in sorted(capped)),
    )
    pool = TokenPool(config)
    next_id = 0
    _check_sums(pool)
    for op in ops:
        held_ids = sorted(pool._held)
        if op[0] == "grant":
            pool.grant(next_id, op[1], op[2])
            next_id += 1
        elif op[0] == "load_state":
            clone = TokenPool(config)
            clone.load_state(pool.state_dict())
            pool = clone
        elif held_ids:
            job_id = held_ids[op[1] % len(held_ids)]
            if op[0] == "refund":
                pool.refund(job_id, op[2])
            else:
                pool.consume(job_id)
        _check_sums(pool)
