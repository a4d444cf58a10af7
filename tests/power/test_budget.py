"""Unit tests for the power package: config, pool, ladder, DVFS."""

import re

import pytest

from repro.campaign import power_grid
from repro.power.budget import (
    PowerConfig,
    TokenPool,
    degradation_ladder,
    nominal_prices,
    normalize_power,
    pick_degraded,
    slack_admissible,
)
from repro.power.dvfs import (
    DEFAULT_DVFS_TABLE,
    DvfsPoint,
    DvfsTable,
)


def _ladder(*rows):
    """A DVFS-free ladder from ``(payload, work_cycles, price_nj)`` rows
    (``None`` for a missing config), priced as dynamic energy alone."""
    return degradation_ladder(
        [None if row is None else (row[0], row[1], row[2], 0.0)
         for row in rows],
        (None,),
        1.0,
    )


class TestPowerConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="cap_nj must be positive"):
            PowerConfig(cap_nj=0.0)
        with pytest.raises(ValueError, match="cap_nj must be positive"):
            PowerConfig(cap_nj=-5.0)
        with pytest.raises(ValueError, match="sorted"):
            PowerConfig(cluster_caps_nj=((8, 100.0), (4, 100.0)))
        with pytest.raises(ValueError, match="sorted"):
            PowerConfig(cluster_caps_nj=((4, 100.0), (4, 200.0)))
        with pytest.raises(ValueError, match="cluster cap"):
            PowerConfig(cluster_caps_nj=((4, 0.0),))
        with pytest.raises(ValueError, match="slack_pct"):
            PowerConfig(slack_pct=-1.0)

    @pytest.mark.parametrize("slack", [float("nan"), float("inf")])
    def test_non_finite_slack_rejected(self, slack):
        # ``slack < 0`` is false for NaN, and an infinite slack turns
        # ``deadline == arrival`` into a NaN admission limit: both used
        # to be accepted and then refuse every degraded dispatch.
        with pytest.raises(ValueError, match="slack_pct"):
            PowerConfig(cap_nj=4e5, slack_pct=slack)
        with pytest.raises(ValueError, match="slack_pct"):
            PowerConfig.from_dict({"cap_nj": 4e5, "slack_pct": slack})

    def test_enabled(self):
        assert not PowerConfig().enabled
        assert not PowerConfig(cap_nj=float("inf")).enabled
        assert not PowerConfig(slack_pct=40.0).enabled
        assert PowerConfig(cap_nj=1e6).enabled
        assert PowerConfig(cluster_caps_nj=((4, 1e5),)).enabled
        assert PowerConfig(dvfs=DEFAULT_DVFS_TABLE).enabled

    def test_normalize(self):
        assert normalize_power(None) is None
        assert normalize_power(PowerConfig()) is None
        assert normalize_power(PowerConfig(slack_pct=20.0)) is None
        enabled = PowerConfig(cap_nj=1e6)
        assert normalize_power(enabled) is enabled
        with pytest.raises(TypeError, match="PowerConfig"):
            normalize_power({"cap_nj": 1e6})

    def test_labels(self):
        assert PowerConfig(cap_nj=1e6).label == "cap=1e+06"
        assert (
            PowerConfig(
                cap_nj=250_000.0,
                cluster_caps_nj=((4, 100_000.0),),
                slack_pct=20.0,
                dvfs=DEFAULT_DVFS_TABLE,
            ).label
            == "cap=250000~4kb=100000~slack=20~dvfs"
        )
        assert PowerConfig(dvfs=DEFAULT_DVFS_TABLE).label == "cap=inf~dvfs"

    def test_dict_round_trip(self):
        config = PowerConfig(
            cap_nj=5e5,
            cluster_caps_nj=((2, 1e5), (8, 3e5)),
            slack_pct=12.5,
            dvfs=DEFAULT_DVFS_TABLE,
        )
        assert PowerConfig.from_dict(config.to_dict()) == config
        # The payload is JSON-safe (lists, plain floats, no tuples).
        import json

        assert json.loads(json.dumps(config.to_dict())) == config.to_dict()


class TestTokenPool:
    def test_accounting_cycle(self):
        pool = TokenPool(PowerConfig(cap_nj=1000.0))
        assert pool.idle()
        pool.grant(1, 400.0, 4)
        pool.grant(2, 500.0, 8)
        assert not pool.idle()
        assert pool.outstanding_nj == 900.0
        assert not pool.affordable(200.0, 4)
        assert pool.affordable(100.0, 4)
        assert pool.consume(1) == 400.0
        assert pool.outstanding_nj == 500.0
        assert pool.refund(2, 300.0) == 500.0
        assert pool.idle()
        assert pool.granted_nj == 900.0
        assert pool.refunded_nj == 300.0
        # consumed = granted - refunded - outstanding.
        assert pool.consumed_nj == 600.0
        assert pool.grants == 2 and pool.refunds == 1

    def test_double_grant_rejected(self):
        pool = TokenPool(PowerConfig(cap_nj=1000.0))
        pool.grant(1, 10.0, 4)
        with pytest.raises(RuntimeError, match="already holds"):
            pool.grant(1, 10.0, 4)

    def test_cluster_caps(self):
        pool = TokenPool(
            PowerConfig(cap_nj=1e6, cluster_caps_nj=((4, 100.0),))
        )
        pool.grant(1, 80.0, 4)
        assert not pool.affordable(30.0, 4)   # 4KB cluster exhausted
        assert pool.affordable(30.0, 8)       # other clusters uncapped
        assert pool.cluster_outstanding_nj(4) == 80.0
        assert pool.cluster_outstanding_nj(8) == 0.0

    def test_state_dict_round_trip(self):
        pool = TokenPool(PowerConfig(cap_nj=1000.0))
        pool.grant(3, 120.0, 4)
        pool.grant(7, 80.0, 8)
        pool.refund(3, 60.0)
        pool.throttled = 5
        pool.degraded = 2
        pool.overdrafts = 1
        clone = TokenPool(PowerConfig(cap_nj=1000.0))
        clone.load_state(pool.state_dict())
        assert clone.state_dict() == pool.state_dict()
        assert clone.outstanding_nj == pool.outstanding_nj
        assert clone.consumed_nj == pool.consumed_nj

    @pytest.mark.parametrize("key,value,message", [
        ("held", [["x", 1.0, 4]], "held job_id"),
        ("held", [[3, 1.0]], "[job_id, grant_nj, size_kb]"),
        ("held", None, "'held'"),
        ("granted_nj", "x", "'granted_nj'"),
        ("refunded_nj", float("nan"), "'refunded_nj'"),
        ("grants", -1, "'grants'"),
        ("overdrafts", None, "'overdrafts'"),
    ])
    def test_load_state_checks_every_field_first(self, key, value, message):
        pool = TokenPool(PowerConfig(cap_nj=1000.0))
        pool.grant(3, 120.0, 4)
        state = pool.state_dict()
        fresh = TokenPool(PowerConfig(cap_nj=1000.0))
        before = fresh.state_dict()
        with pytest.raises(ValueError, match=re.escape(message)):
            fresh.load_state({**state, key: value})
        assert fresh.state_dict() == before


class TestSlackAndLadder:
    def test_slack_admissible(self):
        # Deadline-free jobs degrade freely.
        assert slack_admissible(100, 10_000, 0, None, 0.0)
        # Exactly on the deadline is admitted, one cycle past is not.
        assert slack_admissible(0, 1000, 0, 1000, 0.0)
        assert not slack_admissible(1, 1000, 0, 1000, 0.0)
        # slack_pct extends the limit by a fraction of the QoS budget.
        assert slack_admissible(1, 1099, 0, 1000, 10.0)
        assert not slack_admissible(1, 1100, 0, 1000, 10.0)

    def test_pick_degraded_prefers_least_degraded(self):
        pool = TokenPool(PowerConfig(cap_nj=100.0))
        picked = pick_degraded(
            pool, 4, 200.0,
            _ladder(("a", 1000, 90.0), ("b", 1100, 95.0), ("c", 2000, 40.0)),
            now=0, arrival_cycle=0, deadline_cycle=None, slack_pct=0.0,
        )
        assert picked == ("b", None)  # most expensive affordable option

    def test_pick_degraded_ties_break_on_rank(self):
        pool = TokenPool(PowerConfig(cap_nj=100.0))
        # Ranks 1 and 3: a missing config still uses up a rank.
        ladder = _ladder(None, ("early", 1000, 50.0), None, ("late", 1000, 50.0))
        assert [rung[2] for rung in ladder] == [1, 3]
        picked = pick_degraded(
            pool, 4, 200.0, ladder,
            now=0, arrival_cycle=0, deadline_cycle=None, slack_pct=0.0,
        )
        assert picked == ("early", None)

    def test_pick_degraded_honours_slack_and_budget(self):
        pool = TokenPool(PowerConfig(cap_nj=100.0))
        # The cheaper option misses even the slack-extended deadline.
        picked = pick_degraded(
            pool, 4, 200.0,
            _ladder(("slow", 5_000, 90.0), ("fast", 300, 80.0)),
            now=800, arrival_cycle=0, deadline_cycle=1000, slack_pct=20.0,
        )
        assert picked == ("fast", None)
        # Nothing affordable at all -> None.
        pool.grant(1, 95.0, 4)
        assert pick_degraded(
            pool, 4, 200.0,
            _ladder(("x", 100, 90.0)),
            now=0, arrival_cycle=0, deadline_cycle=None, slack_pct=0.0,
        ) is None

    def test_only_strictly_cheaper_options_count(self):
        pool = TokenPool(PowerConfig(cap_nj=1e6))
        assert pick_degraded(
            pool, 4, 50.0,
            _ladder(("same", 100, 50.0), ("worse", 100, 60.0)),
            now=0, arrival_cycle=0, deadline_cycle=None, slack_pct=0.0,
        ) is None

    def test_ladder_prices_through_scaled_charges(self):
        eco = DvfsPoint("eco", 0.8, 0.5)
        nominal = DEFAULT_DVFS_TABLE.default
        ladder = degradation_ladder(
            [("a", 1000, 60.0, 40.0)], (nominal, eco), 0.5
        )
        assert ladder == (
            (50.0, 500, 0, ("a", nominal)),
            (0.5 * 60.0 * eco.dyn_factor + 0.5 * 40.0 * eco.static_factor,
             625, 1, ("a", eco)),
        )
        assert nominal_prices(ladder) == {"a": 50.0}


class TestDvfs:
    def test_point_validation_and_factors(self):
        with pytest.raises(ValueError, match="freq_scale"):
            DvfsPoint("x", 0.0, 0.5)
        with pytest.raises(ValueError, match="volt_scale"):
            DvfsPoint("x", 0.5, 1.5)
        point = DvfsPoint("eco", 0.8, 0.9)
        assert point.dyn_factor == pytest.approx(0.81)
        assert point.static_factor == pytest.approx(0.9 / 0.8)
        assert DvfsPoint("n", 1.0, 1.0).is_nominal

    def test_table_validation(self):
        nominal = DvfsPoint("nominal", 1.0, 1.0)
        with pytest.raises(ValueError, match="at least one point"):
            DvfsTable(points=())
        with pytest.raises(ValueError, match="must be nominal"):
            DvfsTable(points=(DvfsPoint("eco", 0.8, 0.9),))
        with pytest.raises(ValueError, match="descend strictly"):
            DvfsTable(points=(
                nominal,
                DvfsPoint("a", 0.6, 0.8),
                DvfsPoint("b", 0.8, 0.9),
            ))
        with pytest.raises(ValueError, match="duplicate"):
            DvfsTable(points=(nominal, DvfsPoint("nominal", 0.8, 0.9)))

    def test_lookup(self):
        table = DEFAULT_DVFS_TABLE
        assert table.default.is_nominal
        assert table.names == ("nominal", "eco", "slow")
        assert table.get("eco").freq_scale == 0.8
        assert table.index("slow") == 2
        with pytest.raises(ValueError, match="unknown operating point"):
            table.get("turbo")

    def test_round_trips(self):
        table = DEFAULT_DVFS_TABLE
        assert DvfsTable.from_dict(table.to_dict()) == table
        assert DvfsTable.from_spec(table.spec()) == table
        with pytest.raises(ValueError, match="name:freq:volt"):
            DvfsTable.from_spec("eco")


class TestPowerGrid:
    def test_caps_times_slacks(self):
        grid = power_grid([None, 4e5], slacks=[0.0, 20.0])
        labels = [None if p is None else p.label for p in grid]
        # The two disabled (cap, slack) pairs collapse to one baseline.
        assert labels == [None, "cap=400000", "cap=400000~slack=20"]

    def test_inf_cap_is_uncapped(self):
        grid = power_grid([float("inf"), 4e5])
        assert grid[0] is None
        assert grid[1].cap_nj == 4e5

    def test_dvfs_makes_every_cell_powered(self):
        grid = power_grid([None, 4e5], dvfs=DEFAULT_DVFS_TABLE)
        assert [p.label for p in grid] == ["cap=inf~dvfs", "cap=400000~dvfs"]

    def test_empty_axes_rejected(self):
        with pytest.raises(ValueError, match="power cap"):
            power_grid([])
        with pytest.raises(ValueError, match="slack"):
            power_grid([None], slacks=[])
