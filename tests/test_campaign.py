"""Tests for the process-parallel replication campaign runner."""

import math
import re

import pytest

from repro.campaign import (
    CAMPAIGN_METRICS,
    DagLoad,
    MetricAggregate,
    ReplicationSpec,
    StreamLoad,
    _T_CRITICAL_95,
    _aggregate,
    _t_critical,
    run_campaign,
)
from repro.core.predictor import FixedPredictor
from repro.core.simulation import SchedulerSimulation
from repro.core.system import base_system
from repro.core.policies import make_policy
from repro.experiment import default_store, run_campaign as exported
from repro.workloads import eembc_suite, uniform_arrivals


@pytest.fixture(scope="module")
def store():
    return default_store(cache_path=None)


def small_campaign(store, workers):
    # 2 policies x 6 seeds x 2 loads = 24 replications (the acceptance
    # grid), kept cheap with 40-job streams.
    return run_campaign(
        store,
        policies=("base", "proposed"),
        seeds=(0, 1, 2, 3, 4, 5),
        loads=((40, 56_000), (40, 120_000)),
        workers=workers,
    )


class TestWorkerIndependence:
    def test_serial_and_parallel_aggregates_identical(self, store):
        serial = small_campaign(store, workers=1)
        parallel = small_campaign(store, workers=4)
        assert len(serial.replications) == 24
        assert len(parallel.replications) == 24
        assert [r.spec for r in serial.replications] == [
            r.spec for r in parallel.replications
        ]
        for a, b in zip(serial.cells, parallel.cells):
            assert (a.policy, a.count, a.mean_interarrival_cycles) == (
                b.policy, b.count, b.mean_interarrival_cycles
            )
            for name in CAMPAIGN_METRICS:
                assert a.metrics[name] == b.metrics[name], (a.policy, name)

    def test_repeat_run_deterministic(self, store):
        first = small_campaign(store, workers=1)
        second = small_campaign(store, workers=1)
        for a, b in zip(first.cells, second.cells):
            assert a.metrics == b.metrics


class TestReplicationSemantics:
    def test_replication_matches_direct_simulation(self, store):
        """A cell with one seed reproduces a hand-rolled run exactly."""
        campaign = run_campaign(
            store,
            policies=("base",),
            seeds=(3,),
            loads=((50, 80_000),),
        )
        arrivals = uniform_arrivals(
            eembc_suite(), count=50, seed=3, mean_interarrival_cycles=80_000
        )
        sim = SchedulerSimulation(
            base_system(), make_policy("base"), store
        )
        reference = sim.run(arrivals)
        cell = campaign.cell("base")
        assert cell.n == 1
        assert cell.metric("total_energy_nj").mean == (
            reference.total_energy_nj
        )
        assert cell.metric("makespan_cycles").mean == (
            reference.makespan_cycles
        )
        assert cell.metric("jobs_completed").mean == 50

    def test_grid_order_policy_major(self, store):
        campaign = run_campaign(
            store,
            policies=("base", "proposed"),
            seeds=(0, 1),
            loads=((30, 56_000),),
        )
        specs = [r.spec for r in campaign.replications]
        assert specs == [
            ReplicationSpec("base", 0, 30, 56_000),
            ReplicationSpec("base", 1, 30, 56_000),
            ReplicationSpec("proposed", 0, 30, 56_000),
            ReplicationSpec("proposed", 1, 30, 56_000),
        ]

    def test_custom_predictor_used(self, store):
        fixed = run_campaign(
            store,
            FixedPredictor(8),
            policies=("proposed",),
            seeds=(0,),
            loads=((40, 56_000),),
        )
        oracle = run_campaign(
            store,
            policies=("proposed",),
            seeds=(0,),
            loads=((40, 56_000),),
        )
        # A predictor stuck on 8 KB steers jobs differently from the
        # oracle default — proof the passed predictor is the one used.
        assert (
            fixed.cell("proposed").metric("total_energy_nj").mean
            != oracle.cell("proposed").metric("total_energy_nj").mean
        )


class TestAggregation:
    def test_aggregate_math(self):
        agg = _aggregate([1.0, 2.0, 3.0, 4.0])
        assert agg.mean == 2.5
        assert agg.n == 4
        expected_std = math.sqrt(sum((v - 2.5) ** 2 for v in
                                     (1.0, 2.0, 3.0, 4.0)) / 3)
        assert agg.std == pytest.approx(expected_std)
        # Four replications have 3 degrees of freedom: the half-width
        # uses Student's t(3) = 3.182, not the normal z = 1.96.
        assert agg.ci95 == pytest.approx(3.182 * expected_std / 2.0)

    def test_single_replication_has_zero_ci(self):
        assert _aggregate([5.0]) == MetricAggregate(
            mean=5.0, std=0.0, ci95=0.0, n=1
        )

    def test_empty_cell_rejected(self):
        with pytest.raises(ValueError,
                           match="cannot aggregate an empty cell"):
            _aggregate([])


class TestStudentT:
    """Regression for the z-vs-t confidence-interval bug.

    The aggregator used to hard-code ``z = 1.96``, understating the
    95% half-width for every realistic campaign (n <= 30 seeds).  The
    half-width must use Student's t with ``n - 1`` degrees of freedom.
    """

    #: Two-tailed 95% critical values, df -> t (standard table).
    PINNED = {1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
              9: 2.262, 19: 2.093, 29: 2.045, 40: 2.021, 60: 2.000,
              120: 1.980}

    @pytest.mark.parametrize("df,expected", sorted(PINNED.items()))
    def test_pinned_critical_values(self, df, expected):
        assert _t_critical(df) == pytest.approx(expected)

    @pytest.mark.parametrize("n", range(2, 31))
    def test_aggregate_uses_t_for_small_n(self, n):
        values = [float(i) for i in range(n)]
        agg = _aggregate(values)
        assert agg.ci95 == pytest.approx(
            _T_CRITICAL_95[n - 1] * agg.std / math.sqrt(n)
        )
        # t(df) > z for every finite df, so the old z-based width
        # always understated the interval.
        assert agg.ci95 > 1.96 * agg.std / math.sqrt(n)

    def test_untabulated_df_falls_back_conservatively(self):
        # df between table entries snaps down to the nearest tabulated
        # df, whose critical value is larger (wider, conservative).
        assert _t_critical(35) == _T_CRITICAL_95[30]
        assert _t_critical(200) == _T_CRITICAL_95[120]

    def test_df_floor(self):
        with pytest.raises(ValueError):
            _t_critical(0)

    def test_cells_aggregate_over_seeds(self, store):
        campaign = run_campaign(
            store,
            policies=("base",),
            seeds=(0, 1, 2),
            loads=((30, 56_000),),
        )
        cell = campaign.cell("base")
        assert cell.n == 3
        values = [
            r.total_energy_nj for r in campaign.replications
        ]
        assert cell.metric("total_energy_nj").mean == pytest.approx(
            sum(values) / 3
        )


class TestCellLookup:
    def test_ambiguous_selector_rejected(self, store):
        campaign = run_campaign(
            store,
            policies=("base",),
            seeds=(0,),
            loads=((30, 56_000), (30, 120_000)),
        )
        with pytest.raises(KeyError):
            campaign.cell("base")
        assert (
            campaign.cell("base", mean_interarrival_cycles=120_000).n == 1
        )

    def test_missing_cell_rejected(self, store):
        campaign = run_campaign(
            store, policies=("base",), seeds=(0,), loads=((30, 56_000),)
        )
        with pytest.raises(KeyError):
            campaign.cell("proposed")

    def test_summary_renders(self, store):
        campaign = run_campaign(
            store, policies=("base",), seeds=(0,), loads=((30, 56_000),)
        )
        text = campaign.summary()
        assert "base" in text
        assert "replications=1" in text


class TestMetricsCollection:
    def metrics_campaign(self, store, workers):
        return run_campaign(
            store,
            policies=("base", "proposed"),
            seeds=(0, 1),
            loads=((40, 56_000),),
            workers=workers,
            collect_metrics=True,
        )

    def test_off_by_default(self, store):
        result = run_campaign(
            store, policies=("base",), seeds=(0,), workers=1
        )
        assert result.replications[0].observed == {}
        assert result.cells[0].observed == {}

    def test_replications_carry_scalars(self, store):
        result = self.metrics_campaign(store, workers=1)
        for replication in result.replications:
            observed = replication.observed
            assert observed["sim.jobs_completed"] == 40.0
            assert observed["sim.jobs_arrived"] == 40.0
            assert "sim.queue_depth.p90" in observed
            assert all(
                isinstance(value, float) for value in observed.values()
            )

    def test_cells_aggregate_observed(self, store):
        result = self.metrics_campaign(store, workers=1)
        for cell in result.cells:
            aggregate = cell.observed["sim.jobs_completed"]
            assert aggregate.mean == 40.0
            assert aggregate.n == 2
            # Registry energy totals agree with the headline metric.
            assert cell.observed["sim.energy.total_nj"].mean == (
                pytest.approx(cell.metrics["total_energy_nj"].mean)
            )

    def test_observed_worker_count_independent(self, store):
        serial = self.metrics_campaign(store, workers=1)
        parallel = self.metrics_campaign(store, workers=4)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.observed == b.observed

    def test_collection_does_not_perturb_results(self, store):
        with_metrics = self.metrics_campaign(store, workers=1)
        without = run_campaign(
            store,
            policies=("base", "proposed"),
            seeds=(0, 1),
            loads=((40, 56_000),),
            workers=1,
        )
        for a, b in zip(with_metrics.cells, without.cells):
            assert a.metrics == b.metrics


class TestSweepTimingAbsorption:
    def test_record_into_registry(self):
        from repro.characterization.instrumentation import (
            SweepTiming,
            TaskTiming,
        )
        from repro.obs.metrics import MetricsRegistry

        timing = SweepTiming(
            tasks=(
                TaskTiming(name="a", seconds=0.5, accesses=1000, configs=18),
                TaskTiming(name="b", seconds=1.5, accesses=3000, configs=18),
            ),
            wall_seconds=2.0,
            workers=2,
        )
        registry = MetricsRegistry()
        timing.record_into(registry)
        scalars = registry.scalars()
        assert scalars["sweep.benchmarks"] == 2.0
        assert scalars["sweep.accesses"] == 4000.0
        assert scalars["sweep.config_replays"] == 36.0
        assert scalars["sweep.wall_seconds"] == 2.0
        assert scalars["sweep.traces_per_second"] == 1.0
        assert scalars["sweep.task_seconds.count"] == 2.0
        assert scalars["sweep.task_seconds.mean"] == 1.0
        # Counters accumulate across sweeps.
        timing.record_into(registry)
        assert registry.scalars()["sweep.benchmarks"] == 4.0


class TestStreamAxis:
    def stream_campaign(self, store, workers, **load_kwargs):
        return run_campaign(
            store,
            policies=("base", "proposed"),
            seeds=(0, 1),
            loads=((120, 40_000),),
            workers=workers,
            stream=StreamLoad(**load_kwargs),
        )

    def test_open_system_cells(self, store):
        result = self.stream_campaign(
            store, workers=1, queue_capacity=16, admission="shed"
        )
        assert len(result.replications) == 4
        cell = result.cell("proposed")
        assert cell.stream == "poisson"
        assert cell.n == 2
        assert "stream.waiting.p99" in cell.observed
        assert "stream.turnaround.mean" in cell.observed
        assert "stream.shed_rate" in cell.observed
        shed = cell.observed["stream.jobs_shed"].mean
        assert cell.metrics["jobs_completed"].mean == 120 - shed
        assert "~poisson" in result.summary()

    def test_worker_count_independent(self, store):
        serial = self.stream_campaign(store, workers=1)
        parallel = self.stream_campaign(store, workers=4)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.metrics == b.metrics
            assert a.observed == b.observed

    def test_process_kinds_differ(self, store):
        poisson = self.stream_campaign(store, workers=1)
        mmpp = self.stream_campaign(
            store, workers=1, process="mmpp",
            process_args=(("burst_factor", 4.0),),
        )
        assert mmpp.cell("proposed").stream == "mmpp"
        assert (
            poisson.cell("proposed").metrics["mean_waiting_cycles"]
            != mmpp.cell("proposed").metrics["mean_waiting_cycles"]
        )

    def test_rejects_hooks_up_front(self, store):
        for kwargs in (
            {"validate": True},
            {"collect_metrics": True},
            {"engine": "reference"},
        ):
            with pytest.raises(ValueError, match="stream"):
                run_campaign(
                    store, policies=("base",),
                    stream=StreamLoad(), **kwargs,
                )

    def test_rejects_bad_admission(self, store):
        with pytest.raises(ValueError, match="admission"):
            run_campaign(
                store, policies=("base",),
                stream=StreamLoad(admission="bounce"),
            )

    def test_rejects_non_integer_queue_capacity(self):
        with pytest.raises(ValueError, match="queue_capacity.*2.5"):
            StreamLoad(queue_capacity=2.5)


class TestDagAxis:
    def dag_campaign(self, store, workers=1, policies=("base", "edf"),
                     **kwargs):
        load = DagLoad(tasks_min=2, tasks_max=4)
        return run_campaign(
            store,
            policies=policies,
            seeds=(0, 1),
            loads=((3, 120_000),),
            workers=workers,
            dag=kwargs.pop("dag", load),
            **kwargs,
        )

    def test_dag_cells(self, store):
        result = self.dag_campaign(store)
        assert len(result.replications) == 4
        cell = result.cell("edf")
        assert cell.dag
        assert cell.n == 2
        for key in ("dag.graphs", "dag.tasks", "dag.edges",
                    "dag.deadline_jobs", "dag.deadline_misses",
                    "dag.deadline_miss_rate"):
            assert key in cell.observed
        assert cell.observed["dag.graphs"].mean == 3
        assert "edf^dag" in result.summary()

    def test_deadline_policies_resolve(self, store):
        result = self.dag_campaign(store, policies=("edf", "heft"))
        assert {c.policy for c in result.cells} == {"edf", "heft"}

    def test_worker_count_independent(self, store):
        serial = self.dag_campaign(store, workers=1)
        parallel = self.dag_campaign(store, workers=4)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.metrics == b.metrics
            assert a.observed == b.observed

    def test_composes_with_validation(self, store):
        result = self.dag_campaign(store, validate=True)
        assert all(cell.dag for cell in result.cells)

    def test_rejects_stream_combination(self, store):
        with pytest.raises(ValueError, match="mutually exclusive"):
            self.dag_campaign(store, policies=("base", "proposed"),
                              stream=StreamLoad())

    def test_rejects_fast_engine(self, store):
        with pytest.raises(ValueError, match="fast"):
            self.dag_campaign(store, engine="fast")

    def test_rejects_ordering_policy_on_fast_engine(self, store):
        with pytest.raises(ValueError, match="fast"):
            run_campaign(store, policies=("edf",), engine="fast")

    def test_rejects_ordering_policy_with_stream(self, store):
        with pytest.raises(ValueError, match="stream"):
            run_campaign(store, policies=("heft",),
                         stream=StreamLoad())

    def test_rejects_bad_dag_load(self, store):
        # DagLoad checks its fields when constructed, so each bad load
        # is built inside the raises block.
        for bad in ({"tasks_min": 5, "tasks_max": 2},
                    {"edge_density": 1.5},
                    {"deadline_slack": 0.0},
                    {"criticality_levels": 0}):
            with pytest.raises(ValueError):
                self.dag_campaign(store, dag=DagLoad(**bad))

    def test_repeat_run_deterministic(self, store):
        a = self.dag_campaign(store)
        b = self.dag_campaign(store)
        for cell_a, cell_b in zip(a.cells, b.cells):
            assert cell_a.metrics == cell_b.metrics
            assert cell_a.observed == cell_b.observed


class TestPowerAxis:
    def power_campaign(self, store, workers=1, **kwargs):
        from repro.power.budget import PowerConfig

        configs = kwargs.pop(
            "power_configs",
            (None, PowerConfig(cap_nj=300_000.0, slack_pct=10.0)),
        )
        return run_campaign(
            store,
            policies=kwargs.pop("policies", ("proposed",)),
            seeds=(0, 1),
            loads=((20, 9_000),),
            workers=workers,
            power_configs=configs,
            **kwargs,
        )

    def test_power_cells_and_observed(self, store):
        result = self.power_campaign(store)
        assert len(result.replications) == 4
        baseline = result.cell("proposed", power="none")
        capped = result.cell("proposed", power="cap=300000~slack=10")
        assert baseline.power is None
        assert capped.power == "cap=300000~slack=10"
        # Powered cells ship the pool gauges; unpowered cells stay
        # observation-free (bit-identity with the pre-power campaign).
        assert "power.grants" in capped.observed
        assert capped.observed["power.grants"].mean == 20.0
        assert "power.grants" not in baseline.observed
        assert "%cap=300000~slack=10" in result.summary()

    def test_uncapped_cell_matches_no_axis(self, store):
        plain = run_campaign(
            store, policies=("proposed",), seeds=(0, 1),
            loads=((20, 9_000),),
        )
        swept = self.power_campaign(store)
        a = plain.cell("proposed")
        b = swept.cell("proposed", power="none")
        assert a.metrics == b.metrics

    def test_worker_count_independent(self, store):
        serial = self.power_campaign(store, workers=1)
        parallel = self.power_campaign(store, workers=4)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.power == b.power
            assert a.metrics == b.metrics
            assert a.observed == b.observed

    def test_composes_with_stream_axis(self, store):
        result = self.power_campaign(store, stream=StreamLoad())
        capped = result.cell("proposed", power="cap=300000~slack=10")
        assert "power.throttled" in capped.observed
        assert "stream.throughput_jobs_per_mcycle" in capped.observed

    def test_composes_with_validation(self, store):
        result = self.power_campaign(store, validate=True)
        assert {c.power for c in result.cells} == {
            None, "cap=300000~slack=10"
        }

    def test_disabled_configs_normalize_to_baseline(self, store):
        from repro.power.budget import PowerConfig

        result = self.power_campaign(
            store,
            power_configs=(PowerConfig(cap_nj=float("inf")),
                           PowerConfig(cap_nj=250_000.0)),
        )
        assert {c.power for c in result.cells} == {None, "cap=250000"}

    def test_rejects_empty_axis(self, store):
        with pytest.raises(ValueError, match="power"):
            self.power_campaign(store, power_configs=())

    def test_rejects_two_unconstrained_entries(self, store):
        from repro.power.budget import PowerConfig

        with pytest.raises(ValueError, match="unconstrained"):
            self.power_campaign(
                store,
                power_configs=(None, PowerConfig(slack_pct=5.0)),
            )

    def test_rejects_duplicate_labels(self, store):
        from repro.power.budget import PowerConfig

        with pytest.raises(ValueError, match="unique"):
            self.power_campaign(
                store,
                power_configs=(PowerConfig(cap_nj=1e5),
                               PowerConfig(cap_nj=1e5)),
            )


class TestValidation:
    def test_empty_policies(self, store):
        with pytest.raises(ValueError):
            run_campaign(store, policies=())

    def test_unknown_policy(self, store):
        with pytest.raises(ValueError):
            run_campaign(store, policies=("turbo",))

    def test_empty_seeds(self, store):
        with pytest.raises(ValueError):
            run_campaign(store, seeds=())

    def test_empty_loads(self, store):
        with pytest.raises(ValueError):
            run_campaign(store, loads=())

    def test_bad_load(self, store):
        with pytest.raises(ValueError):
            run_campaign(store, loads=((0, 56_000),))
        with pytest.raises(ValueError):
            run_campaign(store, loads=((10, 0),))

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_gap(self, store, gap):
        # Past the grid check, both fail inside numpy, in a worker.
        with pytest.raises(ValueError, match="mean_interarrival_cycles "
                                             f"must be positive and finite, "
                                             f"got {gap}"):
            run_campaign(store, loads=((5, gap),))

    @pytest.mark.parametrize("load", [(10, 2 * 10**18), (2, 2**62)])
    def test_horizon_past_the_cycle_clock(self, store, load):
        # Rejected up front: numpy's int64 draw would fail in a worker.
        with pytest.raises(ValueError,
                           match="^mean_interarrival_cycles is too large"):
            run_campaign(store, loads=(load,))

    def test_count_free_load_needs_a_duration_bound(self, store):
        with pytest.raises(ValueError, match="load count"):
            run_campaign(store, loads=((None, 56_000),))
        with pytest.raises(ValueError, match="duration_cycles"):
            run_campaign(store, loads=((None, 56_000),), stream=StreamLoad())

    @pytest.mark.parametrize("axis, value", [
        ("policies", "base"),
        ("seeds", 1),
        ("loads", (50, 56_000)),
    ])
    def test_repeated_axis_value(self, store, axis, value):
        # A repeat would run identical replications into one cell and
        # silently double its n.
        with pytest.raises(ValueError,
                           match=re.escape(f"{axis} repeats {value!r}")):
            run_campaign(store, **{axis: (value, value)})

    def test_reexported_from_experiment(self):
        assert exported is run_campaign
