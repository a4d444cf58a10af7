"""DAG scheduling: precedence gating, deadline policies, engine limits.

The three acceptance properties of the task-graph axis:

* an **edge-free** graph set run through :meth:`run_dags` is
  bit-identical to the equivalent plain-arrival run on the same engine
  (releases degrade to arrivals when there is nothing to gate);
* precedence is a hard gate: no task starts before its last
  predecessor completes, under full invariant checking;
* on the congested edge-free scenario, deadline-order dispatch (EDF)
  strictly beats arrival-order dispatch on deadline misses.

HEFT is exempt from the bit-identity grid by design: its queue key
includes graph-level pressure (criticality x upward rank + pending
work) that has no counterpart in a plain run.
"""

import dataclasses

import pytest

from repro.core.policies import (
    ALL_POLICY_NAMES,
    DEADLINE_POLICY_NAMES,
    POLICY_NAMES,
    make_policy,
)
from repro.core.system import base_system, paper_system
from repro.obs import JobPreempted, ListRecorder, MetricsRegistry
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.validate import replay_trace
from repro.workloads.dag import TaskGraph, TaskSpec, dag_arrivals

from tests.scenarios import congested_dag_graphs, dag_test_graphs

from .conftest import make_simulation


def chain_graphs():
    """One three-task chain with a generous final deadline."""
    return [TaskGraph(
        graph_id=0, name="chain", arrival_cycle=0,
        tasks=(
            TaskSpec(task_id=0, benchmark="a2time",
                     deadline_offset=5_000_000),
            TaskSpec(task_id=1, benchmark="puwmod", predecessors=(0,),
                     deadline_offset=10_000_000),
            TaskSpec(task_id=2, benchmark="idctrn", predecessors=(1,),
                     deadline_offset=15_000_000),
        ),
    )]


class TestPolicyRegistry:
    def test_deadline_policies_are_separate_from_paper_grid(self):
        assert DEADLINE_POLICY_NAMES == ("edf", "heft")
        assert set(POLICY_NAMES).isdisjoint(DEADLINE_POLICY_NAMES)
        assert ALL_POLICY_NAMES == POLICY_NAMES + DEADLINE_POLICY_NAMES

    @pytest.mark.parametrize("name", DEADLINE_POLICY_NAMES)
    def test_make_policy_resolves_ordering_policies(self, name):
        policy = make_policy(name)
        assert policy.name == name
        assert policy.orders_queue

    def test_paper_policies_do_not_order_queue(self):
        for name in POLICY_NAMES:
            assert not make_policy(name).orders_queue

    def test_unknown_policy_error_names_full_registry(self):
        with pytest.raises(ValueError, match="heft"):
            make_policy("nonesuch")

    def test_base_queue_key_is_not_implemented(self):
        job = object()
        with pytest.raises(NotImplementedError):
            make_policy("base").queue_key(job, None)


class TestPrecedenceGating:
    def test_chain_runs_strictly_in_order(self, small_store, oracle,
                                          energy_table):
        sim = make_simulation("proposed", small_store, oracle,
                              energy_table, validate=True)
        result = sim.run_dags(chain_graphs())
        records = sorted(result.jobs, key=lambda r: r.job_id)
        assert len(records) == 3
        assert records[1].start_cycle >= records[0].completion_cycle
        assert records[2].start_cycle >= records[1].completion_cycle
        # Released tasks inherit the graph arrival for turnaround
        # accounting.
        assert all(r.arrival_cycle == 0 for r in records)

    @pytest.mark.parametrize("policy", ["base", "edf", "heft"])
    def test_dense_graphs_respect_precedence(self, small_store, oracle,
                                             energy_table, policy):
        graphs = dag_test_graphs(edge_density=0.7)
        sim = make_simulation(policy, small_store, oracle, energy_table,
                              system=paper_system(), validate=True)
        result = sim.run_dags(graphs)
        records = {r.job_id: r for r in result.jobs}
        assert len(records) == sum(g.task_count for g in graphs)
        job_id = 0
        for graph in graphs:
            base = job_id
            by_task = {t.task_id: base + i
                       for i, t in enumerate(graph.tasks)}
            for i, task in enumerate(graph.tasks):
                for pred in task.predecessors:
                    assert records[base + i].start_cycle >= \
                        records[by_task[pred]].completion_cycle
            job_id += graph.task_count

    def test_all_tasks_complete(self, small_store, oracle, energy_table):
        graphs = dag_test_graphs()
        sim = make_simulation("edf", small_store, oracle, energy_table,
                              validate=True)
        result = sim.run_dags(graphs)
        assert result.jobs_completed == sum(g.task_count for g in graphs)


class TestPreemptiveRequeue:
    """A running task that EDF preempts is requeued with a refund and
    still releases its successors: the one path that requeues a
    running DAG task."""

    @pytest.mark.parametrize("policy", ["base", "edf", "heft"])
    def test_requeued_tasks_keep_precedence(
        self, small_store, oracle, energy_table, policy
    ):
        graphs = dag_test_graphs(seed=11, count=8, edge_density=0.6,
                                 tasks_min=3, tasks_max=6,
                                 mean_interarrival_cycles=60_000)
        recorder = ListRecorder()
        metrics = MetricsRegistry()
        sim = make_simulation(
            policy, small_store, oracle, energy_table,
            system=paper_system(), discipline="edf", preemptive=True,
            recorder=recorder, metrics=metrics, validate=True,
        )
        result = sim.run_dags(graphs)

        assert any(isinstance(e, JobPreempted) for e in recorder.events)
        total_tasks = sum(g.task_count for g in graphs)
        assert result.jobs_completed == total_tasks
        records = {r.job_id: r for r in result.jobs}
        job_id = 0
        for graph in graphs:
            by_task = {t.task_id: job_id + i
                       for i, t in enumerate(graph.tasks)}
            for i, task in enumerate(graph.tasks):
                for pred in task.predecessors:
                    assert records[job_id + i].start_cycle >= \
                        records[by_task[pred]].completion_cycle
            job_id += graph.task_count

        assert metrics.counter("sim.validate.violations").value == 0
        report = replay_trace(recorder.events)
        assert report.completions == total_tasks
        assert not report.unfinished_jobs


class TestEdgeFreeBitIdentity:
    GRID = [
        (policy, discipline)
        for policy in ("base", "optimal", "energy_centric", "proposed",
                       "edf")
        for discipline in ("fifo", "priority", "edf")
        # An ordering policy supersedes the queue discipline, so only
        # its canonical (fifo) cell is meaningful.
        if policy != "edf" or discipline == "fifo"
    ]

    @pytest.mark.parametrize("policy,discipline", GRID)
    def test_edge_free_dag_equals_plain_run(self, small_store, oracle,
                                            energy_table, policy,
                                            discipline):
        graphs = dag_test_graphs(edge_density=0.0)
        arrivals = dag_arrivals(graphs)
        dag_result = make_simulation(
            policy, small_store, oracle, energy_table,
            discipline=discipline, engine="reference",
        ).run_dags(graphs)
        plain_result = make_simulation(
            policy, small_store, oracle, energy_table,
            discipline=discipline, engine="reference",
        ).run(arrivals)
        assert dataclasses.asdict(dag_result) == \
            dataclasses.asdict(plain_result)


class TestDeadlinePolicies:
    def test_edf_strictly_beats_fifo_on_congested_scenario(
            self, small_store, oracle, energy_table):
        graphs = congested_dag_graphs()
        misses = {}
        for policy in ("base", "edf"):
            sim = make_simulation(policy, small_store, oracle,
                                  energy_table, system=base_system())
            result = sim.run_dags(graphs)
            misses[policy] = result.deadline_misses
            assert result.deadline_jobs == \
                sum(g.task_count for g in graphs)
        assert misses["edf"] < misses["base"], misses

    def test_edf_orders_queue_by_deadline(self, small_store, oracle,
                                          energy_table):
        policy = make_policy("edf")
        sim = make_simulation("edf", small_store, oracle, energy_table)
        from repro.core.scheduler import Job

        early = Job(job_id=0, benchmark="a2time", arrival_cycle=0,
                    deadline_cycle=100)
        late = Job(job_id=1, benchmark="a2time", arrival_cycle=0,
                   deadline_cycle=900)
        unbounded = Job(job_id=2, benchmark="a2time", arrival_cycle=0)
        keys = [policy.queue_key(j, sim) for j in (late, early, unbounded)]
        assert sorted(keys) == [100.0, 900.0, float("inf")]

    def test_heft_ranks_upstream_tasks_higher(self, small_store, oracle,
                                              energy_table):
        # In a chain, the root carries the whole downstream rank, so its
        # key (negated rank + pending) must sort first.
        graphs = chain_graphs()
        policy = make_policy("heft")
        sim = make_simulation("heft", small_store, oracle, energy_table)
        from repro.core.scheduler import Job

        jobs = {
            t.task_id: Job(job_id=t.task_id, benchmark=t.benchmark,
                           arrival_cycle=0)
            for t in graphs[0].tasks
        }
        policy.observe_graphs([(graphs[0], jobs)], sim)
        keys = [policy.queue_key(jobs[tid], sim) for tid in (0, 1, 2)]
        assert keys == sorted(keys)

    def test_heft_dispatch_bumps_order_version(self, small_store, oracle,
                                               energy_table):
        policy = make_policy("heft")
        sim = make_simulation("heft", small_store, oracle, energy_table)
        from repro.core.scheduler import Job

        graphs = chain_graphs()
        jobs = {
            t.task_id: Job(job_id=t.task_id, benchmark=t.benchmark,
                           arrival_cycle=0)
            for t in graphs[0].tasks
        }
        policy.observe_graphs([(graphs[0], jobs)], sim)
        version = policy.order_version
        policy.on_dispatch(jobs[0], sim)
        assert policy.order_version > version

    def test_deadline_metrics_recorded(self, small_store, oracle,
                                       energy_table):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        sim = make_simulation("edf", small_store, oracle, energy_table,
                              metrics=registry, system=base_system())
        result = sim.run_dags(congested_dag_graphs())
        scalars = registry.scalars()
        assert scalars["sim.deadline.jobs"] == result.deadline_jobs
        assert scalars["sim.deadline.misses"] == result.deadline_misses
        assert scalars["sim.dag.graphs"] == 10
        # Non-root tasks are released by predecessor completion; the
        # congested set is edge-free, so nothing is released that way.
        assert scalars["sim.dag.tasks_released"] == 0


class TestEngineLimits:
    def test_fast_engine_rejects_ordering_policy(self, small_store,
                                                 oracle, energy_table):
        with pytest.raises(ValueError, match="policy-ordered ready "
                                             "queue"):
            make_simulation("edf", small_store, oracle, energy_table,
                            engine="fast")

    def test_fast_engine_rejects_run_dags(self, small_store, oracle,
                                          energy_table):
        sim = make_simulation("proposed", small_store, oracle,
                              energy_table, engine="fast")
        with pytest.raises(ValueError, match="precedence"):
            sim.run_dags(dag_test_graphs())

    def test_stream_rejects_ordering_policy(self, small_store, oracle,
                                            energy_table):
        # Streams run on the core alone, which refuses the policy.
        with pytest.raises(ValueError, match="discipline='edf'"):
            StreamingSimulation(
                paper_system(), make_policy("edf"), small_store,
                energy_table=energy_table, config=StreamConfig(max_jobs=4),
            )

    def test_run_dags_rejects_empty_set(self, small_store, oracle,
                                        energy_table):
        sim = make_simulation("proposed", small_store, oracle,
                              energy_table)
        with pytest.raises(ValueError, match="at least one"):
            sim.run_dags([])

    def test_run_dags_rejects_duplicate_graph_ids(self, small_store,
                                                  oracle, energy_table):
        graph = chain_graphs()[0]
        sim = make_simulation("proposed", small_store, oracle,
                              energy_table)
        with pytest.raises(ValueError, match="duplicate graph"):
            sim.run_dags([graph, graph])

    def test_run_dags_rejects_unknown_benchmark(self, small_store,
                                                oracle, energy_table):
        graph = TaskGraph(
            graph_id=0, name="alien", arrival_cycle=0,
            tasks=(TaskSpec(task_id=0, benchmark="nonesuch"),),
        )
        sim = make_simulation("proposed", small_store, oracle,
                              energy_table)
        with pytest.raises(KeyError, match="nonesuch"):
            sim.run_dags([graph])

    def test_auto_engine_routes_dags_to_reference(self, small_store,
                                                  oracle, energy_table):
        # engine='auto' with hooks off would normally take the fast
        # path; run_dags must still gate precedence on the reference
        # loop and produce ordered results.
        sim = make_simulation("proposed", small_store, oracle,
                              energy_table, engine="auto")
        result = sim.run_dags(chain_graphs())
        records = sorted(result.jobs, key=lambda r: r.job_id)
        assert records[1].start_cycle >= records[0].completion_cycle
