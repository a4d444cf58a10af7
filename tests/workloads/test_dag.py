"""Tests for the DAG/task-graph workload model and generator."""

import dataclasses

import pytest

from repro.workloads.dag import (
    TaskGraph,
    TaskSpec,
    dag_arrivals,
    describe_graphs,
    dump_graphs,
    generate_task_graphs,
    load_graphs,
)
from repro.workloads.eembc import EEMBC_NAMES


def chain_graph(graph_id=0, arrival=0, benchmarks=("a2time", "puwmod",
                                                   "idctrn")):
    """A three-task chain 0 -> 1 -> 2."""
    return TaskGraph(
        graph_id=graph_id,
        name="chain",
        arrival_cycle=arrival,
        tasks=(
            TaskSpec(task_id=0, benchmark=benchmarks[0]),
            TaskSpec(task_id=1, benchmark=benchmarks[1],
                     predecessors=(0,)),
            TaskSpec(task_id=2, benchmark=benchmarks[2],
                     predecessors=(1,), deadline_offset=2_000_000),
        ),
    )


class TestTaskSpec:
    def test_predecessors_normalised_to_tuple(self):
        spec = TaskSpec(task_id=1, benchmark="a2time", predecessors=[0])
        assert spec.predecessors == (0,)

    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            TaskSpec(task_id=-1, benchmark="a2time")

    def test_empty_benchmark_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            TaskSpec(task_id=0, benchmark="")

    def test_duplicate_predecessor_rejected(self):
        with pytest.raises(ValueError, match="duplicate predecessor"):
            TaskSpec(task_id=2, benchmark="a2time", predecessors=(0, 0))

    def test_self_dependency_rejected(self):
        with pytest.raises(ValueError, match="depends on itself"):
            TaskSpec(task_id=1, benchmark="a2time", predecessors=(1,))

    def test_negative_deadline_offset_rejected(self):
        with pytest.raises(ValueError, match="deadline_offset"):
            TaskSpec(task_id=0, benchmark="a2time", deadline_offset=-1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown TaskSpec fields"):
            TaskSpec.from_dict({"task_id": 0, "benchmark": "a2time",
                                "wcet": 5})


class TestTaskGraph:
    def test_structure_helpers(self):
        graph = chain_graph()
        assert graph.task_count == 3
        assert graph.edge_count == 2
        assert not graph.is_edge_free
        assert [t.task_id for t in graph.roots()] == [0]
        assert graph.successors() == {0: (1,), 1: (2,), 2: ()}
        assert graph.topological_order() == (0, 1, 2)
        assert graph.critical_path_length() == 3

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="precedence cycle"):
            TaskGraph(
                graph_id=0, name="cyclic", arrival_cycle=0,
                tasks=(
                    TaskSpec(task_id=0, benchmark="a2time",
                             predecessors=(1,)),
                    TaskSpec(task_id=1, benchmark="puwmod",
                             predecessors=(0,)),
                ),
            )

    def test_unknown_predecessor_rejected(self):
        with pytest.raises(ValueError, match="unknown predecessor 9"):
            TaskGraph(
                graph_id=0, name="dangling", arrival_cycle=0,
                tasks=(TaskSpec(task_id=0, benchmark="a2time",
                                predecessors=(9,)),),
            )

    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate task ids"):
            TaskGraph(
                graph_id=0, name="dup", arrival_cycle=0,
                tasks=(TaskSpec(task_id=0, benchmark="a2time"),
                       TaskSpec(task_id=0, benchmark="puwmod")),
            )

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="has no tasks"):
            TaskGraph(graph_id=0, name="empty", arrival_cycle=0)

    def test_criticality_floor(self):
        with pytest.raises(ValueError, match="criticality"):
            TaskGraph(
                graph_id=0, name="c", arrival_cycle=0, criticality=0,
                tasks=(TaskSpec(task_id=0, benchmark="a2time"),),
            )

    def test_dict_tasks_coerced(self):
        graph = TaskGraph(
            graph_id=0, name="dicts", arrival_cycle=0,
            tasks=({"task_id": 0, "benchmark": "a2time"},),
        )
        assert isinstance(graph.tasks[0], TaskSpec)

    def test_round_trip_through_dict(self):
        graph = chain_graph()
        assert TaskGraph.from_dict(graph.to_dict()) == graph

    def test_from_dict_rejects_unknown_fields(self):
        payload = chain_graph().to_dict()
        payload["colour"] = "blue"
        with pytest.raises(ValueError, match="unknown TaskGraph fields"):
            TaskGraph.from_dict(payload)

    def test_describe_mentions_structure(self):
        text = chain_graph().describe()
        assert "3 tasks, 2 edges" in text
        assert "critical path 3 tasks" in text


class TestSerialisation:
    def test_file_round_trip(self, tmp_path):
        graphs = generate_task_graphs(count=4, seed=9)
        path = tmp_path / "graphs.json"
        dump_graphs(graphs, path)
        assert load_graphs(path) == graphs

    def test_dump_is_byte_deterministic(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            dump_graphs(generate_task_graphs(count=3, seed=4), path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_load_rejects_non_document(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="task-graph document"):
            load_graphs(path)

    def test_describe_graphs_header(self):
        graphs = generate_task_graphs(count=3, seed=0)
        text = describe_graphs(graphs)
        assert text.startswith("3 task graph(s)")


class TestGenerator:
    def test_deterministic(self):
        assert generate_task_graphs(count=6, seed=13) == \
            generate_task_graphs(count=6, seed=13)

    def test_seed_changes_output(self):
        assert generate_task_graphs(count=6, seed=1) != \
            generate_task_graphs(count=6, seed=2)

    def test_shapes_respect_bounds(self):
        graphs = generate_task_graphs(count=20, seed=3, tasks_min=2,
                                      tasks_max=5)
        assert all(2 <= g.task_count <= 5 for g in graphs)
        assert all(g.criticality >= 1 for g in graphs)
        assert {t.benchmark for g in graphs for t in g.tasks} <= \
            set(EEMBC_NAMES)

    def test_edge_density_zero_is_edge_free(self):
        graphs = generate_task_graphs(count=10, seed=5, edge_density=0.0)
        assert all(g.is_edge_free for g in graphs)

    def test_edge_density_one_is_a_total_order(self):
        graphs = generate_task_graphs(count=5, seed=5, edge_density=1.0)
        for graph in graphs:
            assert graph.critical_path_length() == graph.task_count

    def test_every_task_deadlined_with_positive_offset(self):
        graphs = generate_task_graphs(count=8, seed=2)
        for graph in graphs:
            for task in graph.tasks:
                assert task.deadline_offset is not None
                assert task.deadline_offset > 0

    def test_deeper_tasks_get_later_deadline_scale(self):
        # With the ±20% jitter, depth d's offset lies in
        # [0.8, 1.2] x d x slack x estimate: check the depth anchor.
        graphs = generate_task_graphs(count=10, seed=6, edge_density=0.6,
                                      deadline_slack=2.0,
                                      service_estimate_cycles=100_000)
        for graph in graphs:
            by_id = {t.task_id: t for t in graph.tasks}
            depth = {}
            for tid in graph.topological_order():
                preds = by_id[tid].predecessors
                depth[tid] = 1 + max((depth[p] for p in preds), default=0)
            for tid, task in by_id.items():
                low = 0.8 * depth[tid] * 2.0 * 100_000
                high = 1.2 * depth[tid] * 2.0 * 100_000
                assert low <= task.deadline_offset <= high

    def test_arrivals_non_decreasing(self):
        graphs = generate_task_graphs(count=12, seed=8)
        times = [g.arrival_cycle for g in graphs]
        assert times == sorted(times)

    @pytest.mark.parametrize("kwargs,match", [
        (dict(count=0), "count must be positive"),
        (dict(tasks_min=4, tasks_max=2), "tasks_min <= tasks_max"),
        (dict(tasks_min=0, tasks_max=0), "at least 1"),
        (dict(edge_density=1.5), "edge_density"),
        (dict(deadline_slack=0.0), "deadline_slack"),
        (dict(criticality_levels=0), "criticality_levels"),
        (dict(mean_interarrival_cycles=-1), "mean_interarrival_cycles"),
        (dict(service_estimate_cycles=0), "service_estimate_cycles"),
        (dict(benchmarks=[]), "at least one benchmark"),
        (dict(deadline_slack=float("nan")), "deadline_slack"),
        (dict(deadline_slack=float("inf")), "deadline_slack"),
        (dict(deadline_slack=1e308), "deadline_slack .* overflows"),
    ])
    def test_parameter_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            generate_task_graphs(seed=0, **kwargs)


class TestDagArrivals:
    def test_lowering_matches_run_dags_numbering(self):
        graphs = generate_task_graphs(count=4, seed=3, edge_density=0.0)
        arrivals = dag_arrivals(graphs)
        assert [a.job_id for a in arrivals] == list(range(len(arrivals)))
        assert len(arrivals) == sum(g.task_count for g in graphs)
        index = 0
        for graph in graphs:
            for task in graph.tasks:
                arrival = arrivals[index]
                assert arrival.benchmark == task.benchmark
                assert arrival.arrival_cycle == graph.arrival_cycle
                assert arrival.deadline_cycle == \
                    graph.arrival_cycle + task.deadline_offset
                index += 1

    def test_edges_cannot_be_lowered(self):
        graphs = generate_task_graphs(count=6, seed=7, edge_density=1.0)
        with pytest.raises(ValueError, match="cannot be lowered"):
            dag_arrivals(graphs)

    def test_undeadlined_task_stays_undeadlined(self):
        graph = TaskGraph(
            graph_id=0, name="plain", arrival_cycle=100,
            tasks=(TaskSpec(task_id=0, benchmark="a2time"),),
        )
        (arrival,) = dag_arrivals([graph])
        assert arrival.deadline_cycle is None
