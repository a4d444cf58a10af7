"""DAG/task-graph workloads: precedence-constrained jobs with deadlines.

The paper evaluates independent jobs, but real traffic on heterogeneous
multicores is interleaved task graphs (Mack et al., arXiv:2112.08980).
This module supplies the pure-data side of that axis, in the STOMP mold
of a trace generator emitting random DAG arrivals with per-task
deadlines:

* :class:`TaskSpec` — one node: a benchmark, its predecessor edges, an
  optional deadline offset relative to the graph's arrival.
* :class:`TaskGraph` — one DAG arrival: id, arrival cycle, DAG-level
  criticality and the task tuple.  Validated acyclic on construction.
* :func:`generate_task_graphs` — seed-keyed random generator (layered
  forward edges, slack-scaled deadlines).
* :func:`dump_graphs` / :func:`load_graphs` — JSON round-trip mirroring
  :mod:`repro.faults.plan`, so graph sets can be saved, inspected and
  replayed byte-identically.
* :func:`dag_arrivals` — lower an *edge-free* graph set to the plain
  :class:`~repro.workloads.arrivals.JobArrival` list the closed-batch
  engines consume; this is the bridge the bit-identity tests use.

Everything here is plain data: the scheduling semantics (release on
predecessor completion, deadline accounting) live in
:meth:`repro.core.simulation.SchedulerSimulation.run_dags`.
"""

from __future__ import annotations

import json
import random

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro._util import check_finite, load_json_document

from .arrivals import JobArrival
from .eembc import EEMBC_NAMES

__all__ = [
    "TaskSpec",
    "TaskGraph",
    "check_graph_shape",
    "dag_arrivals",
    "describe_graphs",
    "dump_graphs",
    "generate_task_graphs",
    "load_graphs",
]


@dataclass(frozen=True)
class TaskSpec:
    """One node of a task graph.

    ``predecessors`` lists task ids *within the same graph* that must
    complete before this task becomes ready.  ``deadline_offset`` is
    relative to the owning graph's ``arrival_cycle`` (absolute deadlines
    are materialised when the graph is lowered to jobs), which keeps a
    graph relocatable in time without editing every task.
    """

    task_id: int
    benchmark: str
    predecessors: Tuple[int, ...] = ()
    deadline_offset: Optional[int] = None
    priority: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "predecessors", tuple(self.predecessors))
        if self.task_id < 0:
            raise ValueError("task_id must be non-negative")
        if not self.benchmark:
            raise ValueError("benchmark name must be non-empty")
        if len(set(self.predecessors)) != len(self.predecessors):
            raise ValueError(
                f"task {self.task_id} lists a duplicate predecessor"
            )
        if self.task_id in self.predecessors:
            raise ValueError(f"task {self.task_id} depends on itself")
        if self.deadline_offset is not None and self.deadline_offset < 0:
            raise ValueError("deadline_offset must be non-negative")

    @classmethod
    def from_dict(cls, payload: Dict) -> "TaskSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown TaskSpec fields: {sorted(unknown)}")
        return cls(**payload)


@dataclass(frozen=True)
class TaskGraph:
    """One DAG arrival: tasks, precedence edges, deadlines, criticality.

    ``criticality`` (≥ 1) is a DAG-level weight: deadline-aware policies
    may privilege every task of a critical graph over tasks of a routine
    one.  The constructor validates that task ids are unique, that every
    predecessor reference resolves, and that the edge set is acyclic.
    """

    graph_id: int
    name: str
    arrival_cycle: int
    criticality: int = 1
    tasks: Tuple[TaskSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "tasks",
            tuple(
                t if isinstance(t, TaskSpec) else TaskSpec.from_dict(t)
                for t in self.tasks
            ),
        )
        if self.graph_id < 0:
            raise ValueError("graph_id must be non-negative")
        if self.arrival_cycle < 0:
            raise ValueError("arrival_cycle must be non-negative")
        if self.criticality < 1:
            raise ValueError("criticality must be >= 1")
        if not self.tasks:
            raise ValueError(f"graph {self.graph_id} has no tasks")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"graph {self.graph_id} has duplicate task ids")
        known = set(ids)
        for task in self.tasks:
            for pred in task.predecessors:
                if pred not in known:
                    raise ValueError(
                        f"graph {self.graph_id} task {task.task_id} "
                        f"references unknown predecessor {pred}"
                    )
        # Kahn's algorithm doubles as the cycle check.
        self.topological_order()

    # -- structure helpers -------------------------------------------

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def edge_count(self) -> int:
        return sum(len(t.predecessors) for t in self.tasks)

    @property
    def is_edge_free(self) -> bool:
        """True when every task is independent (no precedence edges)."""
        return self.edge_count == 0

    def roots(self) -> Tuple[TaskSpec, ...]:
        """Tasks ready the moment the graph arrives."""
        return tuple(t for t in self.tasks if not t.predecessors)

    def successors(self) -> Dict[int, Tuple[int, ...]]:
        """Map of task id → ids of tasks that depend on it."""
        out: Dict[int, List[int]] = {t.task_id: [] for t in self.tasks}
        for task in self.tasks:
            for pred in task.predecessors:
                out[pred].append(task.task_id)
        return {k: tuple(v) for k, v in out.items()}

    def topological_order(self) -> Tuple[int, ...]:
        """Task ids in a deterministic topological order.

        Ties are broken by declaration order, and a cycle raises
        ``ValueError`` (this is the constructor's acyclicity check).
        """
        remaining = {
            t.task_id: set(t.predecessors) for t in self.tasks
        }
        declared = [t.task_id for t in self.tasks]
        order: List[int] = []
        while remaining:
            ready = [tid for tid in declared if tid in remaining and not remaining[tid]]
            if not ready:
                raise ValueError(
                    f"graph {self.graph_id} contains a precedence cycle"
                )
            for tid in ready:
                del remaining[tid]
                order.append(tid)
            for deps in remaining.values():
                deps.difference_update(ready)
        return tuple(order)

    def critical_path_length(self) -> int:
        """Longest root-to-leaf chain, counted in tasks."""
        depth: Dict[int, int] = {}
        by_id = {t.task_id: t for t in self.tasks}
        for tid in self.topological_order():
            preds = by_id[tid].predecessors
            depth[tid] = 1 + max((depth[p] for p in preds), default=0)
        return max(depth.values())

    # -- serialisation (FaultPlan idiom) -----------------------------

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "TaskGraph":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown TaskGraph fields: {sorted(unknown)}")
        data = dict(payload)
        data["tasks"] = tuple(
            t if isinstance(t, TaskSpec) else TaskSpec.from_dict(t)
            for t in data.get("tasks", ())
        )
        return cls(**data)

    def describe(self) -> str:
        deadlined = sum(
            1 for t in self.tasks if t.deadline_offset is not None
        )
        lines = [
            f"graph {self.graph_id} ({self.name!r}): "
            f"{self.task_count} tasks, {self.edge_count} edges, "
            f"criticality {self.criticality}, "
            f"arrives at cycle {self.arrival_cycle}",
            f"  roots: {sorted(t.task_id for t in self.roots())}, "
            f"critical path {self.critical_path_length()} tasks, "
            f"{deadlined}/{self.task_count} tasks deadlined",
        ]
        return "\n".join(lines)


def dump_graphs(graphs: Sequence[TaskGraph], path: str) -> None:
    """Write a graph set as a stable JSON document (sorted keys)."""
    payload = {"graphs": [g.to_dict() for g in graphs]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_graphs(path: str) -> List[TaskGraph]:
    """Load a graph set written by :func:`dump_graphs`.

    Raises :class:`ValueError` naming ``path`` when it does not hold a
    valid graph set.
    """

    def build(payload: Dict) -> List[TaskGraph]:
        graphs = payload.get("graphs")
        if not isinstance(graphs, list):
            raise ValueError("expected a 'graphs' list")
        return [TaskGraph.from_dict(entry) for entry in graphs]

    return load_json_document(path, "task-graph document", build)


def describe_graphs(graphs: Sequence[TaskGraph]) -> str:
    """Multi-line summary of a graph set (the CLI ``describe`` view)."""
    tasks = sum(g.task_count for g in graphs)
    edges = sum(g.edge_count for g in graphs)
    header = (
        f"{len(graphs)} task graph(s), {tasks} tasks, {edges} edges"
    )
    return "\n".join([header] + [g.describe() for g in graphs])


def check_graph_shape(
    *,
    tasks_min: int,
    tasks_max: int,
    edge_density: float,
    deadline_slack: float,
    criticality_levels: int,
) -> None:
    """Reject a graph shape :func:`generate_task_graphs` cannot draw."""
    if not 0 <= tasks_min <= tasks_max:
        raise ValueError("need 0 <= tasks_min <= tasks_max")
    if tasks_min < 1:
        raise ValueError("tasks_min must be at least 1")
    if not 0.0 <= edge_density <= 1.0:
        raise ValueError("edge_density must be within [0, 1]")
    check_finite("deadline_slack", deadline_slack)
    if criticality_levels < 1:
        raise ValueError("criticality_levels must be >= 1")


def generate_task_graphs(
    count: int = 8,
    seed: int = 0,
    *,
    benchmarks: Optional[Sequence[str]] = None,
    tasks_min: int = 3,
    tasks_max: int = 8,
    edge_density: float = 0.35,
    deadline_slack: float = 2.5,
    criticality_levels: int = 3,
    mean_interarrival_cycles: int = 250_000,
    service_estimate_cycles: int = 120_000,
    name: str = "generated",
) -> List[TaskGraph]:
    """Seed-keyed random DAG generator in the STOMP mold.

    Each graph draws a task count in ``[tasks_min, tasks_max]``, adds a
    forward edge ``i → j`` (``i < j``) with probability ``edge_density``
    (forward-only edges make acyclicity structural), and assigns each
    task a deadline offset of roughly ``depth × service_estimate_cycles
    × deadline_slack`` — deeper tasks get proportionally later
    deadlines, and smaller ``deadline_slack`` means a tighter, more
    congested scenario.  Graph arrivals advance by a uniform draw with
    the given mean.  ``edge_density=0.0`` yields edge-free graphs
    (independent tasks), the degenerate case the bit-identity tests
    lower to plain arrivals.

    Randomness is keyed per site (``f"{seed}:arrivals"`` etc.), so each
    aspect of the draw is independently stable under parameter changes
    elsewhere — the same idiom as :func:`repro.faults.plan.generate_plan`.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    check_graph_shape(
        tasks_min=tasks_min, tasks_max=tasks_max, edge_density=edge_density,
        deadline_slack=deadline_slack, criticality_levels=criticality_levels,
    )
    if mean_interarrival_cycles < 0:
        raise ValueError("mean_interarrival_cycles must be non-negative")
    if service_estimate_cycles <= 0:
        raise ValueError("service_estimate_cycles must be positive")
    names = list(benchmarks) if benchmarks is not None else list(EEMBC_NAMES)
    if not names:
        raise ValueError("need at least one benchmark name")

    arrivals_rng = random.Random(f"{seed}:arrivals")
    shape_rng = random.Random(f"{seed}:shape")
    edge_rng = random.Random(f"{seed}:edges")
    deadline_rng = random.Random(f"{seed}:deadlines")
    crit_rng = random.Random(f"{seed}:criticality")

    graphs: List[TaskGraph] = []
    arrival = 0
    for graph_id in range(count):
        n_tasks = shape_rng.randint(tasks_min, tasks_max)
        preds: List[List[int]] = [[] for _ in range(n_tasks)]
        for j in range(1, n_tasks):
            for i in range(j):
                if edge_rng.random() < edge_density:
                    preds[j].append(i)
        depth = [0] * n_tasks
        for j in range(n_tasks):
            depth[j] = 1 + max((depth[i] for i in preds[j]), default=0)
        tasks = []
        for tid in range(n_tasks):
            try:
                offset = int(
                    depth[tid]
                    * service_estimate_cycles
                    * deadline_slack
                    * deadline_rng.uniform(0.8, 1.2)
                )
            except OverflowError:
                raise ValueError(
                    f"deadline_slack {deadline_slack!r} overflows the "
                    "deadline offsets"
                ) from None
            tasks.append(
                TaskSpec(
                    task_id=tid,
                    benchmark=shape_rng.choice(names),
                    predecessors=tuple(preds[tid]),
                    deadline_offset=offset,
                )
            )
        graphs.append(
            TaskGraph(
                graph_id=graph_id,
                name=f"{name}-{graph_id}",
                arrival_cycle=arrival,
                criticality=crit_rng.randint(1, criticality_levels),
                tasks=tuple(tasks),
            )
        )
        arrival += arrivals_rng.randint(0, 2 * mean_interarrival_cycles)
    return graphs


def dag_arrivals(graphs: Sequence[TaskGraph]) -> List[JobArrival]:
    """Lower *edge-free* graphs to the equivalent plain arrival list.

    Job ids are assigned globally in graph order then task order —
    exactly the numbering
    :meth:`~repro.core.simulation.SchedulerSimulation.run_dags` uses —
    so an edge-free DAG run and the lowered plain run are comparable
    job-for-job.  Graphs with precedence edges cannot be lowered (their
    release times depend on execution) and raise ``ValueError``.
    """
    arrivals: List[JobArrival] = []
    job_id = 0
    for graph in graphs:
        if not graph.is_edge_free:
            raise ValueError(
                f"graph {graph.graph_id} has precedence edges and cannot "
                "be lowered to independent arrivals"
            )
        for task in graph.tasks:
            deadline = (
                None
                if task.deadline_offset is None
                else graph.arrival_cycle + task.deadline_offset
            )
            arrivals.append(
                JobArrival(
                    job_id=job_id,
                    benchmark=task.benchmark,
                    arrival_cycle=graph.arrival_cycle,
                    priority=task.priority,
                    deadline_cycle=deadline,
                )
            )
            job_id += 1
    return arrivals
