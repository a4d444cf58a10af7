"""Shared scenario builders for the test and benchmark suites.

One home for the simulation scaffolding that used to be copy-pasted
across ``tests/core/conftest.py``, ``tests/validate/conftest.py``,
``tests/obs/conftest.py`` and the benchmark files: the small
mixed-best-size characterisation store, the oracle predictor and the
arrival-stream builders.  The simulation factory, ``make_simulation``,
lives in :mod:`repro.core` and is re-exported here.  The per-directory
conftests stay as thin delegating wrappers (so existing
``from .conftest import ...`` sites keep working and each suite keeps
its historical gap default), but the logic lives here.
"""

from repro.characterization.explorer import characterize_suite
from repro.characterization.store import CharacterizationStore
from repro.core import make_simulation
from repro.core.policies import BasePolicy, ProposedPolicy
from repro.core.predictor import OraclePredictor
from repro.energy.tables import EnergyTable
from repro.workloads.arrivals import JobArrival, with_qos
from repro.workloads.eembc import eembc_benchmark

__all__ = [
    "BaseLikeProposedPolicy",
    "CUSTOM_POLICIES",
    "RenamedBasePolicy",
    "SUITE_NAMES",
    "arrivals_for",
    "build_energy_table",
    "build_oracle",
    "build_small_store",
    "congested_dag_graphs",
    "dag_test_graphs",
    "make_simulation",
    "qos_arrivals",
    "qos_headline_arrivals",
    "run_state",
]

#: The simulation core's knowledge attributes, updated in place by a run.
KNOWLEDGE = (
    "profiled", "pred_raw", "pred_size", "executed", "best_known", "tuned",
    "touched", "touch_order", "sessions",
)

#: Small mixed-best-size suite: 2KB, 4KB and 8KB winners.
SUITE_NAMES = ("puwmod", "idctrn", "pntrch", "a2time")


class RenamedBasePolicy(BasePolicy):
    """A plug-in policy: the base system under another name."""

    name = "renamed_base"


class BaseLikeProposedPolicy(ProposedPolicy):
    """A plug-in policy: the proposed system's profiling and predictor
    flags, but the base system's dispatch (first idle core, current
    configuration)."""

    def choose(self, job, sim):
        return BasePolicy.choose(self, job, sim)


#: Plug-in policies the simulation core does not implement: subclasses
#: of the paper's policies, which must run on the reference loop.
CUSTOM_POLICIES = (RenamedBasePolicy, BaseLikeProposedPolicy)


def build_small_store(names=SUITE_NAMES):
    """Characterise ``names`` over the full 18-config design space."""
    specs = [eembc_benchmark(name) for name in names]
    return CharacterizationStore(characterize_suite(specs))


def build_oracle(store):
    """An oracle predictor over ``store`` (perfect size predictions)."""
    return OraclePredictor(store)


def build_energy_table():
    """The default per-configuration energy model."""
    return EnergyTable()


def arrivals_for(names, gap=200_000, start=0):
    """One arrival per name, ``gap`` cycles apart."""
    return [
        JobArrival(job_id=i, benchmark=name, arrival_cycle=start + i * gap)
        for i, name in enumerate(names)
    ]


def dag_test_graphs(seed=7, count=6, edge_density=0.5, **kwargs):
    """A small dense task-graph set over the small-store benchmarks."""
    from repro.workloads.dag import generate_task_graphs

    return generate_task_graphs(
        count=count, seed=seed, benchmarks=SUITE_NAMES,
        tasks_min=kwargs.pop("tasks_min", 2),
        tasks_max=kwargs.pop("tasks_max", 5),
        edge_density=edge_density,
        mean_interarrival_cycles=kwargs.pop(
            "mean_interarrival_cycles", 150_000
        ),
        **kwargs,
    )


def congested_dag_graphs(seed=3, count=10):
    """The moderately-congested edge-free set for EDF-vs-FIFO checks.

    Interarrival well below aggregate service keeps a backlog queued
    without tipping into total overload (where EDF's domino effect can
    lose to FIFO); at these parameters deadline-order dispatch saves a
    measurable number of deadlines over arrival order.
    """
    from repro.workloads.dag import generate_task_graphs

    return generate_task_graphs(
        count=count, seed=seed, benchmarks=SUITE_NAMES,
        tasks_min=3, tasks_max=6, edge_density=0.0,
        deadline_slack=2.5, mean_interarrival_cycles=60_000,
    )


def qos_arrivals(repeats=10, gap=40_000, seed=1):
    """A priority/deadline stream dense enough to force preemptions."""
    return with_qos(
        arrivals_for(SUITE_NAMES * repeats, gap=gap),
        service_estimate=lambda name: 400_000,
        priority_levels=4,
        seed=seed,
    )


def qos_headline_arrivals(store, count=1500, seed=5,
                          mean_interarrival_cycles=70_000,
                          priority_levels=3, deadline_slack=4.0):
    """The QoS-annotated headline stream the ablation benchmarks use.

    Deadlines are ``deadline_slack`` times the base-configuration
    execution estimate from ``store``; priorities are uniform over
    ``priority_levels``.
    """
    from repro.cache import BASE_CONFIG
    from repro.workloads import eembc_suite, uniform_arrivals

    raw = uniform_arrivals(
        eembc_suite(), count=count, seed=seed,
        mean_interarrival_cycles=mean_interarrival_cycles,
    )
    return with_qos(
        raw,
        service_estimate=lambda name: store.estimate(
            name, BASE_CONFIG
        ).total_cycles,
        priority_levels=priority_levels,
        deadline_slack=deadline_slack,
        seed=seed,
    )


def run_state(core) -> dict:
    """Everything a finished simulation core holds, for ``==``.

    ``core`` is a :class:`~repro.sim.stream.StreamingSimulation` after
    its run: the run state, the knowledge attributes, both latency
    histograms' summaries and the token-pool account (``None`` when the
    core has no pool).
    """
    pool = core._power_pool
    return {
        "run": core._s,
        "knowledge": {name: getattr(core, name) for name in KNOWLEDGE},
        "waiting": core._wait_hist.snapshot(),
        "turnaround": core._turn_hist.snapshot(),
        "pool": None if pool is None else pool.state_dict(),
    }
