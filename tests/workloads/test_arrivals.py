"""Tests for arrival-stream generation."""

import pytest

from repro.workloads.arrivals import (
    DiurnalProcess,
    JobArrival,
    MMPPProcess,
    PoissonProcess,
    QoSProcess,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.workloads.eembc import EEMBC_NAMES, eembc_suite


class TestUniformArrivals:
    def test_count(self):
        arrivals = uniform_arrivals(eembc_suite(), count=100, seed=0)
        assert len(arrivals) == 100

    def test_paper_default_count(self):
        arrivals = uniform_arrivals(eembc_suite(), seed=0)
        assert len(arrivals) == 5000

    def test_times_sorted_and_in_horizon(self):
        arrivals = uniform_arrivals(
            eembc_suite(), count=200, horizon_cycles=1_000_000, seed=1
        )
        times = [a.arrival_cycle for a in arrivals]
        assert times == sorted(times)
        assert all(0 <= t < 1_000_000 for t in times)

    def test_job_ids_sequential(self):
        arrivals = uniform_arrivals(eembc_suite(), count=50, seed=0)
        assert [a.job_id for a in arrivals] == list(range(50))

    def test_benchmarks_from_suite(self):
        arrivals = uniform_arrivals(eembc_suite(), count=300, seed=2)
        assert {a.benchmark for a in arrivals} <= set(EEMBC_NAMES)

    def test_all_benchmarks_eventually_drawn(self):
        arrivals = uniform_arrivals(eembc_suite(), count=2000, seed=3)
        assert {a.benchmark for a in arrivals} == set(EEMBC_NAMES)

    def test_deterministic(self):
        a = uniform_arrivals(eembc_suite(), count=100, seed=7)
        b = uniform_arrivals(eembc_suite(), count=100, seed=7)
        assert a == b

    def test_seed_changes_stream(self):
        a = uniform_arrivals(eembc_suite(), count=100, seed=1)
        b = uniform_arrivals(eembc_suite(), count=100, seed=2)
        assert a != b

    def test_default_horizon_from_interarrival(self):
        arrivals = uniform_arrivals(
            eembc_suite(), count=100, seed=0, mean_interarrival_cycles=1000
        )
        assert max(a.arrival_cycle for a in arrivals) < 100 * 1000

    def test_validation(self):
        with pytest.raises(ValueError):
            uniform_arrivals(eembc_suite(), count=0)
        with pytest.raises(ValueError):
            uniform_arrivals(eembc_suite(), count=10, horizon_cycles=0)
        with pytest.raises(ValueError):
            uniform_arrivals([], count=10)

    @pytest.mark.parametrize("gap", [float("nan"), float("inf")])
    def test_non_finite_gap_rejected(self, gap):
        with pytest.raises(ValueError, match="horizon_cycles must be "
                                             "positive and finite"):
            uniform_arrivals(eembc_suite(), count=10,
                             mean_interarrival_cycles=gap)


class TestPoissonArrivals:
    def test_count_and_order(self):
        arrivals = poisson_arrivals(eembc_suite(), count=100, seed=0)
        times = [a.arrival_cycle for a in arrivals]
        assert len(arrivals) == 100
        assert times == sorted(times)

    def test_mean_interarrival_close(self):
        arrivals = poisson_arrivals(
            eembc_suite(), count=5000, mean_interarrival_cycles=10_000, seed=1
        )
        span = arrivals[-1].arrival_cycle - arrivals[0].arrival_cycle
        mean_gap = span / (len(arrivals) - 1)
        assert 9_000 < mean_gap < 11_000

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(eembc_suite(), count=0)
        with pytest.raises(ValueError):
            poisson_arrivals(eembc_suite(), count=5, mean_interarrival_cycles=0)


class TestHorizonOverflow:
    def test_mean_gap_past_the_cycle_clock(self):
        with pytest.raises(ValueError,
                           match="^mean_interarrival_cycles is too large"):
            uniform_arrivals(eembc_suite(), count=10,
                             mean_interarrival_cycles=2 * 10**18)

    def test_horizon_past_the_cycle_clock(self):
        with pytest.raises(ValueError, match="^horizon_cycles is too large"):
            uniform_arrivals(eembc_suite(), count=10, horizon_cycles=2**63)

    def test_largest_horizon_still_draws(self):
        arrivals = uniform_arrivals(
            eembc_suite(), count=10, horizon_cycles=2**63 - 1
        )
        assert all(0 <= a.arrival_cycle < 2**63 - 1 for a in arrivals)


class TestJobArrival:
    def test_validation(self):
        with pytest.raises(ValueError, match="^job_id must be non-negative$"):
            JobArrival(job_id=-1, benchmark="x", arrival_cycle=0)
        with pytest.raises(ValueError,
                           match="^arrival_cycle must be non-negative$"):
            JobArrival(job_id=0, benchmark="x", arrival_cycle=-1)
        with pytest.raises(ValueError,
                           match="^deadline cannot precede the arrival$"):
            JobArrival(job_id=0, benchmark="x", arrival_cycle=5,
                       deadline_cycle=4)

    def test_positional_and_default_fields(self):
        arrival = JobArrival(3, "x", 10)
        assert arrival == JobArrival(job_id=3, benchmark="x",
                                     arrival_cycle=10, priority=0,
                                     deadline_cycle=None)
        assert arrival == (3, "x", 10, 0, None)
        assert repr(arrival) == (
            "JobArrival(job_id=3, benchmark='x', arrival_cycle=10, "
            "priority=0, deadline_cycle=None)"
        )

    def test_replace_is_checked(self):
        arrival = JobArrival(job_id=0, benchmark="x", arrival_cycle=5)
        moved = arrival._replace(priority=2, deadline_cycle=9)
        assert type(moved) is JobArrival
        assert moved == (0, "x", 5, 2, 9)
        with pytest.raises(ValueError, match="deadline cannot precede"):
            arrival._replace(deadline_cycle=4)
        with pytest.raises(ValueError, match="unexpected field names"):
            arrival._replace(cycle=4)


_SUITE = eembc_suite()

#: Every generator that builds its rows in bulk, one small draw each.
_GENERATORS = {
    "uniform": lambda: uniform_arrivals(_SUITE, count=300, seed=4),
    "poisson": lambda: poisson_arrivals(_SUITE, count=300, seed=4),
    "PoissonProcess": lambda: PoissonProcess(_SUITE, seed=4).next_chunk(),
    "MMPPProcess": lambda: MMPPProcess(_SUITE, seed=4).next_chunk(),
    "DiurnalProcess": lambda: DiurnalProcess(_SUITE, seed=4).next_chunk(),
    "QoSProcess": lambda: QoSProcess(
        PoissonProcess(_SUITE, seed=4),
        service_estimate=lambda name: 400_000,
        deadline_fraction=0.5, seed=4,
    ).next_chunk(),
}


@pytest.mark.parametrize("generator", sorted(_GENERATORS))
def test_generated_rows_are_plain_job_arrivals(generator):
    """Rows built in C, without ``JobArrival.__new__``'s checks, are
    still exact ``JobArrival``s of plain Python values (no numpy
    scalars), equal to the checked row built from the same fields."""
    rows = _GENERATORS[generator]()
    assert rows
    for row in rows:
        assert type(row) is JobArrival
        job_id, benchmark, arrival_cycle, priority, deadline = row
        assert type(job_id) is int and type(arrival_cycle) is int
        assert type(benchmark) is str and type(priority) is int
        assert deadline is None or type(deadline) is int
        assert row == JobArrival(*row)
