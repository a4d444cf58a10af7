"""Property-based tests for arrival-stream generation."""

from hypothesis import given, settings, strategies as st

from repro.workloads.arrivals import (
    DiurnalProcess,
    JobArrival,
    MMPPProcess,
    PoissonProcess,
    QoSProcess,
    poisson_arrivals,
    uniform_arrivals,
    with_qos,
)
from repro.workloads.eembc import eembc_suite


class TestUniformArrivalProperties:
    @given(count=st.integers(1, 300), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_sorted_and_sized(self, count, seed):
        arrivals = uniform_arrivals(eembc_suite(), count=count, seed=seed)
        times = [a.arrival_cycle for a in arrivals]
        assert len(arrivals) == count
        assert times == sorted(times)
        assert [a.job_id for a in arrivals] == list(range(count))

    @given(
        count=st.integers(1, 200),
        horizon=st.integers(1, 10**8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_within_horizon(self, count, horizon, seed):
        arrivals = uniform_arrivals(
            eembc_suite(), count=count, horizon_cycles=horizon, seed=seed
        )
        assert all(0 <= a.arrival_cycle < horizon for a in arrivals)

    @given(count=st.integers(1, 100), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_poisson_sorted(self, count, seed):
        arrivals = poisson_arrivals(eembc_suite(), count=count, seed=seed)
        times = [a.arrival_cycle for a in arrivals]
        assert times == sorted(times)


class TestQosAnnotationProperties:
    @given(
        count=st.integers(1, 100),
        levels=st.integers(1, 8),
        slack=st.floats(min_value=0.5, max_value=20.0, allow_nan=False),
        fraction=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50, deadline=None)
    def test_annotation_invariants(self, count, levels, slack, fraction,
                                   seed):
        arrivals = uniform_arrivals(eembc_suite(), count=count, seed=seed)
        annotated = with_qos(
            arrivals,
            service_estimate=lambda name: 50_000,
            priority_levels=levels,
            deadline_slack=slack,
            deadline_fraction=fraction,
            seed=seed,
        )
        assert len(annotated) == count
        for before, after in zip(arrivals, annotated):
            # Identity fields untouched.
            assert after.job_id == before.job_id
            assert after.benchmark == before.benchmark
            assert after.arrival_cycle == before.arrival_cycle
            # Annotations within bounds.
            assert 0 <= after.priority < levels
            if after.deadline_cycle is not None:
                assert after.deadline_cycle == before.arrival_cycle + int(
                    round(slack * 50_000)
                )

    @given(count=st.integers(1, 60), seed=st.integers(0, 50))
    @settings(max_examples=30, deadline=None)
    def test_fraction_extremes(self, count, seed):
        arrivals = uniform_arrivals(eembc_suite(), count=count, seed=seed)
        none = with_qos(arrivals, service_estimate=lambda n: 1000,
                        deadline_fraction=0.0, seed=seed)
        assert all(a.deadline_cycle is None for a in none)
        every = with_qos(arrivals, service_estimate=lambda n: 1000,
                         deadline_fraction=1.0, seed=seed)
        assert all(a.deadline_cycle is not None for a in every)


def _assert_validated_rows(rows):
    """Every bulk-built row is exactly what the checking constructor
    builds from its fields, with plain Python field values."""
    for row in rows:
        assert type(row) is JobArrival
        assert row == JobArrival(**row._asdict())
        assert type(row.job_id) is int and type(row.arrival_cycle) is int
        assert type(row.benchmark) is str


class TestBulkRowsAreValidatedRows:
    @given(
        count=st.integers(1, 300),
        gap=st.integers(1, 10**9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_uniform(self, count, gap, seed):
        _assert_validated_rows(uniform_arrivals(
            eembc_suite(), count=count, mean_interarrival_cycles=gap,
            seed=seed,
        ))

    @given(
        cls=st.sampled_from((PoissonProcess, MMPPProcess, DiurnalProcess)),
        gap=st.floats(1.0, 1e9),
        chunk=st.integers(1, 300),
        chunks=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_processes(self, cls, gap, chunk, chunks, seed):
        process = cls(
            eembc_suite(), mean_interarrival_cycles=gap, seed=seed,
            chunk=chunk,
        )
        rows = [row for _ in range(chunks) for row in process.next_chunk()]
        _assert_validated_rows(rows)
        assert [row.job_id for row in rows] == list(range(chunk * chunks))

    @given(
        gap=st.floats(1.0, 1e9),
        chunk=st.integers(1, 300),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_qos(self, gap, chunk, fraction, seed):
        def inner():
            return PoissonProcess(
                eembc_suite(), mean_interarrival_cycles=gap, seed=seed,
                chunk=chunk,
            )

        qos = dict(service_estimate=lambda name: 40_000, priority_levels=4,
                   deadline_fraction=fraction, seed=seed)
        streamed = QoSProcess(inner(), **qos).take(2 * chunk)
        _assert_validated_rows(streamed)
        batched = with_qos(inner().take(2 * chunk), **qos)
        _assert_validated_rows(batched)
        assert streamed == batched

    @given(
        count=st.integers(1, 2500),
        gap=st.floats(1.0, 1e9),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_take_is_poisson_arrivals(self, count, gap, seed):
        process = PoissonProcess(
            eembc_suite(), mean_interarrival_cycles=gap, seed=seed
        )
        assert process.take(count) == poisson_arrivals(
            eembc_suite(), count=count, mean_interarrival_cycles=gap,
            seed=seed,
        )
