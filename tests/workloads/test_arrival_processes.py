"""Streaming arrival processes: prefix equivalence and checkpointing.

Satellite of the open-system streaming work.  The load-bearing property
is **prefix equivalence**: a streaming generator with a given seed must
emit exactly what the closed-batch materialiser produces with the same
seed — for any truncation point, including ones that are not chunk
multiples.  That is what makes a finite stream bit-identical to a
closed-batch run, which in turn is what makes the streaming engine
testable against the fast-engine oracle at all.

The second property is exact resumability: ``state_dict()`` /
``load_state()`` must capture the full stream position (RNG, clock,
phase, next job id) so a checkpointed stream continues bit-identically
in a fresh process object.
"""

import json
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.arrivals import (
    PROCESS_KINDS,
    STREAM_CHUNK,
    ArrivalProcess,
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    QoSProcess,
    make_process,
    poisson_arrivals,
    with_qos,
)
from repro.workloads.eembc import eembc_benchmark

SPECS = [eembc_benchmark(name) for name in ("puwmod", "idctrn", "pntrch")]


def _processes(seed=0, chunk=STREAM_CHUNK):
    """One instance of every factory-constructible process kind."""
    return [
        make_process(
            kind, SPECS, mean_interarrival_cycles=40_000.0,
            seed=seed, chunk=chunk,
        )
        for kind in PROCESS_KINDS
    ]


class TestPrefixEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=3 * STREAM_CHUNK + 7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_stream_prefix_matches_closed_batch(self, count, seed):
        """PoissonProcess.take(n) IS poisson_arrivals(count=n)."""
        batch = poisson_arrivals(
            SPECS, count=count, mean_interarrival_cycles=40_000.0,
            seed=seed,
        )
        stream = PoissonProcess(
            SPECS, mean_interarrival_cycles=40_000.0, seed=seed
        ).take(count)
        assert stream == batch

    @settings(max_examples=15, deadline=None)
    @given(
        short=st.integers(min_value=1, max_value=2 * STREAM_CHUNK),
        extra=st.integers(min_value=1, max_value=2 * STREAM_CHUNK),
        kind=st.sampled_from(PROCESS_KINDS),
    )
    def test_truncation_is_prefix_stable(self, short, extra, kind):
        """The first N jobs never depend on how far the stream runs."""
        a = make_process(kind, SPECS, seed=11).take(short)
        b = make_process(kind, SPECS, seed=11).take(short + extra)
        assert b[:short] == a

    def test_chunk_boundary_exactness(self):
        """Counts at, straddling and just past the chunk size agree."""
        for count in (STREAM_CHUNK - 1, STREAM_CHUNK, STREAM_CHUNK + 1):
            batch = poisson_arrivals(SPECS, count=count, seed=3)
            stream = PoissonProcess(SPECS, seed=3).take(count)
            assert stream == batch, count

    def test_qos_process_matches_with_qos(self):
        """QoS annotation draws job-by-job in with_qos's exact order."""
        count = STREAM_CHUNK + 100
        estimate = lambda name: 400_000  # noqa: E731
        inner = PoissonProcess(SPECS, seed=5)
        streamed = QoSProcess(
            inner,
            service_estimate=estimate,
            priority_levels=4,
            deadline_slack=2.5,
            deadline_fraction=0.7,
            seed=9,
        ).take(count)
        batched = with_qos(
            PoissonProcess(SPECS, seed=5).take(count),
            service_estimate=estimate,
            priority_levels=4,
            deadline_slack=2.5,
            deadline_fraction=0.7,
            seed=9,
        )
        assert streamed == batched


class TestStreamWellFormedness:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_monotone_times_and_consecutive_ids(self, kind):
        jobs = make_process(kind, SPECS, seed=2).take(3_000)
        assert [j.job_id for j in jobs] == list(range(3_000))
        times = [j.arrival_cycle for j in jobs]
        assert times == sorted(times)
        assert all(j.benchmark in {s.name for s in SPECS} for j in jobs)

    def test_mmpp_is_burstier_than_poisson(self):
        """Phase switching lifts the gap CV above the exponential's 1."""
        n = 20_000
        poisson = PoissonProcess(
            SPECS, mean_interarrival_cycles=40_000.0, seed=1
        ).take(n)
        mmpp = MMPPProcess(
            SPECS,
            mean_interarrival_cycles=40_000.0,
            burst_factor=8.0,
            mean_normal_sojourn_cycles=5_000_000.0,
            mean_burst_sojourn_cycles=5_000_000.0,
            seed=1,
        ).take(n)

        def gap_cv2(jobs):
            """Squared coefficient of variation of the inter-arrival
            gaps — dimensionless, so the burst phase's smaller mean gap
            does not mask the extra variability it adds."""
            gaps = [
                b.arrival_cycle - a.arrival_cycle
                for a, b in zip(jobs, jobs[1:])
            ]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var / mean**2

        assert gap_cv2(mmpp) > 1.2 * gap_cv2(poisson)

    def test_diurnal_rate_oscillates(self):
        """More arrivals land in the high-rate half of each period."""
        period = 10_000_000.0
        jobs = DiurnalProcess(
            SPECS,
            mean_interarrival_cycles=20_000.0,
            period_cycles=period,
            amplitude=0.9,
            seed=4,
        ).take(20_000)
        high = sum(
            1 for j in jobs
            if (j.arrival_cycle % period) < period / 2
        )
        assert high > 0.55 * len(jobs)


class TestCheckpointing:
    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_state_round_trip_mid_stream(self, kind):
        """Snapshot at an arbitrary point, restore, continue identically."""
        original = make_process(kind, SPECS, seed=6)
        original.take(2 * STREAM_CHUNK)  # advance to a mid-stream point
        state = json.loads(json.dumps(original.state_dict()))

        restored = make_process(kind, SPECS, seed=6)
        restored.load_state(state)
        assert restored.take(1_500) == original.take(1_500)

    def test_qos_state_round_trip(self):
        def build():
            return QoSProcess(
                PoissonProcess(SPECS, seed=6),
                service_estimate=lambda name: 400_000,
                priority_levels=4,
                seed=8,
            )

        original = build()
        original.take(STREAM_CHUNK + 10)
        state = json.loads(json.dumps(original.state_dict()))
        restored = build()
        restored.load_state(state)
        assert restored.take(800) == original.take(800)

    @pytest.mark.parametrize("kind,key,value,message", [
        ("poisson", "next_id", -1, "poisson process 'next_id' must be >= 0"),
        ("poisson", "rng", None, "poisson process 'rng' must be a PCG64"),
        ("diurnal", "clock", "x", "diurnal process 'clock'"),
        ("diurnal", "clock", float("nan"), "diurnal process 'clock'"),
        ("mmpp", "clock", -2.0, "mmpp process 'clock' must be >= 0"),
        ("mmpp", "phase", 2, "mmpp process 'phase' must be <= 1"),
        ("mmpp", "phase", "x", "mmpp process 'phase'"),
        ("mmpp", "phase_end", None, "mmpp process 'phase_end'"),
        ("mmpp", "phase_end", 1.0, "'phase_end' 1.0 is before its 'clock'"),
    ])
    def test_bad_state_is_named_and_loads_nothing(
        self, kind, key, value, message
    ):
        """Every field is checked before any is restored."""
        original = make_process(kind, SPECS, seed=6)
        original.take(STREAM_CHUNK)
        state = json.loads(json.dumps(original.state_dict()))
        state[key] = value
        fresh = make_process(kind, SPECS, seed=6)
        before = fresh.state_dict()
        with pytest.raises(ValueError, match=re.escape(message)):
            fresh.load_state(state)
        assert fresh.state_dict() == before

    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_params_fingerprint_carries_configuration(self, kind):
        process = make_process(
            kind, SPECS, mean_interarrival_cycles=33_000.0, seed=12
        )
        params = process.params()
        assert params["kind"] == kind
        assert params["seed"] == 12
        assert params["mean_interarrival_cycles"] == 33_000.0
        assert params["names"] == [s.name for s in SPECS]
        # JSON-serialisable: it is embedded in checkpoint files.
        assert json.loads(json.dumps(params)) == params


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_process("uniform", SPECS)

    def test_empty_specs(self):
        with pytest.raises(ValueError, match="benchmark spec"):
            PoissonProcess([])

    def test_bad_chunk(self):
        with pytest.raises(ValueError, match="chunk"):
            PoissonProcess(SPECS, chunk=0)

    def test_take_requires_positive_count(self):
        with pytest.raises(ValueError, match="count"):
            PoissonProcess(SPECS).take(0)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ArrivalProcess(SPECS).next_chunk()

    def test_mmpp_validation(self):
        with pytest.raises(ValueError, match="burst_factor"):
            MMPPProcess(SPECS, burst_factor=0.5)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError, match="amplitude"):
            DiurnalProcess(SPECS, amplitude=1.0)

    # NaN compares false against every bound, so a ``<= 0`` check lets
    # it through, and a NaN rate spins the rejection loops of
    # ``next_chunk`` forever.  These tests never call ``next_chunk``.
    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize("cls,field", [
        (PoissonProcess, "mean_interarrival_cycles"),
        (MMPPProcess, "mean_interarrival_cycles"),
        (MMPPProcess, "burst_factor"),
        (MMPPProcess, "mean_normal_sojourn_cycles"),
        (MMPPProcess, "mean_burst_sojourn_cycles"),
        (DiurnalProcess, "mean_interarrival_cycles"),
        (DiurnalProcess, "period_cycles"),
    ], ids=lambda p: p if isinstance(p, str) else p.__name__)
    def test_non_finite_parameters_rejected(self, cls, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be .* "
                                             f"and finite, got {value}$"):
            cls(SPECS, **{field: value})

    # A huge mean gap drives the clock past int64 within one chunk; the
    # cast would wrap it negative (with a RuntimeWarning), so the clock
    # is rejected first, naming the parameter.
    @pytest.mark.parametrize("cls,extra", [
        (PoissonProcess, {}),
        (MMPPProcess, {"mean_normal_sojourn_cycles": 1e30,
                       "mean_burst_sojourn_cycles": 1e30}),
        (DiurnalProcess, {}),
    ], ids=lambda p: p.__name__ if isinstance(p, type) else "")
    def test_clock_past_int64_names_the_gap(self, cls, extra):
        process = cls(SPECS, mean_interarrival_cycles=1e17, **extra)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="^mean_interarrival_cycles is too "
                                     "large"):
                process.next_chunk()

    def test_qos_validation(self):
        inner = PoissonProcess(SPECS)
        with pytest.raises(ValueError, match="priority_levels"):
            QoSProcess(
                inner, service_estimate=lambda n: 1, priority_levels=0
            )
