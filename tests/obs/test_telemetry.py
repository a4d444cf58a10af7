"""Sampled telemetry: non-perturbation and determinism.

The telemetry contract (:mod:`repro.obs.telemetry`) has two legs,
each pinned here:

* **Non-perturbation** — a telemetry-on run is bit-identical to a
  telemetry-off run on both engines: same result object AND the same
  post-run simulation state, across the golden policy × discipline ×
  preemption grid.
* **Determinism** — a fixed run always produces byte-identical
  telemetry and sampled-trace files (no wall-clock leaks into them).

Plus the integration seams: sampled trace events round-trip through
the typed-event schema and the trace report, the fast/auto engine
selection treats telemetry as fast-path-compatible, and the rejection
paths fail loudly.
"""

import dataclasses
import itertools
import json

import pytest

from repro.core.simulation import SchedulerSimulation
from repro.core.policies import POLICY_NAMES, make_policy
from repro.core.system import base_system, paper_system
from repro.obs import (
    ListRecorder,
    Telemetry,
    TELEMETRY_SCHEMA_VERSION,
    event_from_dict,
    read_telemetry,
    render_prometheus,
    render_telemetry_report,
    validate_event_dict,
)
from repro.obs.events import EnergyAccrued, JobCompleted
from repro.obs.report import per_core_timeline, render_trace_report
from repro.sim.stream import StreamConfig, StreamingSimulation
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.eembc import eembc_benchmark

from tests.scenarios import (
    SUITE_NAMES,
    arrivals_for,
    build_energy_table,
    build_oracle,
    build_small_store,
    make_simulation,
    qos_arrivals,
)
from tests.sim.test_fast_engine_equivalence import _assert_state_parity

DISCIPLINES = ("fifo", "priority", "edf")

#: Same golden grid as the fast-engine equivalence suite.
GRID = [
    (policy, discipline, preemptive)
    for policy, discipline, preemptive in itertools.product(
        POLICY_NAMES, DISCIPLINES, (False, True)
    )
    if not (preemptive and discipline == "fifo")
]

STREAM_GRID = [
    ("base", "fifo", False),
    ("proposed", "fifo", False),
    ("proposed", "priority", True),
    ("optimal", "edf", False),
    ("energy_centric", "priority", False),
]

N_STREAM_JOBS = 150
SEED = 7


@pytest.fixture(scope="module")
def store():
    return build_small_store()


@pytest.fixture(scope="module")
def oracle(store):
    return build_oracle(store)


@pytest.fixture(scope="module")
def energy_table():
    return build_energy_table()


@pytest.fixture(scope="module")
def specs():
    return [eembc_benchmark(name) for name in SUITE_NAMES]


def _arrivals(discipline):
    if discipline == "fifo":
        return arrivals_for(SUITE_NAMES * 10, gap=40_000)
    return qos_arrivals(repeats=10, gap=40_000)


def _telemetry(tmp_path, tag, **kwargs):
    kwargs.setdefault("sample_every", 7)
    kwargs.setdefault("trace_out", tmp_path / f"{tag}.trace.jsonl")
    kwargs.setdefault("trace_every", 5)
    return Telemetry(out=tmp_path / f"{tag}.jsonl", **kwargs)


def _stream_engine(policy_name, discipline, preemptive, store, oracle,
                   energy_table, telemetry=None):
    policy = make_policy(policy_name)
    system = base_system() if policy_name == "base" else paper_system()
    return StreamingSimulation(
        system,
        policy,
        store,
        predictor=oracle if policy.uses_predictor else None,
        energy_table=energy_table,
        config=StreamConfig(max_jobs=N_STREAM_JOBS),
        discipline=discipline,
        preemptive=preemptive,
        telemetry=telemetry,
    )


def _process(specs):
    return PoissonProcess(
        specs, mean_interarrival_cycles=25_000.0, seed=SEED
    )


def _finish(engine):
    engine.advance()
    return engine.result()


class TestFastEngineNonPerturbation:
    @pytest.mark.parametrize("policy,discipline,preemptive", GRID)
    def test_bit_identical_and_state_parity(
        self, policy, discipline, preemptive, store, oracle,
        energy_table, tmp_path,
    ):
        arrivals = _arrivals(discipline)
        kwargs = dict(discipline=discipline, preemptive=preemptive,
                      engine="fast")
        off = make_simulation(policy, store, predictor=oracle,
                              energy_table=energy_table, **kwargs)
        tel = _telemetry(tmp_path, "t")
        on = make_simulation(policy, store, predictor=oracle,
                             energy_table=energy_table, telemetry=tel,
                             **kwargs)
        r_off = off.run(arrivals)
        r_on = on.run(arrivals)
        tel.close()
        assert r_on == r_off
        # Telemetry must not perturb the post-run object state either
        # (the helper compares a "reference" vs "fast" pair; the
        # telemetry-off run plays the reference role here).
        _assert_state_parity(off, on)
        header, samples = read_telemetry(tmp_path / "t.jsonl")
        assert header["policy"] == policy
        assert samples and samples[-1]["final"] is True
        assert samples[-1]["done"] == r_on.jobs_completed

    def test_fixed_run_is_byte_deterministic(
        self, store, oracle, energy_table, tmp_path,
    ):
        arrivals = _arrivals("fifo")
        for tag in ("a", "b"):
            tel = _telemetry(tmp_path, tag)
            sim = make_simulation("proposed", store, predictor=oracle,
                                  energy_table=energy_table,
                                  engine="fast", telemetry=tel)
            sim.run(arrivals)
            tel.close()
        assert (tmp_path / "a.jsonl").read_bytes() == \
            (tmp_path / "b.jsonl").read_bytes()
        assert (tmp_path / "a.trace.jsonl").read_bytes() == \
            (tmp_path / "b.trace.jsonl").read_bytes()


class TestStreamingNonPerturbation:
    @pytest.mark.parametrize("policy,discipline,preemptive", STREAM_GRID)
    def test_bit_identical(
        self, policy, discipline, preemptive, store, oracle,
        energy_table, specs, tmp_path,
    ):
        args = (policy, discipline, preemptive, store, oracle,
                energy_table)
        off = _stream_engine(*args)
        off.start(_process(specs))
        r_off = _finish(off)

        tel = _telemetry(tmp_path, "s")
        on = _stream_engine(*args, telemetry=tel)
        on.start(_process(specs))
        r_on = _finish(on)
        tel.close()
        assert dataclasses.asdict(r_on) == dataclasses.asdict(r_off)
        header, samples = read_telemetry(tmp_path / "s.jsonl")
        assert header["engine"] == "stream"
        assert samples[-1]["final"] is True
        assert samples[-1]["done"] == N_STREAM_JOBS


class TestSampledTrace:
    @pytest.fixture()
    def trace_lines(self, store, oracle, energy_table, tmp_path):
        tel = _telemetry(tmp_path, "tr", trace_every=3)
        sim = make_simulation("proposed", store, predictor=oracle,
                              energy_table=energy_table, engine="fast",
                              telemetry=tel)
        sim.run(_arrivals("fifo"))
        tel.close()
        text = (tmp_path / "tr.trace.jsonl").read_text()
        return [json.loads(line) for line in text.splitlines()]

    def test_events_validate_and_round_trip(self, trace_lines):
        assert trace_lines
        for payload in trace_lines:
            assert payload["sampled"] is True
            validate_event_dict(payload)
            event = event_from_dict(payload)
            assert isinstance(event, (EnergyAccrued, JobCompleted))

    def test_trace_report_is_lenient_for_sampled(self, trace_lines):
        events = [event_from_dict(p) for p in trace_lines]
        report = render_trace_report(events, lenient=True)
        assert report.startswith("sampled trace:")
        timeline = per_core_timeline(events, lenient=True)
        assert timeline  # at least one reconstructed window

    def test_sampled_flag_must_be_bool(self, trace_lines):
        payload = dict(trace_lines[0])
        payload["sampled"] = "yes"
        with pytest.raises(ValueError, match="sampled"):
            validate_event_dict(payload)


class TestEngineSelection:
    def test_auto_with_telemetry_stays_fast(self, store, oracle,
                                            energy_table):
        sim = make_simulation("proposed", store, predictor=oracle,
                              energy_table=energy_table,
                              telemetry=Telemetry())
        assert sim._resolve_engine() == "fast"

    def test_fast_with_hooks_names_telemetry_escape_hatch(
        self, store, oracle, energy_table,
    ):
        with pytest.raises(ValueError, match="telemetry"):
            make_simulation("proposed", store, predictor=oracle,
                            energy_table=energy_table, engine="fast",
                            recorder=ListRecorder())

    def test_reference_with_telemetry_rejected(self, store, oracle,
                                               energy_table):
        with pytest.raises(ValueError, match="full-fidelity"):
            make_simulation("proposed", store, predictor=oracle,
                            energy_table=energy_table,
                            engine="reference", telemetry=Telemetry())
        with pytest.raises(ValueError, match="full-fidelity"):
            # auto resolves to reference when a hook is on.
            make_simulation("proposed", store, predictor=oracle,
                            energy_table=energy_table, validate=True,
                            telemetry=Telemetry())


class TestTelemetrySink:
    def test_constructor_validation(self, tmp_path):
        with pytest.raises(ValueError, match="sample_every"):
            Telemetry(sample_every=0)
        with pytest.raises(ValueError, match="trace_every"):
            Telemetry(trace_every=-1)
        with pytest.raises(ValueError, match="trace_out"):
            Telemetry(trace_every=5)
        with pytest.raises(ValueError, match="trace_every"):
            Telemetry(trace_out=tmp_path / "t.jsonl", trace_every=0)

    def test_samples_after_the_final_are_ignored(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(out=path)
        tel.begin({"engine": "fast"})
        tel.sample(done=1, final=True)
        tel.sample(done=2)
        tel.sample(done=3, final=True)
        tel.close()
        assert tel.finalized and tel.samples == 1
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert kinds == ["telemetry", "sample"]

    def test_read_telemetry_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"sample","i":0}\n')
        with pytest.raises(ValueError, match="header"):
            read_telemetry(path)
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_telemetry(path)
        path.write_text(
            '{"kind":"telemetry","schema":%d}\n{"kind":"mystery"}\n'
            % TELEMETRY_SCHEMA_VERSION
        )
        with pytest.raises(ValueError, match="unknown"):
            read_telemetry(path)


class TestRenderers:
    @pytest.fixture(scope="class")
    def run_outputs(self, store, oracle, energy_table,
                    tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("telemetry-render")
        tel = _telemetry(tmp_path, "r")
        sim = make_simulation("proposed", store, predictor=oracle,
                              energy_table=energy_table, engine="fast",
                              telemetry=tel)
        sim.run(_arrivals("fifo"))
        tel.close()
        return read_telemetry(tmp_path / "r.jsonl")

    def test_prometheus_exposition(self, run_outputs):
        _, samples = run_outputs
        text = render_prometheus(samples[-1])
        assert "# TYPE repro_done counter" in text
        assert "repro_done 40" in text
        assert 'repro_core_busy_cycles{core="0"}' in text
        assert 'repro_waiting_cycles{quantile="0.99"}' in text
        assert "repro_waiting_cycles_count" in text

    def test_report_table(self, run_outputs):
        header, samples = run_outputs
        text = render_telemetry_report(header, samples)
        assert "telemetry schema v1" in text
        assert "engine=fast" in text
        assert f"{len(samples)} samples" in text
        assert "jobs done" in text
        assert "in flight" not in text  # run completed

    def test_report_marks_interrupted_runs(self, run_outputs):
        header, samples = run_outputs
        text = render_telemetry_report(header, samples[:-1])
        assert "still in flight or interrupted" in text
