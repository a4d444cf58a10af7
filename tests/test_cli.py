"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.telemetry import TELEMETRY_SCHEMA_VERSION


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.jobs == 1000
        assert args.predictor == "ann"
        assert args.discipline == "fifo"

    def test_compare_options(self):
        args = build_parser().parse_args([
            "compare", "--jobs", "50", "--seed", "7",
            "--predictor", "oracle", "--discipline", "edf",
            "--csv", "out.csv", "--json", "out.json", "--summaries",
        ])
        assert args.jobs == 50
        assert args.seed == 7
        assert args.predictor == "oracle"
        assert args.discipline == "edf"
        assert args.csv == "out.csv"
        assert args.summaries

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_characterize_needs_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["characterize"])

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.seed == 0
        assert args.out is None

    def test_sweep_options(self):
        (sub,) = [action for action in build_parser()._actions
                  if action.dest == "command"]
        assert {option for action in sub.choices["sweep"]._actions
                for option in action.option_strings} == {
            "-h", "--help", "--seed", "--out",
        }

    def test_sweep_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--engine", "magic"])

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.policies == ["base", "proposed"]
        assert args.seeds == [0, 1, 2]
        assert args.jobs == [1000]
        assert args.interarrival == [56_000]
        assert args.predictor == "oracle"
        assert args.workers is None

    def test_campaign_options(self):
        args = build_parser().parse_args([
            "campaign", "--policies", "base", "energy_centric",
            "--seeds", "3", "4", "--jobs", "200", "400",
            "--interarrival", "56000", "120000",
            "--workers", "2", "--json", "out.json",
        ])
        assert args.policies == ["base", "energy_centric"]
        assert args.seeds == [3, 4]
        assert args.jobs == [200, 400]
        assert args.interarrival == [56_000, 120_000]
        assert args.workers == 2
        assert args.json == "out.json"

    def test_campaign_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--policies", "turbo"])

    def test_global_verbosity_flags(self):
        args = build_parser().parse_args(["suite"])
        assert args.verbose == 0
        assert args.log_level is None
        args = build_parser().parse_args(["-vv", "suite"])
        assert args.verbose == 2
        args = build_parser().parse_args(["--log-level", "DEBUG", "suite"])
        assert args.log_level == "DEBUG"

    def test_log_level_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "LOUD", "suite"])

    def test_trace_command_args(self):
        args = build_parser().parse_args(
            ["report", "t.jsonl", "--json", "out.json", "--prom", "t.prom"]
        )
        assert args.path == "t.jsonl"
        assert args.json == "out.json"
        assert args.prom == "t.prom"
        # The schema check is always on, so there is no flag for it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "t.jsonl", "--validate"])

    def test_validate_command_args(self):
        # A trace's ledger replay is part of `report`.
        args = build_parser().parse_args(
            ["report", "t.jsonl", "--json", "out.json"]
        )
        assert args.path == "t.jsonl"
        assert args.json == "out.json"
        assert args.prom is None

    def test_reader_commands_folded_into_report(self):
        for argv in (["trace", "t.jsonl"], ["validate", "t.jsonl"],
                     ["telemetry", "report", "t.jsonl"],
                     ["bench", "report"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        (sub,) = [action for action in build_parser()._actions
                  if action.dest == "command"]
        assert len(sub.choices) == 12
        assert {option for action in sub.choices["report"]._actions
                for option in action.option_strings} == {
            "-h", "--help", "--json", "--prom",
        }

    def test_validate_flags_on_compare_and_campaign(self):
        args = build_parser().parse_args(["compare", "--validate"])
        assert args.validate
        args = build_parser().parse_args(["compare"])
        assert not args.validate
        args = build_parser().parse_args(["campaign", "--validate"])
        assert args.validate

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["compare", "--trace", "t.jsonl", "--metrics-out", "m.json"]
        )
        assert args.trace == "t.jsonl"
        assert args.metrics_out == "m.json"
        args = build_parser().parse_args(
            ["campaign", "--metrics-out", "m.json"]
        )
        assert args.metrics_out == "m.json"


class TestCommands:
    def test_suite(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "a2time" in out
        assert "tblook" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "puwmod"]) == 0
        out = capsys.readouterr().out
        assert "2KB_1W_16B" in out
        assert "*" in out  # best marker

    def test_characterize_unknown(self, capsys):
        assert main(["characterize", "doom"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep(self, capsys, tmp_path):
        out_path = tmp_path / "store.json"
        assert main(["sweep", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "a2time" in out
        assert "traces/s" in out
        from repro.characterization import CharacterizationStore
        from repro.experiment import default_store

        store = CharacterizationStore.from_json(out_path)
        assert len(store) == 15
        assert store.meta is not None and store.meta.seed == 0
        expected = tmp_path / "expected.json"
        default_store(cache_path=None, seed=0).to_json(expected)
        assert out_path.read_bytes() == expected.read_bytes()

    def test_compare_oracle_small(self, capsys, tmp_path):
        csv_path = tmp_path / "summary.csv"
        json_path = tmp_path / "results.json"
        code = main([
            "compare", "--jobs", "60", "--seed", "0",
            "--predictor", "oracle",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "Figure 7" in out
        assert csv_path.exists()
        assert json_path.exists()

    def test_compare_fast_engine(self, capsys):
        argv = ("compare --jobs 60 --seed 0 --predictor oracle "
                "--engine fast").split()
        assert main(argv) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_compare_fast_engine_rejects_validate(self, capsys):
        from repro.core import make_policy, select_engine

        with pytest.raises(ValueError) as rule:
            select_engine("fast", make_policy("proposed"), hooks=True)
        argv = ("compare --jobs 60 --seed 0 --predictor oracle "
                "--engine fast --validate").split()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {rule.value}\n"

    def test_campaign_small(self, capsys, tmp_path):
        json_path = tmp_path / "replications.json"
        code = main([
            "campaign", "--policies", "base", "proposed",
            "--seeds", "0", "1", "--jobs", "40",
            "--workers", "1", "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "proposed" in out
        assert "replications=4" in out
        import json as json_module

        payload = json_module.loads(json_path.read_text())
        assert len(payload) == 4
        assert payload[0]["spec"]["policy"] == "base"
        assert payload[0]["jobs_completed"] == 40

    def test_campaign_json_is_byte_reproducible(self, capsys, tmp_path):
        """The replication file holds simulated outputs only: running
        the same grid twice writes the same bytes."""
        paths = [tmp_path / f"replications.{run}.json" for run in (1, 2)]
        for path in paths:
            assert main(
                "campaign --policies energy_centric proposed --seeds 0 1 "
                "--jobs 40 --interarrival 20000 --predictor oracle "
                f"--power-cap 400000 --workers 1 --json {path}".split()
            ) == 0
        capsys.readouterr()
        first = paths[0].read_bytes()
        assert first == paths[1].read_bytes()
        rows = json.loads(first)
        assert len(rows) == 2 * 2 * 2  # policy x seed x power
        assert all("seconds" not in row for row in rows)

    def test_compare_with_trace_and_metrics(self, capsys, tmp_path):
        trace_template = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle",
            "--trace", str(trace_template),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote event traces" in out
        from repro.core.policies import POLICY_NAMES
        from repro.obs.recorder import read_trace

        for name in POLICY_NAMES:
            trace_path = tmp_path / f"run.{name}.jsonl"
            assert trace_path.exists()
            assert read_trace(trace_path)  # parses back losslessly
        import json as json_module

        snapshots = json_module.loads(metrics_path.read_text())
        assert set(snapshots) == set(POLICY_NAMES)
        assert snapshots["proposed"]["counters"]["sim.jobs_completed"] == 40

    def test_trace_round_trip_through_cli(self, capsys, tmp_path):
        trace_template = tmp_path / "run.jsonl"
        assert main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle", "--trace", str(trace_template),
        ]) == 0
        capsys.readouterr()
        analysis_path = tmp_path / "analysis.json"
        code = main([
            "report", str(tmp_path / "run.proposed.jsonl"),
            "--json", str(analysis_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "decision breakdown" in out
        assert "per-core timeline" in out
        import json as json_module

        payload = json_module.loads(analysis_path.read_text())
        assert payload["summary"]["jobs_completed"] == 40
        assert "non_best" in payload["decision_breakdown"]
        assert payload["ledger"]["completions"] == 40

    def test_trace_missing_file(self, capsys, tmp_path):
        path = tmp_path / "nope.jsonl"
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: No such file"
        )

    def test_trace_rejects_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"job_arrived","cycle":0}\n')
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ")
        assert "missing fields" in err

    def test_campaign_metrics_out(self, capsys, tmp_path):
        metrics_path = tmp_path / "cells.json"
        code = main([
            "campaign", "--policies", "base", "--seeds", "0", "1",
            "--jobs", "40", "--workers", "1",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        assert "per-cell metric aggregates" in capsys.readouterr().out
        import json as json_module

        cells = json_module.loads(metrics_path.read_text())
        assert len(cells) == 1
        observed = cells[0]["observed"]
        assert observed["sim.jobs_completed"]["mean"] == 40.0
        assert observed["sim.jobs_completed"]["n"] == 2

    def test_compare_with_validate(self, capsys):
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle", "--validate",
        ])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_campaign_with_validate(self, capsys):
        code = main([
            "campaign", "--policies", "base", "--seeds", "0",
            "--jobs", "30", "--workers", "1", "--validate",
        ])
        assert code == 0
        assert "replications=1" in capsys.readouterr().out

    def test_validate_replays_clean_trace(self, capsys, tmp_path):
        trace_template = tmp_path / "run.jsonl"
        assert main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle", "--trace", str(trace_template),
        ]) == 0
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        code = main([
            "report", str(tmp_path / "run.proposed.jsonl"),
            "--json", str(report_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "ledger: conserved" in out
        import json as json_module

        payload = json_module.loads(report_path.read_text())["ledger"]
        assert payload["completions"] == 40
        assert payload["unfinished_jobs"] == []

    def test_validated_run_replays_every_policy(self, capsys, tmp_path):
        # A --validate run's per-policy traces each replay cleanly.
        assert main([
            "compare", "--jobs", "60", "--seed", "0",
            "--predictor", "oracle", "--validate",
            "--trace", str(tmp_path / "run.jsonl"),
        ]) == 0
        for policy in ("base", "optimal", "energy_centric", "proposed"):
            capsys.readouterr()
            assert main(["report", str(tmp_path / f"run.{policy}.jsonl")]) == 0
            assert ": OK" in capsys.readouterr().out

    def test_validate_detects_corrupt_trace(self, capsys, tmp_path):
        trace_template = tmp_path / "run.jsonl"
        assert main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle", "--trace", str(trace_template),
        ]) == 0
        capsys.readouterr()
        import json as json_module

        path = tmp_path / "run.proposed.jsonl"
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            payload = json_module.loads(line)
            if payload["kind"] == "job_completed":
                payload["energy_nj"] *= 1.5
                lines[index] = json_module.dumps(payload)
                break
        path.write_text("\n".join(lines) + "\n")
        assert main(["report", str(path)]) == 1
        err = capsys.readouterr().err
        assert "FAILED" in err
        assert "replay.attribution" in err

    def test_validate_missing_file(self, capsys, tmp_path):
        path = tmp_path / "nope.jsonl"
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: No such file"
        )

    def test_validate_rejects_malformed_line(self, capsys, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind":"mystery","cycle":0}\n')
        assert main(["report", str(path)]) == 2
        assert "unknown event kind" in capsys.readouterr().err

    def test_compare_summaries_flag(self, capsys):
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle", "--summaries",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stall decisions" in out


class TestReproduceCommand:
    def test_parser(self):
        args = build_parser().parse_args(
            ["reproduce", "--out", "/tmp/x", "--jobs", "100", "--seed", "2"]
        )
        assert args.out == "/tmp/x"
        assert args.jobs == 100

    def test_reproduce_small(self, tmp_path, capsys):
        code = main([
            "reproduce", "--out", str(tmp_path / "r"), "--jobs", "150",
            "--seed", "0",
        ])
        assert code == 0
        out_dir = tmp_path / "r"
        for name in ("REPORT.md", "summary.csv", "results.json",
                     "jobs_proposed.csv"):
            assert (out_dir / name).exists()
        report = (out_dir / "REPORT.md").read_text()
        assert "Figure 6" in report
        assert "Headline" in report


class TestDisciplineOption:
    def test_compare_with_edf(self, capsys):
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle", "--discipline", "edf",
        ])
        assert code == 0
        assert "Figure 6" in capsys.readouterr().out


class TestLocalityCommand:
    def test_locality(self, capsys):
        code = main(["locality", "idctrn"])
        assert code == 0
        out = capsys.readouterr().out
        assert "measured miss ratio" in out
        assert "peak working set" in out

    def test_locality_unknown(self, capsys):
        assert main(["locality", "doom"]) == 2

    def test_locality_options(self, capsys):
        code = main(["locality", "puwmod", "--line", "16",
                     "--window", "500"])
        assert code == 0
        assert "500-access window" in capsys.readouterr().out


class TestStreamParser:
    def test_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.policy == "proposed"
        assert args.process == "poisson"
        assert args.max_jobs is None
        assert args.duration is None
        assert args.interarrival == 56_000.0
        assert args.admission == "block"
        assert args.queue_capacity is None
        assert args.checkpoint is None
        assert not args.resume

    def test_options(self):
        args = build_parser().parse_args([
            "stream", "--policy", "base", "--process", "mmpp",
            "--max-jobs", "5000", "--duration", "1000000",
            "--queue-capacity", "32", "--admission", "shed",
            "--warmup", "200000", "--discipline", "edf",
            "--checkpoint", "c.json", "--checkpoint-every", "500",
            "--resume", "--burst-factor", "6",
        ])
        assert args.policy == "base"
        assert args.process == "mmpp"
        assert args.max_jobs == 5000
        assert args.duration == 1_000_000
        assert args.queue_capacity == 32
        assert args.admission == "shed"
        assert args.warmup == 200_000
        assert args.discipline == "edf"
        assert args.checkpoint == "c.json"
        assert args.checkpoint_every == 500
        assert args.resume
        assert args.burst_factor == 6.0

    def test_rejects_unknown_process(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--process", "uniform"])

    def test_campaign_stream_flags(self):
        args = build_parser().parse_args([
            "campaign", "--stream", "diurnal",
            "--queue-capacity", "16", "--admission", "drop",
            "--warmup", "100000",
        ])
        assert args.stream == "diurnal"
        assert args.queue_capacity == 16
        assert args.admission == "drop"
        assert args.warmup == 100_000


class TestStreamCommand:
    def test_stream_small(self, capsys, tmp_path):
        import json as json_module

        json_path = tmp_path / "stream.json"
        code = main([
            "stream", "--max-jobs", "300", "--seed", "2",
            "--json", str(json_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "ran proposed on a poisson stream" in out
        assert "generated=300" in out
        assert "waiting" in out and "p99" in out
        payload = json_module.loads(json_path.read_text())
        assert payload["jobs_completed"] == 300
        assert payload["policy"] == "proposed"
        assert "sim_result" not in payload
        assert payload["waiting"]["count"] == 300.0

    def test_stream_requires_a_bound(self, capsys):
        assert main(["stream"]) == 2
        assert "--max-jobs" in capsys.readouterr().err

    def test_resume_needs_checkpoint_path(self, capsys):
        assert main(["stream", "--max-jobs", "10", "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_resume_needs_existing_file(self, capsys, tmp_path):
        code = main([
            "stream", "--max-jobs", "10", "--resume",
            "--checkpoint", str(tmp_path / "missing.json"),
        ])
        assert code == 2
        assert "no checkpoint file" in capsys.readouterr().err

    def test_checkpoint_and_resume_round_trip(self, capsys, tmp_path):
        import json as json_module

        ckpt = tmp_path / "stream.ckpt"
        first_json = tmp_path / "first.json"
        resumed_json = tmp_path / "resumed.json"
        base_args = [
            "stream", "--max-jobs", "300", "--seed", "2",
            "--checkpoint", str(ckpt), "--checkpoint-every", "100",
        ]
        assert main(base_args + ["--json", str(first_json)]) == 0
        assert ckpt.exists()

        # Resuming the final checkpoint replays no events and reports
        # the identical result — the bit-identity contract end to end.
        code = main(
            base_args + ["--resume", "--json", str(resumed_json)]
        )
        assert code == 0
        assert "resumed proposed" in capsys.readouterr().out
        assert json_module.loads(first_json.read_text()) == (
            json_module.loads(resumed_json.read_text())
        )

    def test_checkpointed_stream_resumes_bit_identically(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        run = "stream --max-jobs 5000 --seed 2 --checkpoint ckpt.json"
        assert main(f"{run} --checkpoint-every 1000 --json first.json"
                    .split()) == 0
        assert main(f"{run} --resume --json again.json".split()) == 0
        assert (tmp_path / "first.json").read_bytes() == (
            tmp_path / "again.json").read_bytes()
        # 12000 jobs cross the histograms' 4096-observation blocks;
        # telemetry every 7 completions flushes between them.
        run = ("stream --max-jobs 12000 --seed 2 --checkpoint blocks.json "
               "--telemetry-out blocks.jsonl --telemetry-every 7")
        assert main(f"{run} --checkpoint-every 4999 --json blocks-first.json"
                    .split()) == 0
        first_telemetry = (tmp_path / "blocks.jsonl").read_bytes()
        assert main(f"{run} --resume --json blocks-again.json"
                    .split()) == 0
        capsys.readouterr()
        assert (tmp_path / "blocks-first.json").read_bytes() == (
            tmp_path / "blocks-again.json").read_bytes()
        assert (tmp_path / "blocks.jsonl").read_bytes() == first_telemetry

    def test_campaign_stream_small(self, capsys):
        code = main([
            "campaign", "--policies", "base", "proposed",
            "--seeds", "0", "--jobs", "60", "--workers", "1",
            "--stream", "poisson", "--queue-capacity", "16",
            "--admission", "shed",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "~poisson" in out
        assert "replications=2" in out

    def test_campaign_stream_rejects_hooks(self, capsys, tmp_path):
        code = main([
            "campaign", "--stream", "poisson", "--jobs", "20",
            "--validate",
        ])
        assert code == 2
        assert "incompatible" in capsys.readouterr().err


#: A fault plan whose core fault has a wrong field and misses the rest.
BAD_PLAN = '{"name": "x", "core_faults": [{"core": 0}]}'
CHECKPOINT = (
    Path(__file__).parent / "sim" / "data" / "stream_v4_block_qos.json"
)


class TestHostileInput:
    @pytest.mark.parametrize("argv", [
        "campaign --policies base --seeds 1 --jobs 0",
        "campaign --policies base --seeds 1 --jobs 10 --interarrival -5",
        "campaign --policies base --seeds 1 --jobs 10 --dag "
        "--dag-tasks-min 0",
        "campaign --policies base --seeds 1 --jobs 10 --dag "
        "--dag-edge-density 2",
        "campaign --policies base --seeds 1 --jobs 10 --stream poisson "
        "--queue-capacity 0",
        "campaign --policies base --seeds 1 --jobs 10 --stream poisson "
        "--engine reference",
        "campaign --policies base base --seeds 1 --jobs 10",
        "compare --jobs 0 --predictor oracle",
        "compare --jobs 10 --predictor oracle --telemetry-every 0 "
        "--telemetry-out t.jsonl",
        "compare --jobs 10 --predictor oracle --sampled-trace s.jsonl "
        "--sampled-trace-every 0",
        "stream --process mmpp --interarrival nan --max-jobs 10",
        "compare --interarrival 2000000000000000000 --jobs 10 "
        "--predictor oracle",
        "campaign --interarrival 2000000000000000000 --jobs 10 --seeds 1 "
        "--policies base --predictor oracle",
        "train --epochs 0",
        "train --members 0",
        "train --variants 0",
        "locality a2time --line 0",
        "locality a2time --line 48",
        "locality a2time --window 0",
        "reproduce --jobs 0",
    ])
    def test_rejected_before_any_run(self, argv, capsys):
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,field", [
        ("compare --jobs 20 --predictor oracle --power-cap 4e5 "
         "--power-slack nan", "slack_pct"),
        ("campaign --jobs 20 --predictor oracle --seeds 0 --power-cap 4e5 "
         "--power-slack nan", "slack_pct"),
        ("campaign --jobs 20 --predictor oracle --seeds 0 --power-cap abc",
         "--power-cap"),
        ("dag generate --count 3 --deadline-slack inf --out d.json",
         "deadline_slack"),
        ("dag generate --count 3 --deadline-slack 1e308 --out d.json",
         "deadline_slack"),
        ("dag generate --count 3 --deadline-slack nan", "deadline_slack"),
        ("campaign --jobs 20 --predictor oracle --seeds 0 --dag "
         "--dag-deadline-slack nan", "deadline_slack"),
        ("compare --interarrival 2000000000000000000 --jobs 10 "
         "--predictor oracle", "mean_interarrival_cycles"),
        ("stream --interarrival 1e16 --max-jobs 10 --predictor oracle",
         "mean_interarrival_cycles"),
    ])
    def test_bad_number_names_its_field(self, argv, field, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert field in err
        assert "Traceback" not in err
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("argv,content,kind", [
        ("faults describe {path}", BAD_PLAN, "fault plan"),
        ("faults describe {path}", "not json", "fault plan"),
        ("compare --jobs 10 --predictor oracle --faults {path}",
         BAD_PLAN, "fault plan"),
        ("compare --jobs 10 --predictor oracle --faults {path}",
         "not json", "fault plan"),
        ("campaign --policies base --seeds 1 --jobs 10 --faults {path}",
         BAD_PLAN, "fault plan"),
        ("dag describe {path}", '{"graphs": [{"graph_id": 0}]}',
         "task-graph document"),
        ("dag describe {path}", "not json", "task-graph document"),
        ("stream --checkpoint {path} --resume --max-jobs 100",
         '{"version": 4}', "stream checkpoint"),
        ("stream --checkpoint {path} --resume --max-jobs 100",
         '{"version": 4, "fingerprint": {"pol', "stream checkpoint"),
        ("report {path}",
         '{"kind": "telemetry", "schema": %d}\ngarbage\n'
         % TELEMETRY_SCHEMA_VERSION, "not valid JSON"),
    ])
    def test_malformed_file_is_named(self, argv, content, kind, capsys,
                                     tmp_path):
        path = tmp_path / "input.json"
        path.write_text(content)
        code = main(argv.format(path=path).split())
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}")
        assert kind in err
        assert "Traceback" not in err


    def test_mistyped_checkpoint_queue_is_named(self, capsys, tmp_path):
        snapshot = json.loads(CHECKPOINT.read_text())
        snapshot["engine"]["queue"] = ["x"]
        path = tmp_path / "stream.ckpt"
        path.write_text(json.dumps(snapshot))
        code = main(["stream", "--checkpoint", str(path), "--resume",
                     "--max-jobs", "100", "--predictor", "oracle"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not a valid stream checkpoint: queued job "
            "slot must be an integer, got 'x'\n"
        )

    def test_mistyped_checkpoint_free_slot_is_named(self, capsys, tmp_path):
        snapshot = json.loads(CHECKPOINT.read_text())
        snapshot["engine"]["free_slots"] = ["x"]
        path = tmp_path / "stream.ckpt"
        path.write_text(json.dumps(snapshot))
        code = main(["stream", "--checkpoint", str(path), "--resume",
                     "--max-jobs", "100", "--predictor", "oracle"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not a valid stream checkpoint: free job "
            "slot must be an integer, got 'x'\n"
        )

    def test_mistyped_checkpoint_arrival_is_named(self, capsys, tmp_path):
        snapshot = json.loads(CHECKPOINT.read_text())
        snapshot["engine"]["deferred"] = ["x", "puwmod", 0, 0, None]
        path = tmp_path / "stream.ckpt"
        path.write_text(json.dumps(snapshot))
        code = main(["stream", "--checkpoint", str(path), "--resume",
                     "--max-jobs", "100", "--predictor", "oracle"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not a valid stream checkpoint: arrival "
            "job_id must be an integer, got 'x'\n"
        )

    @pytest.mark.parametrize("section,value,message", [
        ("process", {"rng": 5},
         "qos process 'rng' must be a PCG64 generator state, got 5"),
        ("telemetry", {"schema": 1, "samples": 0, "out_bytes": -5,
                       "trace_events": 0, "trace_bytes": 0},
         "telemetry 'out_bytes' must be >= 0, got -5"),
    ], ids=["process-rng", "telemetry-offset"])
    def test_mistyped_checkpoint_section_is_named(
        self, section, value, message, capsys, tmp_path
    ):
        snapshot = json.loads(CHECKPOINT.read_text())
        if section == "process":
            snapshot[section].update(value)
        else:
            snapshot[section] = value
        path = tmp_path / "stream.ckpt"
        path.write_text(json.dumps(snapshot))
        code = main(["stream", "--checkpoint", str(path), "--resume",
                     "--max-jobs", "100", "--predictor", "oracle"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path} is not a valid stream checkpoint: {message}\n"
        )

    @pytest.mark.parametrize("content", [
        b"[1, 2]\n",
        b'{"kind": "job_arrived"}\n',
        b'{"kind": "job_arrived", "cycle": "x", "job_id": 0, '
        b'"benchmark": "a2time"}\n',
        b'{"kind": "job_arrived", \xff\xfe}\n',
        b'\xff\xfe\n',
        b'{"kind": "mystery", "cycle": 0}\n',
    ], ids=["list", "missing-fields", "string-cycle", "not-utf8",
            "bare-not-utf8", "unknown-kind"])
    def test_malformed_trace_line_is_named(self, content, capsys, tmp_path):
        from repro.obs import read_trace

        path = tmp_path / "run.jsonl"
        path.write_bytes(content)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ")
        assert "Traceback" not in err
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: "):
            read_trace(path)

    def test_empty_trace_is_named(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: contains no events\n"
        )

    def test_telemetry_line_not_utf8_is_named(self, capsys, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b'{"kind": "telemetry", "schema": %d}\n\xff\n'
                         % TELEMETRY_SCHEMA_VERSION)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:2: not UTF-8")

    def test_directory_is_named(self, capsys, tmp_path):
        from repro.obs import read_trace

        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {tmp_path}: no BENCH_"
        )
        bad = tmp_path / "BENCH_bad.json"
        bad.write_bytes(b'{"speedup": "\xff"}')
        assert main(["report", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")
        with pytest.raises(OSError, match=re.escape(str(tmp_path))):
            read_trace(tmp_path)

    def test_prom_needs_telemetry(self, capsys, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('{"kind": "mystery", "cycle": 0}\n')
        assert main(["report", str(path), "--prom", "p.prom"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: --prom applies to telemetry files only"
        )


class TestTelemetryCli:
    def test_parser_telemetry_flags(self):
        for command, extra in (("compare", []), ("stream", [])):
            args = build_parser().parse_args([
                command, *extra,
                "--telemetry-out", "t.jsonl", "--telemetry-every", "500",
                "--sampled-trace", "s.jsonl",
                "--sampled-trace-every", "50", "--progress",
            ])
            assert args.telemetry_out == "t.jsonl"
            assert args.telemetry_every == 500
            assert args.sampled_trace == "s.jsonl"
            assert args.sampled_trace_every == 50
            assert args.progress
        args = build_parser().parse_args(["campaign", "--progress"])
        assert args.progress

    def test_compare_rejects_telemetry_with_hooks(self, capsys):
        code = main([
            "compare", "--jobs", "10",
            "--telemetry-out", "t.jsonl", "--validate",
        ])
        assert code == 2
        assert "incompatible" in capsys.readouterr().err

    def test_compare_rejects_telemetry_on_reference(self, capsys):
        code = main([
            "compare", "--jobs", "10", "--progress",
            "--engine", "reference",
        ])
        assert code == 2
        assert "reference" in capsys.readouterr().err

    def test_stream_telemetry_and_report(self, capsys, tmp_path):
        tel = tmp_path / "t.jsonl"
        trace = tmp_path / "s.jsonl"
        code = main([
            "stream", "--max-jobs", "200", "--seed", "2",
            "--telemetry-out", str(tel),
            "--sampled-trace", str(trace),
            "--sampled-trace-every", "40",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote telemetry time series" in out
        assert "wrote sampled trace" in out

        prom = tmp_path / "t.prom"
        code = main([
            "report", str(tel), "--prom", str(prom),
            "--json", str(tmp_path / "t.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry schema v1" in out
        assert "200 jobs done" in out
        assert "repro_done 200" in prom.read_text()

        # The sampled trace flows through the trace tooling.
        assert main(["report", str(trace)]) == 0
        assert "sampled trace:" in capsys.readouterr().out

    def test_sampled_trace_report_skips_the_ledger(self, capsys, tmp_path):
        assert main([
            "compare", "--jobs", "60", "--seed", "0",
            "--predictor", "oracle",
            "--sampled-trace", str(tmp_path / "s.jsonl"),
            "--sampled-trace-every", "5",
        ]) == 0
        capsys.readouterr()
        path = tmp_path / "s.proposed.jsonl"
        out_json = tmp_path / "s.json"
        assert main(["report", str(path), "--json", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("sampled trace:")
        assert f"{path}: ledger not checked" in out
        import json as json_module

        assert json_module.loads(out_json.read_text())["ledger"] is None

    def test_stream_telemetry_resume_is_byte_identical(
        self, capsys, tmp_path
    ):
        tel = tmp_path / "t.jsonl"
        ckpt = tmp_path / "stream.ckpt"
        base_args = [
            "stream", "--max-jobs", "300", "--seed", "2",
            "--telemetry-out", str(tel),
            "--checkpoint", str(ckpt), "--checkpoint-every", "100",
        ]
        assert main(base_args) == 0
        baseline = tel.read_bytes()
        assert main(base_args + ["--resume"]) == 0
        capsys.readouterr()
        assert tel.read_bytes() == baseline

    def test_golden_stream_telemetry(self, capsys, tmp_path, monkeypatch):
        """Two stream runs at ``compare``'s telemetry cadence write the
        same telemetry and sampled-trace bytes, which ``report`` reads."""
        monkeypatch.chdir(tmp_path)
        for run in ("a", "b"):
            assert main(
                "stream --max-jobs 3000 "
                f"--telemetry-out st{run}.jsonl --telemetry-every 500 "
                f"--sampled-trace ss{run}.jsonl --sampled-trace-every 50"
                .split()
            ) == 0
        for name in ("st", "ss"):
            first = (tmp_path / f"{name}a.jsonl").read_bytes()
            assert first == (tmp_path / f"{name}b.jsonl").read_bytes()
        assert main(["report", "sta.jsonl"]) == 0
        capsys.readouterr()

    @staticmethod
    def _compare_twice(flag_sets):
        """Run ``compare --jobs 60 --seed 0 --predictor oracle`` once per
        flag list; each must exit 0."""
        for flags in flag_sets:
            assert main(
                "compare --jobs 60 --seed 0 --predictor oracle".split()
                + flags.split()
            ) == 0

    @staticmethod
    def _same_per_policy(tmp_path, first, second):
        """Byte-identical per-policy files ``{first,second}.<policy>.jsonl``;
        returns the first run's files by policy."""
        files = {}
        for policy in ("base", "optimal", "energy_centric", "proposed"):
            files[policy] = (tmp_path / f"{first}.{policy}.jsonl").read_bytes()
            assert files[policy] == (
                tmp_path / f"{second}.{policy}.jsonl"
            ).read_bytes(), policy
        return files

    def test_golden_trace(self, capsys, tmp_path, monkeypatch):
        """Two traced four-system runs write the same trace bytes per
        policy, and ``report`` reads (and ledger-replays) them."""
        monkeypatch.chdir(tmp_path)
        self._compare_twice(["--trace a.jsonl", "--trace b.jsonl"])
        self._same_per_policy(tmp_path, "a", "b")
        assert main(["report", "a.proposed.jsonl"]) == 0
        capsys.readouterr()

    def test_golden_power_trace(self, capsys, tmp_path, monkeypatch):
        """The same under a power cap with DVFS, whose proposed trace
        carries token grants and throttled dispatches."""
        monkeypatch.chdir(tmp_path)
        power = "--power-cap 500000 --power-slack 25 --dvfs"
        self._compare_twice(
            [f"{power} --trace pa.jsonl", f"{power} --trace pb.jsonl"]
        )
        proposed = self._same_per_policy(tmp_path, "pa", "pb")["proposed"]
        assert b"token_grant" in proposed
        assert b"power_throttled" in proposed
        assert main(["report", "pa.proposed.jsonl"]) == 0
        capsys.readouterr()

    def test_golden_telemetry(self, capsys, tmp_path, monkeypatch):
        """Two four-system runs on the core write the same telemetry and
        sampled-trace bytes per policy, under the batch front end's
        ``"engine":"fast"`` header, and ``report`` reads both."""
        monkeypatch.chdir(tmp_path)
        self._compare_twice([
            f"--telemetry-out t{run}.jsonl --telemetry-every 10 "
            f"--sampled-trace s{run}.jsonl --sampled-trace-every 5"
            for run in ("a", "b")
        ])
        telemetry = self._same_per_policy(tmp_path, "ta", "tb")
        for policy, data in telemetry.items():
            header = json.loads(data.splitlines()[0])
            assert header["engine"] == "fast", policy
            assert header["policy"] == policy
        self._same_per_policy(tmp_path, "sa", "sb")
        assert main(["report", "ta.proposed.jsonl", "--prom", "ta.prom"]) == 0
        assert (tmp_path / "ta.prom").stat().st_size > 0
        assert main(["report", "sa.proposed.jsonl"]) == 0
        capsys.readouterr()

    def test_stream_samples_every_n_completions(self, capsys, tmp_path):
        from repro.obs import read_telemetry

        tel = tmp_path / "t.jsonl"
        assert main([
            "stream", "--max-jobs", "300", "--seed", "2",
            "--telemetry-out", str(tel), "--telemetry-every", "40",
        ]) == 0
        capsys.readouterr()
        header, samples = read_telemetry(tel)
        assert header["sample_every"] == 40
        assert samples[-1]["final"] is True
        assert samples[-1]["done"] == 300
        assert [s["done"] for s in samples[:-1]] == list(range(40, 300, 40))

    def test_stream_resume_with_telemetry_needs_the_flag(
        self, capsys, tmp_path
    ):
        tel = tmp_path / "t.jsonl"
        ckpt = tmp_path / "stream.ckpt"
        assert main([
            "stream", "--max-jobs", "300", "--seed", "2",
            "--telemetry-out", str(tel),
            "--checkpoint", str(ckpt), "--checkpoint-every", "100",
        ]) == 0
        capsys.readouterr()
        code = main([
            "stream", "--max-jobs", "300", "--seed", "2",
            "--checkpoint", str(ckpt), "--resume",
        ])
        assert code == 2
        assert "--telemetry-out" in capsys.readouterr().err

    def test_compare_writes_per_policy_telemetry(self, capsys, tmp_path):
        code = main([
            "compare", "--jobs", "40", "--predictor", "oracle",
            "--telemetry-out", str(tmp_path / "c.jsonl"),
            "--telemetry-every", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote telemetry time series" in out
        for policy in ("base", "optimal", "energy_centric", "proposed"):
            assert (tmp_path / f"c.{policy}.jsonl").exists()

    def test_campaign_progress_line(self, capsys):
        code = main([
            "campaign", "--policies", "base", "--seeds", "0", "1",
            "--jobs", "40", "--workers", "1", "--progress",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "campaign: 2/2 replications" in err

    def test_telemetry_report_missing_file(self, capsys, tmp_path):
        path = tmp_path / "no.jsonl"
        code = main(["report", str(path), "--prom", str(tmp_path / "p")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: No such file"
        )


class TestBenchCli:
    def test_bench_report(self, capsys, tmp_path):
        import json as json_module

        (tmp_path / "BENCH_speed.json").write_text(json_module.dumps({
            "benchmark": "speed", "speedup": 12.0,
            "min_speedup_required": 10.0,
        }))
        out_json = tmp_path / "rows.json"
        code = main(["report", str(tmp_path), "--json", str(out_json)])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "all within bounds" in out
        rows = json_module.loads(out_json.read_text())
        assert rows[0]["metric"] == "speedup"
        assert rows[0]["ok"] is True

    def test_bench_report_empty_dir(self, capsys, tmp_path):
        code = main(["report", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ")
        assert "no BENCH_" in err


class TestDagSubcommand:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["dag", "generate"])
        assert args.seed == 0
        assert args.count == 8
        assert args.tasks_min == 3
        assert args.tasks_max == 8
        assert args.edge_density == pytest.approx(0.35)
        assert args.deadline_slack == pytest.approx(2.5)

    def test_generate_round_trips_through_disk(self, capsys, tmp_path):
        from repro.workloads.dag import generate_task_graphs, load_graphs

        out = tmp_path / "graphs.json"
        code = main([
            "dag", "generate", "--out", str(out), "--seed", "3",
            "--count", "4",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wrote task-graph set" in stdout
        assert load_graphs(out) == generate_task_graphs(count=4, seed=3)

    def test_generate_is_byte_identical(self, capsys, tmp_path):
        paths = [tmp_path / "da.json", tmp_path / "db.json"]
        for path in paths:
            assert main([
                "dag", "generate", "--seed", "3", "--count", "6",
                "--out", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert main(["dag", "describe", str(paths[0])]) == 0
        assert "6 task graph(s)" in capsys.readouterr().out

    def test_describe_prints_graphs(self, capsys, tmp_path):
        from repro.workloads.dag import dump_graphs, generate_task_graphs

        path = tmp_path / "graphs.json"
        dump_graphs(generate_task_graphs(count=2, seed=1), path)
        code = main(["dag", "describe", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 task graph(s)" in out

    def test_describe_needs_path(self, capsys):
        code = main(["dag", "describe"])
        assert code == 2
        assert "describe needs" in capsys.readouterr().err

    def test_describe_missing_file(self, capsys, tmp_path):
        code = main(["dag", "describe", str(tmp_path / "no.json")])
        assert code == 2

    def test_generate_rejects_positional_path(self, capsys, tmp_path):
        code = main(["dag", "generate", str(tmp_path / "x.json")])
        assert code == 2
        assert "use --out" in capsys.readouterr().err

    def test_generate_rejects_bad_parameters(self, capsys):
        code = main(["dag", "generate", "--edge-density", "1.5"])
        assert code == 2
        assert "edge_density" in capsys.readouterr().err


class TestCampaignDagFlags:
    def test_parser_accepts_deadline_policies(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "campaign", "--policies", "edf", "heft", "--dag",
            "--dag-tasks-min", "2", "--dag-tasks-max", "4",
        ])
        assert args.policies == ["edf", "heft"]
        assert args.dag
        assert args.dag_tasks_min == 2

    def test_dag_campaign_runs(self, capsys):
        code = main([
            "campaign", "--dag", "--policies", "base", "edf",
            "--seeds", "0", "--jobs", "3", "--interarrival", "120000",
            "--workers", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "base^dag" in out
        assert "edf^dag" in out

    def test_dag_rejects_stream(self, capsys):
        code = main([
            "campaign", "--dag", "--stream", "poisson",
            "--policies", "base",
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_dag_rejects_fast_engine(self, capsys):
        code = main([
            "campaign", "--dag", "--engine", "fast",
            "--policies", "base",
        ])
        assert code == 2
        assert "reference" in capsys.readouterr().err

    def test_ordering_policy_rejects_fast_engine(self, capsys):
        code = main([
            "campaign", "--policies", "edf", "--engine", "fast",
        ])
        assert code == 2
        assert "fast engine" in capsys.readouterr().err

    def test_ordering_policy_rejects_stream(self, capsys):
        code = main([
            "campaign", "--policies", "heft", "--stream", "poisson",
        ])
        assert code == 2
        assert "--discipline edf" in capsys.readouterr().err


class TestPowerFlags:
    def test_single_run_defaults(self):
        for command in ("compare", "stream"):
            args = build_parser().parse_args([command])
            assert args.power_cap is None
            assert args.power_slack == 0.0
            assert args.dvfs is None

    def test_single_run_options(self):
        args = build_parser().parse_args([
            "compare", "--power-cap", "400000",
            "--power-slack", "15", "--dvfs",
        ])
        assert args.power_cap == 400_000.0
        assert args.power_slack == 15.0
        assert args.dvfs == "default"  # bare flag = built-in ladder

    def test_campaign_sweep_form(self):
        args = build_parser().parse_args(["campaign"])
        assert args.power_cap is None
        assert args.power_slack == [0.0]
        assert not args.frontier
        args = build_parser().parse_args([
            "campaign", "--power-cap", "inf", "500000",
            "--power-slack", "0", "20",
            "--dvfs", "nominal:1:1,eco:0.8:0.9", "--frontier",
        ])
        assert args.power_cap == ["inf", "500000"]
        assert args.power_slack == [0.0, 20.0]
        assert args.dvfs == "nominal:1:1,eco:0.8:0.9"
        assert args.frontier


class TestPowerCommands:
    def test_compare_prints_power_accounting(self, capsys):
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle",
            "--power-cap", "500000", "--power-slack", "10", "--dvfs",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "power budget: cap=500000~slack=10~dvfs" in out
        assert "power accounting" in out
        assert "grants=" in out and "consumed=" in out

    def test_compare_without_power_stays_silent(self, capsys):
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle",
        ])
        assert code == 0
        assert "power" not in capsys.readouterr().out

    def test_compare_rejects_bad_dvfs_spec(self, capsys):
        code = main([
            "compare", "--jobs", "20", "--dvfs", "eco",
        ])
        assert code == 2
        assert "eco" in capsys.readouterr().err

    def test_stream_prints_power_line(self, capsys):
        code = main([
            "stream", "--max-jobs", "80", "--seed", "2",
            "--power-cap", "300000", "--power-slack", "25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "power (cap=300000~slack=25):" in out
        assert "throttled=" in out

    def test_campaign_power_sweep_and_frontier(self, capsys):
        code = main([
            "campaign", "--policies", "proposed", "--seeds", "0",
            "--jobs", "10", "--interarrival", "9000",
            "--workers", "1", "--dag", "--dag-deadline-slack", "1.3",
            "--power-cap", "inf", "300000", "--frontier",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "%cap=300000" in out          # summary carries the axis
        assert "uncapped" in out and "pareto" in out  # frontier table

    def test_frontier_needs_dag(self, capsys):
        code = main([
            "campaign", "--policies", "proposed", "--frontier",
        ])
        assert code == 2
        assert "--frontier needs --dag" in capsys.readouterr().err

    def test_campaign_grid_worker_count_identity(
        self, capsys, tmp_path, monkeypatch
    ):
        """A faulted, powered campaign writes the same metrics bytes on
        one worker and on two."""
        monkeypatch.chdir(tmp_path)
        assert main("faults generate --seed 2 --out plan.json".split()) == 0
        for workers in (1, 2):
            assert main(
                "campaign --policies base proposed --seeds 0 1 --jobs 40 "
                "--interarrival 20000 56000 --predictor oracle "
                "--faults plan.json --power-cap 400000 --power-slack 10 "
                f"--metrics-out mW.{workers}.json --workers {workers}"
                .split()
            ) == 0
        capsys.readouterr()
        serial = (tmp_path / "mW.1.json").read_bytes()
        assert serial == (tmp_path / "mW.2.json").read_bytes()
        cells = json.loads(serial)
        assert len(cells) == 2 * 2 * 2 * 2  # policy x gap x faults x power
        assert {cell["power"] for cell in cells} == {
            None, "cap=400000~slack=10"
        }

    def test_powered_dvfs_dag_worker_count_identity(
        self, capsys, tmp_path, monkeypatch
    ):
        """Powered DVFS task graphs write the same metrics bytes on one
        worker and on two."""
        monkeypatch.chdir(tmp_path)
        for workers in (1, 2):
            assert main(
                "campaign --policies proposed --seeds 0 1 --jobs 40 "
                "--interarrival 9000 --dag --dag-deadline-slack 1.3 "
                "--power-cap 250000 --power-slack 25 --dvfs "
                f"--metrics-out mP.{workers}.json --workers {workers}"
                .split()
            ) == 0
        capsys.readouterr()
        serial = (tmp_path / "mP.1.json").read_bytes()
        assert serial == (tmp_path / "mP.2.json").read_bytes()

    def test_cap_sweep_frontier_is_monotone(
        self, capsys, tmp_path, monkeypatch
    ):
        """Tightening the cap never raises the consumed tokens and never
        lowers the deadline-miss rate."""
        monkeypatch.chdir(tmp_path)
        assert main(
            "campaign --policies proposed --seeds 0 1 --jobs 40 "
            "--interarrival 9000 --dag --dag-deadline-slack 1.3 "
            "--power-cap 1000000 500000 250000 125000 --power-slack 25 "
            "--frontier --metrics-out power_cells.json".split()
        ) == 0
        capsys.readouterr()
        cells = json.loads((tmp_path / "power_cells.json").read_text())
        caps = {"cap=1e+06~slack=25": 1e6, "cap=500000~slack=25": 5e5,
                "cap=250000~slack=25": 2.5e5,
                "cap=125000~slack=25": 1.25e5}
        rows = sorted((c for c in cells if c["power"]),
                      key=lambda c: -caps[c["power"]])
        assert len(rows) == len(caps)
        consumed = [c["observed"]["power.consumed_nj"]["mean"] for c in rows]
        base = next(c for c in cells if c["power"] is None)
        miss = [base["observed"]["dag.deadline_miss_rate"]["mean"]] + [
            c["observed"]["dag.deadline_miss_rate"]["mean"] for c in rows
        ]
        assert all(a >= b for a, b in zip(consumed, consumed[1:])), consumed
        assert all(a <= b for a, b in zip(miss, miss[1:])), miss

    def test_campaign_metrics_out_records_power(self, capsys, tmp_path):
        import json as json_module

        metrics_path = tmp_path / "metrics.json"
        code = main([
            "campaign", "--policies", "proposed", "--seeds", "0",
            "--jobs", "20", "--workers", "1",
            "--power-cap", "400000",
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        payload = json_module.loads(metrics_path.read_text())
        powers = {cell["power"] for cell in payload}
        assert powers == {None, "cap=400000"}
