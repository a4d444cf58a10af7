"""CLI surface of the fault layer: faults subcommand + --faults flags."""

import json

import pytest

from repro.cli import main
from repro.faults import generate_plan, load_plan


@pytest.fixture()
def plan_path(tmp_path):
    path = tmp_path / "plan.json"
    generate_plan(3, density=0.3, horizon_cycles=1_500_000).to_json(path)
    return path


class TestFaultsSubcommand:
    def test_generate_round_trips_through_disk(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        code = main([
            "faults", "generate", "--out", str(out), "--seed", "3",
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "wrote fault plan" in stdout
        assert load_plan(out) == generate_plan(3)

    def test_generate_respects_classes_and_name(self, capsys, tmp_path):
        out = tmp_path / "gen.json"
        code = main([
            "faults", "generate", "--out", str(out), "--seed", "1",
            "--classes", "core_failure", "dispatch_failure",
            "--name", "two-class",
        ])
        assert code == 0
        plan = load_plan(out)
        assert plan.name == "two-class"
        assert set(plan.classes()) == {"core_failure", "dispatch_failure"}

    def test_describe_prints_plan(self, capsys, plan_path):
        assert main(["faults", "describe", str(plan_path)]) == 0
        out = capsys.readouterr().out
        plan = load_plan(plan_path)
        assert plan.name in out

    def test_describe_needs_path(self, capsys):
        assert main(["faults", "describe"]) == 2
        assert "describe needs a plan" in capsys.readouterr().err

    def test_describe_missing_file(self, capsys, tmp_path):
        code = main(["faults", "describe", str(tmp_path / "nope.json")])
        assert code == 2

    def test_generate_rejects_positional_path(self, capsys, tmp_path):
        code = main(["faults", "generate", str(tmp_path / "x.json")])
        assert code == 2
        assert "use --out" in capsys.readouterr().err

    def test_generate_rejects_bad_density(self, capsys):
        assert main(["faults", "generate", "--density", "2.0"]) == 2
        assert "density" in capsys.readouterr().err

    def test_generate_rejects_unknown_classes(self, capsys):
        code = main(["faults", "generate", "--classes", "gremlins"])
        assert code == 2
        assert "unknown fault classes" in capsys.readouterr().err


class TestCompareWithFaults:
    def test_compare_injects_and_traces_validate(self, capsys, tmp_path,
                                                 plan_path):
        trace_template = tmp_path / "run.jsonl"
        code = main([
            "compare", "--jobs", "40", "--seed", "0",
            "--predictor", "oracle",
            "--faults", str(plan_path), "--validate",
            "--trace", str(trace_template),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "injecting fault plan" in out
        assert "Figure 6" in out

        # Every per-policy chaos trace replays cleanly offline.
        from repro.core.policies import POLICY_NAMES

        for name in POLICY_NAMES:
            trace_path = tmp_path / f"run.{name}.jsonl"
            assert trace_path.exists()
            assert main(["report", str(trace_path)]) == 0
            assert ": OK" in capsys.readouterr().out

    def test_generated_plan_round_trip(self, capsys, tmp_path):
        # generate -> describe -> inject (validated) -> replay every trace.
        plan = tmp_path / "plan.json"
        assert main([
            "faults", "generate", "--seed", "3", "--density", "0.3",
            "--out", str(plan),
        ]) == 0
        assert main(["faults", "describe", str(plan)]) == 0
        assert main([
            "compare", "--jobs", "60", "--seed", "0",
            "--predictor", "oracle", "--faults", str(plan), "--validate",
            "--trace", str(tmp_path / "chaos.jsonl"),
        ]) == 0
        from repro.core.policies import POLICY_NAMES

        for name in POLICY_NAMES:
            capsys.readouterr()
            assert main(["report", str(tmp_path / f"chaos.{name}.jsonl")]) == 0
            assert ": OK" in capsys.readouterr().out

    def test_compare_missing_plan_file(self, capsys, tmp_path):
        code = main([
            "compare", "--jobs", "40", "--predictor", "oracle",
            "--faults", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCampaignWithFaults:
    def test_campaign_adds_fault_axis(self, capsys, tmp_path, plan_path):
        metrics_path = tmp_path / "cells.json"
        code = main([
            "campaign", "--policies", "base", "--seeds", "0",
            "--jobs", "40", "--workers", "1",
            "--faults", str(plan_path),
            "--metrics-out", str(metrics_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        plan = load_plan(plan_path)
        # The clean cell and the faulted cell are both present.
        assert f"base+{plan.name}" in out
        cells = json.loads(metrics_path.read_text())
        assert sorted((c["faults"] for c in cells),
                      key=lambda v: (v is not None, v)) == [None, plan.name]

    def test_campaign_missing_plan_file(self, capsys, tmp_path):
        code = main([
            "campaign", "--policies", "base", "--seeds", "0",
            "--jobs", "40", "--workers", "1",
            "--faults", str(tmp_path / "nope.json"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err
