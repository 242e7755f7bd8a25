"""Tests for the artifact-style CLI."""

import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "gen", "ms-gen", "simulate", "report", "trace", "synth-trace",
            "zoo", "audit", "serve",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestZoo:
    def test_prints_pareto_markers(self, capsys):
        assert main(["zoo", "--task", "image"]) == 0
        out = capsys.readouterr().out
        assert "26 models" in out
        assert "shufflenet_v2_x0_5" in out
        assert "*" in out

    def test_text_task(self, capsys):
        assert main(["zoo", "--task", "text"]) == 0
        assert "bert_base" in capsys.readouterr().out


class TestSynthTrace:
    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        assert main(["synth-trace", "--out", str(out), "--duration", "60"]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6
        # Progress messages go through repro.obs.log to stderr; stdout is
        # reserved for result tables.
        assert "trace written" in capsys.readouterr().err


class TestGen:
    def test_writes_policy_json(self, tmp_path, capsys):
        code = main(
            [
                "gen",
                "--task",
                "image",
                "--slo",
                "150",
                "--workers",
                "2",
                "--load",
                "40",
                "--fld-resolution",
                "12",
                "--out",
                str(tmp_path / "pol"),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "script complete!" in captured.err
        assert "expected accuracy" in captured.out
        policy_file = tmp_path / "pol" / "RAMSIS_2_150" / "40.json"
        assert policy_file.exists()
        payload = json.loads(policy_file.read_text())
        assert payload["metadata"]["load_qps"] == 40.0

    def test_stacked_solver_generates_grid(self, tmp_path, capsys):
        code = main(
            [
                "gen",
                "--task",
                "image",
                "--slo",
                "150",
                "--workers",
                "2",
                "--loads",
                "30",
                "40",
                "50",
                "60",
                "--no-cache",
                "--fld-resolution",
                "12",
                "--out",
                str(tmp_path / "pol"),
            ]
        )
        assert code == 0
        assert "script complete!" in capsys.readouterr().err
        out_dir = tmp_path / "pol" / "RAMSIS_2_150"
        assert sorted(p.name for p in out_dir.glob("*.json")) == [
            "30.json", "40.json", "50.json", "60.json",
        ]

    def test_obs_dir_writes_merged_artifacts(self, tmp_path, capsys):
        from repro.obs.columns import EventTable
        from repro.obs.trace import RecordingTracer

        obs_dir = tmp_path / "obs"
        code = main(
            [
                "gen",
                "--loads", "30", "40", "50",
                "--no-cache",
                "--fld-resolution", "12",
                "--out", str(tmp_path / "pol"),
                "--obs-dir", str(obs_dir),
            ]
        )
        assert code == 0
        for name in ("merged.cols", "metrics.json", "metrics.prom"):
            assert (obs_dir / name).is_file(), name
        tracer = RecordingTracer.from_table(
            EventTable.load(obs_dir / "merged.cols")[0]
        )
        bank = [s for s in tracer.spans if s.track == "policy_bank"]
        assert [s.name for s in bank] == ["policy_bank_stacked"]
        assert bank[0].args["cells"] == 3
        # Every cell records its first sweep.
        first_sweeps = [
            ev for ev in tracer.events
            if not ev.is_counter
            and ev.name == "vi_sweep"
            and ev.args["iteration"] == 1
        ]
        assert len(first_sweeps) == 3
        capsys.readouterr()
        assert main(["report", "--run-dir", str(obs_dir)]) == 0

    def test_jobs_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gen", "--jobs", "2"])


class TestSimulateAndReport:
    def test_constant_roundtrip(self, tmp_path, capsys):
        results = tmp_path / "results"
        for method in ("RAMSIS", "JF"):
            code = main(
                [
                    "simulate",
                    "--m",
                    method,
                    "--trace",
                    "constant",
                    "--task",
                    "image",
                    "--load",
                    "40",
                    "--workers",
                    "2",
                    "--scale",
                    "smoke",
                    "--results-dir",
                    str(results),
                ]
            )
            assert code == 0
        files = list(results.glob("*.json"))
        assert len(files) == 2
        assert main(["report", "--trace", "constant", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "RAMSIS" in out and "JF" in out

    def test_report_empty_dir(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1
        assert "no results" in capsys.readouterr().out

    def test_bad_task_rejected(self):
        with pytest.raises(SystemExit):
            main(["zoo", "--task", "audio"])

    def test_bad_scale_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "simulate",
                    "--m",
                    "RAMSIS",
                    "--trace",
                    "constant",
                    "--load",
                    "10",
                    "--workers",
                    "1",
                    "--scale",
                    "galactic",
                    "--results-dir",
                    str(tmp_path),
                ]
            )


class TestServe:
    def test_unpaced_smoke_with_run_dir(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main(
            [
                "serve",
                "--load", "30",
                "--duration", "3",
                "--shards", "2",
                "--workers", "2",
                "--time-scale", "0.01",
                "--unpaced",
                "--run-dir", str(run_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 shards x 2 workers" in out
        assert "served=" in out
        # Merged artifacts for ramsis report/explain, plus shard feeds.
        for name in ("merged.cols", "metrics.json", "attribution.json"):
            assert (run_dir / name).is_file()
        assert sorted(run_dir.glob("shard-*.cols"))
        # The merged table drives the standard run report unchanged, and
        # --export writes the JSONL log and Perfetto trace on demand.
        assert main(["report", "--run-dir", str(run_dir), "--export"]) == 0
        report = capsys.readouterr().out
        assert "reconstructed from merged.cols" in report
        for name in ("merged.jsonl", "trace.json"):
            assert (run_dir / name).stat().st_size > 0

    def test_audited_serve_is_clean(self, capsys):
        code = main(
            [
                "serve",
                "--load", "25",
                "--duration", "3",
                "--shards", "2",
                "--workers", "1",
                "--time-scale", "0.01",
                "--unpaced",
                "--audit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard 0 audit: violation_breaches=0" in out
        assert "shard 1 audit: violation_breaches=0" in out

    def test_audited_run_dir_writes_audit_json(self, tmp_path, capsys):
        """``--audit --run-dir`` leaves the run's audit.json (one report
        per shard) for ``ramsis report``'s guarantee-audit section."""
        run_dir = tmp_path / "run"
        code = main(
            [
                "serve",
                "--load", "25",
                "--duration", "3",
                "--shards", "2",
                "--workers", "1",
                "--time-scale", "0.01",
                "--unpaced",
                "--audit",
                "--run-dir", str(run_dir),
            ]
        )
        assert code == 0
        capsys.readouterr()
        audit = json.loads((run_dir / "audit.json").read_text())
        assert audit["breaches"] == 0
        assert len(audit["shards"]) == 2
        assert audit["ok"] == all(shard["ok"] for shard in audit["shards"])
        assert len(audit["windows"]) == sum(
            len(shard["windows"]) for shard in audit["shards"]
        )
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert "guarantee audit" in report
        assert re.search(rf"windows +{len(audit['windows'])}\n", report)

    def test_admission_flags_reported(self, capsys):
        code = main(
            [
                "serve",
                "--load", "600",
                "--duration", "2",
                "--shards", "1",
                "--workers", "2",
                "--time-scale", "0.01",
                "--unpaced",
                "--max-queue-depth", "2",
                "--drop-late",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rejected=" in out and "dropped=" in out
