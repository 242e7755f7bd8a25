"""Additional CLI coverage: ms-gen, simulate sweeps, report filtering."""

import json

from repro.cli import main


class TestMsGen:
    def test_writes_p99_table(self, tmp_path, capsys):
        code = main(
            [
                "ms-gen",
                "--task",
                "image",
                "--slo",
                "150",
                "--workers",
                "2",
                "--load",
                "60",
                "--scale",
                "smoke",
                "--out",
                str(tmp_path / "pol"),
            ]
        )
        assert code == 0
        out_file = tmp_path / "pol" / "MS_2_150" / "p99_table.json"
        assert out_file.exists()
        payload = json.loads(out_file.read_text())
        assert payload["loads_qps"]
        assert set(payload["p99_ms"])  # one series per Pareto model
        for series in payload["p99_ms"].values():
            assert len(series) == len(payload["loads_qps"])
            assert all(v > 0 for v in series)
        assert "script complete!" in capsys.readouterr().err


class TestSimulateSweeps:
    def test_constant_sweep_without_explicit_load(self, tmp_path, capsys):
        """Omitting --load sweeps the preset's constant-load grid."""
        code = main(
            [
                "simulate",
                "--m",
                "Greedy",
                "--trace",
                "constant",
                "--task",
                "image",
                "--workers",
                "2",
                "--scale",
                "smoke",
                "--results-dir",
                str(tmp_path / "results"),
            ]
        )
        assert code == 0
        files = list((tmp_path / "results").glob("image_Greedy_constant_*.json"))
        assert len(files) == 3  # smoke preset has three constant loads

    def test_real_trace_single_worker_count(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--m",
                "Greedy",
                "--trace",
                "real",
                "--task",
                "image",
                "--workers",
                "2",
                "--scale",
                "smoke",
                "--results-dir",
                str(tmp_path / "results"),
            ]
        )
        assert code == 0
        files = list((tmp_path / "results").glob("image_Greedy_real_*.json"))
        assert len(files) == 1
        rows = json.loads(files[0].read_text())
        assert rows[0]["num_workers"] == 2
        assert rows[0]["load_qps"] is None

    def test_rerun_replaces_same_worker_row(self, tmp_path):
        args = [
            "simulate",
            "--m",
            "Greedy",
            "--trace",
            "real",
            "--task",
            "image",
            "--workers",
            "2",
            "--scale",
            "smoke",
            "--results-dir",
            str(tmp_path / "results"),
        ]
        assert main(args) == 0
        assert main(args) == 0
        files = list((tmp_path / "results").glob("image_Greedy_real_*.json"))
        rows = json.loads(files[0].read_text())
        assert len(rows) == 1  # replaced, not appended


class TestReportFiltering:
    def test_task_filter(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        payload = [
            {
                "task": "image",
                "method": "Greedy",
                "slo_ms": 150.0,
                "num_workers": 2,
                "load_qps": None,
                "accuracy": 0.7,
                "violation_rate": 0.01,
                "queries": 100,
            }
        ]
        (results / "image_Greedy_real_150.json").write_text(json.dumps(payload))
        text_payload = [dict(payload[0], task="text")]
        (results / "text_Greedy_real_100.json").write_text(
            json.dumps(text_payload)
        )
        assert (
            main(
                [
                    "report",
                    "--task",
                    "image",
                    "--trace",
                    "real",
                    "--results-dir",
                    str(results),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "image" in out
        assert "text" not in out
