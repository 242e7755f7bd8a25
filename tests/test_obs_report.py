"""Run reports and bench-history regression tracking."""

import json

import pytest

from repro.cli import main
from repro.obs.aggregate import ShardTracer, merge_run_dir, write_merged_artifacts
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    BENCH_HISTORY_WINDOW,
    append_bench_history,
    check_bench_history,
    metric_direction,
    render_run_report,
    render_top_frame,
    write_run_report,
)
from repro.obs.report import _flatten


def populate_run_dir(run_dir):
    """One worker shard plus merged artifacts plus an audit report."""
    run_dir.mkdir(parents=True, exist_ok=True)
    shard = ShardTracer(run_dir / "shard-11.cols", pid=11)
    shard.instant("arrival", "balancer", 0.5)
    shard.complete("serve", "worker-0", 1.0, 4.0, args={"batch": 2})
    shard.instant(
        "completion",
        "worker-0",
        5.0,
        args={"satisfied": True, "accuracy": 0.75},
    )
    shard.instant(
        "completion",
        "worker-0",
        9.0,
        args={"satisfied": False, "accuracy": 0.75},
    )
    shard.counter("queue_depth", "worker-0", 2.0, 3.0)
    shard.close()

    registry = MetricsRegistry()
    registry.counter("queries_total", "Completed queries").inc(2)
    (run_dir / "metrics-11.json").write_text(json.dumps(registry.to_json_dict()))

    merged = merge_run_dir(run_dir)
    write_merged_artifacts(merged, run_dir)
    (run_dir / "audit.json").write_text(
        json.dumps({"ok": True, "windows": 4, "breaches": 0})
    )
    return run_dir


class TestRunReport:
    def test_text_report_sections(self, tmp_path):
        report = render_run_report(populate_run_dir(tmp_path / "run"))
        assert "ramsis run report" in report
        assert "worker shards" in report
        assert "shard-11.cols" in report
        assert "5 records" in report
        assert "reconstructed from merged.cols" in report
        assert "completed queries" in report
        # 1 of 2 completions satisfied.
        assert "violation rate" in report and "50.000%" in report
        assert "merged metrics" in report
        assert "queries_total" in report
        assert "guarantee audit" in report
        assert "merged artifacts" in report

    def test_html_report_escapes_and_tabulates(self, tmp_path):
        report = render_run_report(populate_run_dir(tmp_path / "run"), fmt="html")
        assert report.startswith("<!doctype html>")
        assert "<table>" in report
        assert "<h2>worker shards</h2>" in report

    def test_empty_dir_reports_no_artifacts(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert "(no observability artifacts found)" in render_run_report(empty)

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            render_run_report(tmp_path / "nope")

    def test_unknown_format_raises(self, tmp_path):
        populate_run_dir(tmp_path / "run")
        with pytest.raises(ValueError):
            render_run_report(tmp_path / "run", fmt="pdf")

    def test_write_run_report_default_and_explicit_path(self, tmp_path):
        run_dir = populate_run_dir(tmp_path / "run")
        default = write_run_report(run_dir)
        assert default == run_dir / "report.txt"
        assert "worker shards" in default.read_text()
        explicit = write_run_report(
            run_dir, out_path=tmp_path / "deep" / "r.html", fmt="html"
        )
        assert explicit.is_file()
        assert explicit.read_text().startswith("<!doctype html>")

    def test_cli_report_run_dir(self, tmp_path, capsys):
        run_dir = populate_run_dir(tmp_path / "run")
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "worker shards" in out
        assert (run_dir / "report.txt").is_file()

    def test_cli_report_missing_run_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path / "gone")]) == 1
        assert "not found" in capsys.readouterr().out


def populate_attributed_run_dir(run_dir):
    """A shard carrying the lifecycle schema the attribution engine folds."""
    run_dir.mkdir(parents=True, exist_ok=True)
    shard = ShardTracer(run_dir / "shard-3.cols", pid=3)
    for q, (response, ok) in enumerate(
        [(40.0, True), (90.0, True), (130.0, False)]
    ):
        t0 = q * 200.0
        shard.instant("arrival", "balancer", t0)
        shard.complete(
            "serve",
            "worker-0",
            t0 + 5.0,
            response - 5.0,
            args={"worker": 0, "model": "m", "batch": 1},
        )
        shard.instant(
            "service_start",
            "worker-0",
            t0 + 5.0,
            args={"query": q, "model": "m", "batch": 1, "wait_ms": 5.0},
        )
        shard.instant(
            "completion",
            "worker-0",
            t0 + response,
            args={
                "query": q,
                "worker": 0,
                "model": "m",
                "satisfied": ok,
                "response_ms": response,
            },
        )
    shard.close()
    write_merged_artifacts(merge_run_dir(run_dir), run_dir)
    return run_dir


class TestAttributionReport:
    def test_merged_artifacts_include_attribution(self, tmp_path):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        snap = json.loads((run_dir / "attribution.json").read_text())
        assert snap["totals"]["queries"] == 3

    def test_legacy_schema_run_has_no_attribution_artifact(self, tmp_path):
        run_dir = populate_run_dir(tmp_path / "run")
        assert not (run_dir / "attribution.json").exists()

    def test_report_attribution_and_hotspot_sections(self, tmp_path):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        report = render_run_report(run_dir)
        assert "latency attribution" in report
        assert "m @ worker 0" in report
        assert "3 queries" in report
        assert "phase hotspots (self-time)" in report
        assert "serve" in report

    def test_report_without_attribution_omits_section(self, tmp_path):
        report = render_run_report(populate_run_dir(tmp_path / "run"))
        assert "latency attribution" not in report
        # The legacy fixture still records serve spans → hotspots appear.
        assert "phase hotspots (self-time)" in report

    def test_write_run_report_emits_profile_folded(self, tmp_path):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        write_run_report(run_dir)
        folded = (run_dir / "profile.folded").read_text()
        assert "worker-0;serve" in folded

    @pytest.mark.parametrize("with_attribution", [True, False])
    def test_report_reads_merged_cols_once(
        self, tmp_path, monkeypatch, with_attribution, capsys
    ):
        from repro.obs import columns, reconstruct

        run_dir = populate_attributed_run_dir(tmp_path / "run")
        if not with_attribution:
            (run_dir / "attribution.json").unlink()
        expected = render_run_report(run_dir)
        if not with_attribution:
            # Refolded from merged.cols, at the SLO its header carries.
            assert "latency attribution" in expected
        loader = columns.EventTable.load.__func__
        opened = []

        def counting(cls, path, *args):
            opened.append(path.name)
            return loader(cls, path, *args)

        def no_jsonl(*args):
            raise AssertionError("the report read an event log")

        monkeypatch.setattr(columns.EventTable, "load", classmethod(counting))
        monkeypatch.setattr(reconstruct, "_iter_jsonl", no_jsonl)
        assert render_run_report(run_dir) == expected
        assert opened == ["merged.cols"]
        opened.clear()
        write_run_report(run_dir)
        assert opened == ["merged.cols"]
        assert (run_dir / "profile.folded").is_file()
        opened.clear()
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        assert opened == ["merged.cols"]
        assert "reconstructed from merged.cols" in capsys.readouterr().out

    def test_render_top_frame_reads_merged_artifacts(self, tmp_path):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        frame = render_top_frame(run_dir)
        assert frame.startswith("ramsis top")
        assert "latency attribution [attribution.json]" in frame
        assert "m @ worker 0" in frame

    def test_cli_explain_text_and_json(self, tmp_path, capsys):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        assert main(["explain", "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Latency attribution" in out
        assert "SLO burn rate" in out
        assert main(["explain", "--run-dir", str(run_dir), "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["totals"]["queries"] == 3

    def test_explain_renders_stored_and_refolded_alike(self, tmp_path, capsys):
        """One renderer: ``ramsis explain`` on a stored attribution.json,
        on the merged table it was folded from, and the attributor's own
        ``render_text`` print the same text, exemplar quantile included."""
        from repro.arrivals.traces import LoadTrace
        from repro.obs.aggregate import merge_run_dir, write_merged_artifacts
        from repro.obs.attribution import attribution_from_table
        from repro.obs.columns import EventTable
        from repro.runtime import ShardedController
        from repro.selectors import GreedyDeadlineSelector
        from tests.conftest import make_tiny_model_set

        run_dir = tmp_path / "run"
        ShardedController(
            make_tiny_model_set(), slo_ms=100.0, num_shards=2,
            workers_per_shard=2, seed=1, paced=False, run_dir=str(run_dir),
        ).serve(lambda s: GreedyDeadlineSelector(),
                LoadTrace.constant(150.0, 10_000.0))
        write_merged_artifacts(merge_run_dir(run_dir), run_dir)
        args = ["explain", "--run-dir", str(run_dir), "--top", "3"]
        assert main(args) == 0
        stored = capsys.readouterr().out
        assert "Tail exemplars (p99 threshold" in stored
        table, header = EventTable.load(run_dir / "merged.cols")
        attributor = attribution_from_table(table, slo_ms=header["slo_ms"])
        assert stored == attributor.render_text(limit=3) + "\n"
        (run_dir / "attribution.json").unlink()
        assert main(args) == 0
        assert capsys.readouterr().out == stored

    def test_cli_explain_refolds_event_log(self, tmp_path, capsys):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        (run_dir / "attribution.json").unlink()
        assert (
            main(["explain", "--run-dir", str(run_dir), "--slo", "100"]) == 0
        )
        out = capsys.readouterr().out
        assert "worker" in out

    def test_cli_explain_out_writes_file(self, tmp_path, capsys):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        out_path = tmp_path / "deep" / "explain.txt"
        args = ["explain", "--run-dir", str(run_dir), "--out", str(out_path)]
        assert main(args) == 0
        capsys.readouterr()
        assert "Latency attribution" in out_path.read_text()

    def test_cli_explain_missing_source_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["explain", "--run-dir", str(empty)]) == 1
        assert "no attribution source" in capsys.readouterr().out

    def test_cli_top_once(self, tmp_path, capsys):
        run_dir = populate_attributed_run_dir(tmp_path / "run")
        assert main(["top", "--run-dir", str(run_dir), "--once"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ramsis top")
        assert "m @ worker 0" in out

    def test_cli_top_missing_dir_fails(self, tmp_path, capsys):
        gone = tmp_path / "gone"
        assert main(["top", "--run-dir", str(gone), "--once"]) == 1
        assert "not found" in capsys.readouterr().out


class TestFlattenAndDirection:
    def test_flatten_nested_numeric_leaves(self):
        flat = _flatten(
            {
                "a": {"solve_s": 1.5, "name": "x", "flag": True},
                "rows": [1, 2],
                "n": 3,
            }
        )
        assert flat == {"a.solve_s": 1.5, "n": 3.0}

    def test_direction_from_leaf_suffix(self):
        assert metric_direction("timings.value_iteration_s") == "lower"
        assert metric_direction("variants.tracer.vs_off") == "lower"
        assert metric_direction("engine_speedup") == "higher"
        assert metric_direction("sim.queries_per_s_qps") == "higher"
        assert metric_direction("accuracy") is None


class TestBenchHistory:
    def _record(self, out_dir, value, history=None):
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "micro.json").write_text(json.dumps({"solve_s": value}))
        return append_bench_history(out_dir, history_path=history)

    def test_append_skips_history_and_invalid_json(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "good.json").write_text(json.dumps({"x_s": 1.0}))
        (out / "bad.json").write_text("{not json")
        (out / "history.jsonl").write_text('{"bench": "stale"}\n')
        entries = append_bench_history(out)
        assert [e["bench"] for e in entries] == ["good"]
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2  # stale line + the one new record

    def test_regression_flagged_beyond_tolerance(self, tmp_path):
        out = tmp_path / "out"
        self._record(out, 1.0)
        self._record(out, 1.5)  # 50% slower
        (regression,) = check_bench_history(out / "history.jsonl")
        assert regression.bench == "micro"
        assert regression.key == "solve_s"
        assert regression.better == "lower"
        assert regression.change == pytest.approx(0.5)
        assert "micro:solve_s" in regression.describe()

    def test_improvement_and_within_tolerance_pass(self, tmp_path):
        out = tmp_path / "out"
        self._record(out, 1.0)
        self._record(out, 1.2)  # within the default 25%
        assert check_bench_history(out / "history.jsonl") == []
        self._record(out, 0.5)  # big improvement: never flagged
        assert check_bench_history(out / "history.jsonl") == []

    def test_higher_is_better_direction(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for qps in (100.0, 50.0):
            (out / "sim.json").write_text(json.dumps({"load_qps": qps}))
            append_bench_history(out)
        (regression,) = check_bench_history(out / "history.jsonl")
        assert regression.better == "higher"
        assert regression.latest == 50.0

    def test_drift_judged_against_best_recent_entry(self, tmp_path):
        out = tmp_path / "out"
        for value in (1.0, 1.2, 1.44):  # each 20% worse than the one before
            self._record(out, value)
        (regression,) = check_bench_history(out / "history.jsonl")
        assert (regression.previous, regression.latest) == (1.0, 1.44)
        # The best entry leaves the window after BENCH_HISTORY_WINDOW more.
        for _ in range(BENCH_HISTORY_WINDOW):
            self._record(out, 1.44)
        assert check_bench_history(out / "history.jsonl") == []

    def test_only_latest_pair_compared(self, tmp_path):
        out = tmp_path / "out"
        for value in (5.0, 1.0, 1.1):  # old spike, then stable
            self._record(out, value)
        assert check_bench_history(out / "history.jsonl") == []

    def test_entries_compared_within_their_scale(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        history = out / "history.jsonl"

        def record(scale, value):
            (out / "micro.json").write_text(
                json.dumps({"scale": scale, "solve_s": value})
            )
            append_bench_history(out)
            return check_bench_history(history)

        record("bench", 1.0)
        # The first smoke run has no smoke predecessor; the second is
        # judged against the first.
        assert record("smoke", 0.1) == []
        (regression,) = record("smoke", 0.2)
        assert (regression.previous, regression.latest) == (0.1, 0.2)
        # A bench run after smoke runs meets the previous bench run only.
        (regression,) = record("bench", 1.1)
        assert (regression.previous, regression.latest) == (0.1, 0.2)

    def test_single_entry_and_zero_baseline_skipped(self, tmp_path):
        out = tmp_path / "out"
        self._record(out, 0.0)
        assert check_bench_history(out / "history.jsonl") == []
        self._record(out, 3.0)  # previous was exactly 0 → skipped
        assert check_bench_history(out / "history.jsonl") == []

    def test_missing_history_is_clean(self, tmp_path):
        assert check_bench_history(tmp_path / "none.jsonl") == []

    def test_untracked_keys_never_flagged(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        for acc in (0.9, 0.1):
            (out / "fig.json").write_text(json.dumps({"accuracy": acc}))
            append_bench_history(out)
        assert check_bench_history(out / "history.jsonl") == []

    def test_cli_append_then_check_gates(self, tmp_path, capsys):
        out = tmp_path / "out"
        self._record(out, 1.0)
        (out / "micro.json").write_text(json.dumps({"solve_s": 2.0}))
        args = ["bench-history", "--out-dir", str(out), "--check"]
        assert main(args) == 1
        assert "regression(s)" in capsys.readouterr().out
        # Looser tolerance passes without recording a new generation.
        assert (
            main(args + ["--no-append", "--tolerance", "2.0"]) == 0
        )
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 2
