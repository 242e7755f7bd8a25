"""End-to-end observability tests.

The core guarantee: the trace is a sufficient statistic for the headline
numbers — folding the per-query lifecycle records back together must
reproduce ``SimulationMetrics`` *exactly*, for every queue discipline and
for dropped queries too.
"""

import json

import numpy as np
import pytest

from repro.arrivals.traces import LoadTrace
from repro.core.generator import generate_policy
from repro.obs.exporters import write_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.reconstruct import reconstruct_from_jsonl, reconstruct_metrics
from repro.obs.trace import RecordingTracer
from repro.selectors.base import QueueScope
from repro.sim.simulator import Simulation, SimulationConfig
from tests.test_sim_simulator import AlwaysModelSelector


def traced_run(
    models,
    selector,
    trace,
    workers=2,
    slo=100.0,
    seed=0,
    **cfg_kwargs,
):
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    sim = Simulation(
        SimulationConfig(
            model_set=models,
            slo_ms=slo,
            num_workers=workers,
            tracer=tracer,
            registry=registry,
            seed=seed,
            **cfg_kwargs,
        )
    )
    metrics = sim.run(selector, trace)
    return metrics, tracer, registry


class TestTraceReconstruction:
    def test_per_worker_discipline_exact(self, tiny_models):
        metrics, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(120.0, 10_000.0),
        )
        summary = reconstruct_metrics(tracer)
        assert summary.total_queries == metrics.total_queries
        assert summary.violation_rate == metrics.violation_rate
        assert summary.decisions == metrics.decisions
        assert summary.mean_batch_size == metrics.mean_batch_size
        assert summary.arrivals == metrics.total_queries

    def test_central_discipline_exact(self, tiny_models):
        metrics, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast", scope=QueueScope.CENTRAL),
            LoadTrace.constant(120.0, 10_000.0),
        )
        summary = reconstruct_metrics(tracer)
        assert summary.total_queries == metrics.total_queries
        assert summary.violation_rate == metrics.violation_rate
        assert summary.mean_batch_size == metrics.mean_batch_size

    def test_drop_late_exact(self, tiny_models):
        """Dropped queries appear as unsatisfied completions, so the
        reconstruction stays exact under overload with drop_late."""
        metrics, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("slow"),
            LoadTrace.constant(150.0, 5_000.0),
            workers=1,
            slo=50.0,
            drop_late=True,
        )
        assert metrics.violation_rate > 0.0  # the scenario actually drops
        summary = reconstruct_metrics(tracer)
        assert summary.total_queries == metrics.total_queries
        assert summary.violation_rate == metrics.violation_rate
        assert summary.mean_batch_size == metrics.mean_batch_size

    def test_jsonl_roundtrip_exact(self, tiny_models, tmp_path):
        metrics, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 8_000.0),
        )
        path = write_events_jsonl(tracer, tmp_path / "events.jsonl")
        summary = reconstruct_from_jsonl(path)
        assert summary.total_queries == metrics.total_queries
        assert summary.violation_rate == metrics.violation_rate
        assert summary.mean_batch_size == metrics.mean_batch_size


class TestTraceContents:
    def test_expected_tracks(self, tiny_models):
        _, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 5_000.0),
            workers=2,
        )
        assert tracer.tracks() == ["balancer", "engine", "worker-0", "worker-1"]

    def test_serve_span_args(self, tiny_models):
        _, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 5_000.0),
        )
        serve = [s for s in tracer.spans if s.name == "serve"]
        assert serve
        for span in serve:
            assert span.args["model"] == "fast"
            assert span.args["batch"] >= 1
            assert span.duration_ms > 0.0

    def test_lifecycle_ordering(self, tiny_models):
        """Each query arrives before its service starts, and service
        starts before its completion."""
        _, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(50.0, 5_000.0),
        )
        arrival_ts = {}
        start_ts = {}
        completion_ts = {}
        for ev in tracer.events:
            if ev.is_counter:
                continue
            q = ev.args.get("query")
            if ev.name == "arrival":
                arrival_ts[q] = ev.ts_ms
            elif ev.name == "service_start":
                start_ts[q] = ev.ts_ms
            elif ev.name == "completion":
                completion_ts[q] = ev.ts_ms
        assert set(arrival_ts) == set(completion_ts)
        for q, ts in start_ts.items():
            assert arrival_ts[q] <= ts <= completion_ts[q]

    def test_queue_wait_recorded(self, tiny_models):
        _, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(120.0, 5_000.0),
        )
        waits = [
            ev.args["wait_ms"]
            for ev in tracer.events
            if not ev.is_counter and ev.name == "service_start"
        ]
        assert waits
        assert all(w >= 0.0 for w in waits)


class TestRegistryIntegration:
    def test_counters_match_metrics(self, tiny_models):
        metrics, _, registry = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 8_000.0),
        )
        (completions,) = registry.collect("sim_completions_total")
        (violations,) = registry.collect("sim_violations_total")
        assert completions.value == metrics.total_queries
        violation_count = round(metrics.violation_rate * metrics.total_queries)
        assert violations.value == violation_count

    def test_batch_histogram_matches_decisions(self, tiny_models):
        metrics, _, registry = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 8_000.0),
        )
        (batch,) = registry.collect("sim_batch_size")
        assert batch.count == metrics.decisions
        assert batch.mean == pytest.approx(metrics.mean_batch_size)

    def test_per_model_query_counters(self, tiny_models):
        metrics, _, registry = traced_run(
            tiny_models,
            AlwaysModelSelector("medium"),
            LoadTrace.constant(60.0, 5_000.0),
        )
        per_model = {
            dict(c.labels)["model"]: c.value
            for c in registry.collect("sim_queries_total")
        }
        assert per_model == {"medium": float(metrics.total_queries)}

    def test_load_gauges_published(self, tiny_models):
        _, _, registry = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 5_000.0),
        )
        (anticipated,) = registry.collect("sim_anticipated_load_qps")
        assert anticipated.series  # time series, not just a last value
        (realized,) = registry.collect("monitor_realized_load_qps")
        assert realized.series

    def test_registry_without_tracer(self, tiny_models):
        """Metrics work on their own; tracing is not required."""
        registry = MetricsRegistry()
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                num_workers=2,
                registry=registry,
            )
        )
        metrics = sim.run(
            AlwaysModelSelector("fast"), LoadTrace.constant(80.0, 5_000.0)
        )
        (completions,) = registry.collect("sim_completions_total")
        assert completions.value == metrics.total_queries


class TestGeneratorTracing:
    def test_pipeline_spans_nested(self, tiny_config):
        tracer = RecordingTracer()
        result = generate_policy(tiny_config, tracer=tracer)
        names = [s.name for s in tracer.spans]
        for expected in (
            "stacked_bank",
            "build_stacked_bank",
            "stacked_value_iteration",
            "stacked_evaluate",
        ):
            assert expected in names
        spans = {s.name: s for s in tracer.spans}
        root = spans["stacked_bank"]
        assert spans["stacked_value_iteration"].parent_id == root.span_id
        assert result.policy is not None

    def test_vi_sweep_events(self, tiny_config):
        tracer = RecordingTracer()
        result = generate_policy(tiny_config, tracer=tracer)
        sweeps = [
            ev
            for ev in tracer.events
            if not ev.is_counter and ev.name == "vi_sweep"
        ]
        assert len(sweeps) == result.iterations
        iterations = [ev.args["iteration"] for ev in sweeps]
        assert iterations == list(range(1, len(sweeps) + 1))

    def test_residuals_surface_on_result(self, tiny_config):
        result = generate_policy(tiny_config, record_residuals=True)
        assert result.residuals is not None
        assert len(result.residuals) == result.iterations
        # Bellman contraction: each sweep shrinks the sup-norm change.
        gamma = tiny_config.discount
        for prev, cur in zip(result.residuals, result.residuals[1:]):
            assert cur <= gamma * prev + 1e-9

    def test_residuals_off_by_default(self, tiny_config):
        assert generate_policy(tiny_config).residuals is None


class TestSimulatorOverheadPath:
    def test_default_config_has_no_tracer(self, tiny_models):
        """Untraced runs carry no obs state and produce no records."""
        cfg = SimulationConfig(
            model_set=tiny_models, slo_ms=100.0, num_workers=1
        )
        assert cfg.tracer is None
        assert cfg.registry is None

    def test_traced_and_untraced_metrics_identical(self, tiny_models):
        trace = LoadTrace.constant(100.0, 8_000.0)
        arrivals = np.sort(np.random.default_rng(5).uniform(0, 8_000.0, 400))
        plain = Simulation(
            SimulationConfig(model_set=tiny_models, slo_ms=100.0, num_workers=2)
        ).run(AlwaysModelSelector("fast"), trace, arrival_times=arrivals)
        traced = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                num_workers=2,
                tracer=RecordingTracer(),
                registry=MetricsRegistry(),
            )
        ).run(AlwaysModelSelector("fast"), trace, arrival_times=arrivals)
        assert plain.violation_rate == traced.violation_rate
        assert plain.mean_batch_size == traced.mean_batch_size
        assert plain.total_queries == traced.total_queries


class TestCliTraceCommand:
    def test_emits_artifacts_and_consistency(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "obs"
        code = main(
            [
                "trace",
                "--m",
                "Greedy",
                "--workers",
                "2",
                "--load",
                "30",
                "--duration",
                "4",
                "--out-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "(consistent)" in captured.out
        for artifact in ("events.jsonl", "trace.json", "metrics.prom"):
            assert (out_dir / artifact).exists()
        doc = json.loads((out_dir / "trace.json").read_text())
        assert doc["traceEvents"]
        prom = (out_dir / "metrics.prom").read_text()
        assert "# TYPE sim_response_ms histogram" in prom
        summary = reconstruct_from_jsonl(out_dir / "events.jsonl")
        assert summary.total_queries > 0
