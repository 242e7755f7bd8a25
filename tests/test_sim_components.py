"""Tests for simulator components: queries, latency models, monitor, metrics."""

import numpy as np
import pytest

from repro.arrivals.traces import LoadTrace
from repro.sim.latency_model import DeterministicLatency, StochasticLatency
from repro.sim.metrics import MetricsCollector
from repro.sim.monitor import LoadMonitor, OracleLoadMonitor
from tests.oracles.sim_loop import Query


class TestQuery:
    def test_deadline_assignment(self):
        q = Query.create(7, arrival_ms=100.0, slo_ms=150.0)
        assert q.deadline_ms == 250.0
        assert q.query_id == 7

    def test_slack(self):
        q = Query.create(0, 100.0, 150.0)
        assert q.slack_at(100.0) == 150.0
        assert q.slack_at(260.0) == -10.0

    def test_ordering_by_deadline(self):
        early = Query.create(1, 0.0, 100.0)
        late = Query.create(0, 50.0, 100.0)
        assert early < late

    def test_ordering_tiebreak_by_id(self):
        a = Query.create(1, 0.0, 100.0)
        b = Query.create(2, 0.0, 100.0)
        assert a < b


class TestLatencyModels:
    def test_deterministic_returns_p95(self, tiny_models):
        model = tiny_models.get("medium")
        lm = DeterministicLatency()
        assert lm.execution_ms(model, 3) == model.latency_ms(3)

    def test_stochastic_seeded(self, image_models):
        model = image_models.get("efficientnet_b2")
        a = StochasticLatency(seed=5)
        b = StochasticLatency(seed=5)
        assert a.execution_ms(model, 2) == b.execution_ms(model, 2)

    def test_stochastic_usually_below_p95(self, image_models):
        """§7.3.1: real executions usually beat the planned p95."""
        model = image_models.get("efficientnet_b2")
        lm = StochasticLatency(seed=9)
        draws = [lm.execution_ms(model, 1) for _ in range(2000)]
        below = sum(d <= model.latency_ms(1) for d in draws) / len(draws)
        assert below == pytest.approx(0.95, abs=0.02)

    def test_clone_restarts_stream(self, image_models):
        """A clone at seed s matches a fresh instance at seed s, regardless
        of how far the original's stream has advanced."""
        model = image_models.get("efficientnet_b2")
        original = StochasticLatency(seed=5)
        original.execution_ms(model, 1)  # advance the original's stream
        clone = original.clone(seed=5)
        fresh = StochasticLatency(seed=5)
        assert clone.execution_ms(model, 1) == fresh.execution_ms(model, 1)


class TestLoadMonitor:
    def test_empty_monitor_reports_zero(self):
        assert LoadMonitor().anticipated_load_qps(100.0) == 0.0

    def test_counts_within_window(self):
        m = LoadMonitor(window_ms=500.0)
        for t in np.arange(0.0, 500.0, 10.0):  # 100 QPS
            m.record_arrival(float(t))
        assert m.anticipated_load_qps(500.0) == pytest.approx(100.0, rel=0.05)

    def test_evicts_old_arrivals(self):
        m = LoadMonitor(window_ms=500.0)
        for t in np.arange(0.0, 500.0, 10.0):
            m.record_arrival(float(t))
        assert m.anticipated_load_qps(2_000.0) == 0.0

    def test_early_estimates_unbiased(self):
        """Before a full window elapses, divide by elapsed time."""
        m = LoadMonitor(window_ms=500.0)
        for t in np.arange(0.0, 100.0, 10.0):  # 100 QPS for 100 ms
            m.record_arrival(float(t))
        assert m.anticipated_load_qps(100.0) == pytest.approx(100.0, rel=0.05)

    def test_reset(self):
        m = LoadMonitor()
        m.record_arrival(1.0)
        m.reset()
        assert m.anticipated_load_qps(2.0) == 0.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            LoadMonitor(window_ms=0.0)

    def test_oracle_reads_trace(self):
        trace = LoadTrace(interval_ms=1_000.0, qps=(10.0, 90.0))
        m = OracleLoadMonitor(trace)
        assert m.anticipated_load_qps(500.0) == 10.0
        assert m.anticipated_load_qps(1_500.0) == 90.0
        # Clamped at the trace edge rather than raising.
        assert m.anticipated_load_qps(5_000.0) == 90.0


class TestMetricsCollector:
    def test_aggregates(self):
        c = MetricsCollector()
        c.record_decision(2)
        c.record_completion("m", 0.8, 50.0, satisfied=True)
        c.record_completion("m", 0.8, 200.0, satisfied=False)
        c.record_decision(1)
        c.record_completion("n", 0.6, 70.0, satisfied=True)
        m = c.finalize()
        assert m.total_queries == 3
        assert m.satisfied_queries == 2
        assert m.violation_rate == pytest.approx(1 / 3)
        assert m.accuracy_per_satisfied_query == pytest.approx(0.7)
        assert m.mean_batch_size == pytest.approx(1.5)
        assert m.model_query_counts == {"m": 2, "n": 1}

    def test_empty_finalize(self):
        m = MetricsCollector().finalize()
        assert m.total_queries == 0
        assert m.violation_rate == 0.0
        assert m.accuracy_per_satisfied_query == 0.0

    def test_percentiles(self):
        c = MetricsCollector()
        for r in range(1, 101):
            c.record_completion("m", 0.5, float(r), satisfied=True)
        m = c.finalize()
        assert m.p50_response_ms == pytest.approx(50.5)
        assert m.p99_response_ms == pytest.approx(99.01, abs=0.5)

    def test_untracked_responses_fall_back_to_mean(self):
        c = MetricsCollector(track_responses=False)
        c.record_completion("m", 0.5, 10.0, satisfied=True)
        c.record_completion("m", 0.5, 30.0, satisfied=True)
        m = c.finalize()
        assert m.p99_response_ms == pytest.approx(20.0)

    def test_model_share(self):
        c = MetricsCollector()
        c.record_completion("a", 0.5, 1.0, True)
        c.record_completion("b", 0.5, 1.0, True)
        c.record_completion("b", 0.5, 1.0, False)
        share = c.finalize().model_share()
        assert share == {"a": pytest.approx(1 / 3), "b": pytest.approx(2 / 3)}

    def test_summary_string(self):
        c = MetricsCollector()
        c.record_completion("m", 0.5, 10.0, True)
        assert "queries=1" in c.finalize().summary()
