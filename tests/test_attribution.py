"""Tail-latency attribution: phases, blame, burn rate, exemplars.

The contracts under test, matching the module's acceptance criteria:

- **Exactness.**  Every query's phase components sum to its end-to-end
  latency with float ``==`` (no tolerance), on the simulator's dispatch
  kernel and on its reference-loop oracle.
- **Engine equality.**  The kernel's attribution snapshot equals the
  oracle's, equals a replay of the recorded trace.
- **Parallel == serial.**  A ``jobs=2`` sweep with an attributor folds
  shards back into tables exactly equal to a serial sweep's.
- **Burn-rate alerting.**  Multi-window violation tracking fires (with
  hysteresis) through the same alert plumbing as the guarantee auditor.
- **Exemplars.**  Tail span chains are retained above the rolling
  quantile, capped at capacity, deterministically.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.arrivals.traces import LoadTrace
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import SweepCell, run_sweep
from repro.experiments.tasks import image_task
from repro.obs.attribution import (
    DROPPED_MODEL,
    LatencyAttributor,
    attribution_from_jsonl,
    attribution_from_tracer,
)
from repro.obs.attribution import _exact_phase_splits, _worker_from_track
from repro.obs.audit import AuditAlert, GuaranteeAuditor
from repro.obs.exporters import write_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.selectors import GreedyDeadlineSelector, JellyfishPlusSelector
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig
from tests.conftest import make_tiny_model_set
from tests.oracles.attribution_fold import (
    HookAttributor,
    HookBurnWindow,
    exact_phase_split,
)
from tests.oracles.sim_loop import run_reference

TRACE = LoadTrace.constant(140.0, 6_000.0, name="attr-const")


def run_attributed(engine, trace=TRACE, selector=JellyfishPlusSelector, **kwargs):
    """One fresh attributed simulation on the dispatch kernel
    (``engine="kernel"``) or the reference-loop oracle (``"oracle"``,
    which feeds the per-record hook oracle); returns (metrics,
    attributor)."""
    attributor = (HookAttributor if engine == "oracle" else LatencyAttributor)(
        slo_ms=100.0, record_queries=True, burn_windows=(50, 200), **kwargs
    )
    config = SimulationConfig(
        model_set=make_tiny_model_set(),
        slo_ms=100.0,
        num_workers=2,
        max_batch_size=8,
        monitor=OracleLoadMonitor(trace),
        seed=3,
        attributor=attributor,
    )
    if engine == "oracle":
        metrics = run_reference(config, selector(), trace)
    else:
        metrics = Simulation(config).run(selector(), trace)
    return metrics, attributor


class TestExactPhaseSplit:
    def test_random_pairs_sum_exactly(self):
        rng = np.random.default_rng(11)
        responses = rng.uniform(0.0, 1e4, size=20_000)
        waits = responses * rng.uniform(0.0, 1.0, size=responses.size)
        for response, wait in zip(responses, waits):
            w, s = exact_phase_split(float(response), float(wait))
            assert w + s == float(response)

    def test_adversarial_magnitudes(self):
        rng = np.random.default_rng(13)
        for _ in range(2_000):
            response = float(10.0 ** rng.uniform(-3, 6))
            wait = response * float(rng.uniform(0.0, 1.0))
            w, s = exact_phase_split(response, wait)
            assert w + s == response

    def test_wait_moves_at_most_marginally(self):
        w, s = exact_phase_split(100.0, 30.0)
        assert w == pytest.approx(30.0)
        assert w + s == 100.0

    def test_array_split_equals_scalar_split(self):
        """The bulk fold's vectorised split runs the scalar one's fixpoint
        steps element by element: same bits, signed zeros and NaN too."""
        rng = np.random.default_rng(17)
        responses = np.concatenate([
            10.0 ** rng.uniform(-3, 6, size=20_000),
            [0.0, -0.0, 0.0, 5.0, np.inf, np.nan, 1e308, 5e-324],
        ])
        waits = np.concatenate([
            responses[:20_000] * rng.uniform(0.0, 1.0, size=20_000),
            [-0.0, 0.0, 0.0, np.inf, 1.0, 1.0, -1e308, 5e-324],
        ])
        wait, service = _exact_phase_splits(responses, waits)
        expected = [
            exact_phase_split(r, w) for r, w in zip(responses.tolist(), waits.tolist())
        ]
        assert repr(list(zip(wait.tolist(), service.tolist()))) == repr(expected)


class TestEngineAttribution:
    def test_phases_sum_exactly_both_engines(self):
        for engine in ("kernel", "oracle"):
            metrics, attributor = run_attributed(engine)
            assert metrics.total_queries > 50
            assert len(attributor.breakdowns) == metrics.total_queries
            for b in attributor.breakdowns:
                total = (
                    b.queue_wait_ms + b.batch_wait_ms + b.service_ms + b.drop_ms
                )
                assert total == b.response_ms

    def test_fast_equals_reference_snapshot(self):
        _, fast = run_attributed("kernel")
        _, reference = run_attributed("oracle")
        assert fast.to_json_dict() == reference.to_json_dict()

    def test_attributor_does_not_change_metrics(self):
        trace = TRACE
        sim_cfg = dict(
            model_set=make_tiny_model_set(),
            slo_ms=100.0,
            num_workers=2,
            max_batch_size=8,
            monitor=OracleLoadMonitor(trace),
            seed=3,
        )
        plain = Simulation(SimulationConfig(**sim_cfg)).run(
            JellyfishPlusSelector(), trace, engine="fast"
        )
        attributed, _ = run_attributed("kernel")
        assert attributed == plain

    def test_attributor_alone_keeps_fast_engine(self):
        # The attributed run stays on the one kernel and matches the
        # attributed oracle.
        metrics, attributor = run_attributed("kernel")
        oracle, _ = run_attributed("oracle")
        assert metrics == oracle
        assert attributor.to_json_dict()["totals"]["queries"] > 0

    def test_replay_recorded_trace_equals_live(self):
        tracer = RecordingTracer()
        trace = TRACE
        sim = Simulation(
            SimulationConfig(
                model_set=make_tiny_model_set(),
                slo_ms=100.0,
                num_workers=2,
                max_batch_size=8,
                monitor=OracleLoadMonitor(trace),
                seed=3,
                tracer=tracer,
            )
        )
        sim.run(JellyfishPlusSelector(), trace)
        replayed = attribution_from_tracer(
            tracer, slo_ms=100.0, burn_windows=(50, 200)
        )
        _, live = run_attributed("kernel")
        assert replayed.to_json_dict() == live.to_json_dict()

    def test_jsonl_fold_equals_tracer_fold(self, tmp_path):
        tracer = RecordingTracer()
        trace = TRACE
        sim = Simulation(
            SimulationConfig(
                model_set=make_tiny_model_set(),
                slo_ms=100.0,
                num_workers=2,
                max_batch_size=8,
                monitor=OracleLoadMonitor(trace),
                seed=3,
                tracer=tracer,
            )
        )
        sim.run(JellyfishPlusSelector(), trace)
        path = write_events_jsonl(tracer, tmp_path / "events.jsonl")
        from_file = attribution_from_jsonl(path, slo_ms=100.0)
        from_tracer = attribution_from_tracer(tracer, slo_ms=100.0)
        # Single-cell logs replay without id collisions: aggregate
        # tables match the tracer fold exactly.
        assert from_file.rows() == from_tracer.rows()

    def test_drops_attributed(self):
        trace = LoadTrace.constant(500.0, 3_000.0, name="attr-overload")
        attributor = LatencyAttributor(slo_ms=100.0, record_queries=True)
        sim = Simulation(
            SimulationConfig(
                model_set=make_tiny_model_set(),
                slo_ms=100.0,
                num_workers=2,
                max_batch_size=8,
                monitor=OracleLoadMonitor(trace),
                seed=3,
                drop_late=True,
                attributor=attributor,
            )
        )
        metrics = sim.run(GreedyDeadlineSelector(), trace, engine="fast")
        snap = attributor.to_json_dict()
        dropped_rows = [r for r in snap["rows"] if r["model"] == DROPPED_MODEL]
        dropped = metrics.model_query_counts.get(DROPPED_MODEL, 0)
        assert dropped > 0, "overload scenario should drop queries"
        assert sum(r["dropped"] for r in dropped_rows) == dropped
        for b in attributor.breakdowns:
            if b.dropped:
                assert b.queue_wait_ms == b.service_ms == 0.0
                assert b.drop_ms == b.response_ms


class TestParallelSerialEquality:
    def test_sweep_parallel_matches_serial(self, tmp_path):
        from repro.experiments.runner import clear_caches

        scale = ExperimentScale.smoke()
        task = image_task()
        cells = [
            SweepCell(
                method=method,
                task=task,
                slo_ms=task.slos_ms[0],
                num_workers=scale.constant_workers_image,
                trace=LoadTrace.constant(
                    load,
                    scale.constant_duration_s * 1000.0,
                    name=f"attr-{load:g}",
                ),
                seed=23,
                oracle_load=True,
            )
            for load in (20.0, 50.0)
            for method in ("JF", "Greedy")
        ]
        clear_caches()
        serial_attr = LatencyAttributor(slo_ms=task.slos_ms[0])
        serial = run_sweep(cells, scale, attributor=serial_attr)
        clear_caches()
        parallel_attr = LatencyAttributor(slo_ms=task.slos_ms[0])
        run_dir = tmp_path / "run"
        parallel = run_sweep(
            cells,
            scale,
            jobs=2,
            attributor=parallel_attr,
            run_dir=run_dir,
        )
        assert parallel == serial
        # The tentpole contract: parallel attribution tables exactly
        # equal the serial ones (float ==, not approx).
        assert parallel_attr.to_json_dict() == serial_attr.to_json_dict()
        # The merged artifact carries the attribution snapshot.
        artifact = json.loads((run_dir / "attribution.json").read_text())
        assert artifact["totals"]["queries"] == (
            parallel_attr.to_json_dict()["totals"]["queries"]
        )
        # Pool workers published live per-pid feeds (`ramsis top` input);
        # each query lands in exactly one worker, so the feeds partition
        # the merged total.
        feeds = list(run_dir.glob("attribution-*.json"))
        assert feeds, "run_sweep workers should publish live attribution"
        feed_total = sum(
            json.loads(p.read_text())["totals"]["queries"] for p in feeds
        )
        assert feed_total == artifact["totals"]["queries"]


class TestBlame:
    def test_profiled_blame_charges_gap_to_fastest(self):
        models = list(make_tiny_model_set())
        attributor = HookAttributor(slo_ms=100.0, models=models)
        # Two decisions on worker 0 at batch 2: "slow" vs "fast".
        by_name = {m.name: m for m in models}
        attributor.observe_decision(0, "slow", 2, by_name["slow"].latency_ms(2))
        attributor.observe_decision(0, "fast", 2, by_name["fast"].latency_ms(2))
        for qid, model in ((1, "slow"), (2, "fast")):
            attributor.observe_service_start(qid, 0, model, 2, 5.0)
            attributor.observe_completion(qid, 0, model, 50.0, True)
        rows = {r["model"]: r for r in attributor.rows()}
        gap = by_name["slow"].latency_ms(2) - by_name["fast"].latency_ms(2)
        assert rows["fast"]["blame_ms"] == 0.0
        assert rows["slow"]["blame_ms"] == pytest.approx(gap)
        assert rows["slow"]["blame_per_query_ms"] == pytest.approx(gap / 2.0)

    def test_observed_blame_without_model_set(self):
        attributor = HookAttributor()
        # Same (worker, batch): mean 40 ms for "a", 10 ms for "b".
        attributor.observe_decision(0, "a", 1, 40.0)
        attributor.observe_decision(0, "b", 1, 10.0)
        for qid, model in ((1, "a"), (2, "b")):
            attributor.observe_service_start(qid, 0, model, 1, 0.0)
            attributor.observe_completion(qid, 0, model, 40.0, True)
        rows = {r["model"]: r for r in attributor.rows()}
        assert rows["b"]["blame_ms"] == 0.0
        assert rows["a"]["blame_ms"] == pytest.approx(30.0)


class TestBurnRate:
    def feed(self, attributor, outcomes):
        for i, satisfied in enumerate(outcomes):
            attributor.observe_completion(i, 0, "m", 10.0, satisfied, t_ms=i)

    def test_window_rates(self):
        window = HookBurnWindow(4)
        for v in (True, False, True, True):
            window.push(v)
        assert window.full
        assert window.violations == 3
        assert window.rate == 0.75
        window.push(False)  # evicts the first True
        assert window.violations == 2
        assert window.rate == 0.5

    def test_alert_fires_once_with_hysteresis(self):
        alerts = []
        attributor = HookAttributor(
            slo_ms=100.0,
            burn_windows=(10,),
            burn_threshold=0.5,
            alert_sink=alerts.append,
        )
        # 10 good (arms, burn 0), then 10 bad: crossing fires exactly once.
        self.feed(attributor, [True] * 10 + [False] * 10)
        assert len(alerts) == 1
        assert alerts[0].kind == "slo-burn-rate"
        # Recover below threshold, then breach again: fires once more.
        self.feed(attributor, [True] * 10)
        self.feed(attributor, [False] * 10)
        assert len(alerts) == 2

    def test_burn_uses_violation_budget(self):
        attributor = HookAttributor(
            burn_windows=(10,), violation_budget=0.2, burn_threshold=1.0
        )
        self.feed(attributor, [True] * 5 + [False] * 5)
        snap = attributor.to_json_dict()["burn"]["windows"][0]
        assert snap["rate"] == 0.5
        assert snap["burn"] == pytest.approx(2.5)

    def test_alerts_feed_guarantee_auditor_stream(self):
        auditor = GuaranteeAuditor()
        seen = []
        auditor.add_alert_callback(seen.append)
        attributor = HookAttributor(
            burn_windows=(5,), burn_threshold=0.5,
            alert_sink=auditor.emit_alert,
        )
        self.feed(attributor, [True] * 5 + [False] * 5)
        assert len(seen) == 1
        assert isinstance(seen[0], AuditAlert)
        assert seen[0].kind == "slo-burn-rate"

    def test_registry_metrics_published(self):
        registry = MetricsRegistry()
        attributor = HookAttributor(
            burn_windows=(5,), burn_threshold=0.5, registry=registry
        )
        self.feed(attributor, [True] * 5 + [False] * 5)
        from repro.obs.exporters import prometheus_text

        text = prometheus_text(registry)
        assert "audit_burn_rate" in text
        assert "audit_burn_alerts_total" in text
        assert "attribution_queries_total" in text


class TestExemplars:
    def test_capacity_and_threshold(self):
        attributor = HookAttributor(
            exemplar_quantile=0.9, exemplar_capacity=4, exemplar_warmup=50
        )
        rng = np.random.default_rng(5)
        latencies = rng.uniform(10.0, 20.0, size=400)
        latencies[::50] += 1000.0  # unambiguous tail
        for i, lat in enumerate(latencies):
            attributor.observe_service_start(i, 0, "m", 1, lat / 4.0)
            attributor.observe_completion(i, 0, "m", float(lat), True, t_ms=i)
        chains = attributor.to_json_dict()["exemplars"]["chains"]
        assert 0 < len(chains) <= 4
        # Retained chains are tail latencies, sorted worst-first, with
        # the full phase decomposition attached.
        assert all(c["response_ms"] > 1000.0 for c in chains)
        assert chains == sorted(
            chains, key=lambda c: -c["response_ms"]
        )
        for c in chains:
            assert c["queue_wait_ms"] + c["service_ms"] == c["response_ms"]
            assert c["threshold_ms"] <= c["response_ms"]

    def test_no_exemplars_before_warmup(self):
        attributor = HookAttributor(exemplar_warmup=1000)
        for i in range(100):
            attributor.observe_completion(i, 0, "m", 1e6, True)
        assert attributor.to_json_dict()["exemplars"]["chains"] == []


class TestPlumbing:
    def test_worker_from_track(self):
        assert _worker_from_track("worker-3") == 3
        assert _worker_from_track("w1/worker-7") == 7
        assert _worker_from_track("balancer") == -1
        assert _worker_from_track("worker-x") == -1

    def test_totals_add_rows_left_to_right(self):
        """Float totals are the plain left-to-right sum of the rows, on
        every Python (builtin ``sum`` compensates from 3.12 on, which
        would give 1.0 here)."""
        attributor = HookAttributor()
        for model, response in (("a", 1e16), ("b", 1.0), ("c", -1e16)):
            attributor.observe_completion(0, 0, model, response, True)
        assert attributor.to_json_dict()["totals"]["response_ms"] == 0.0

    def test_render_text_smoke(self):
        _, attributor = run_attributed("fast")
        text = attributor.render_text(limit=3)
        assert "Latency attribution" in text
        assert "SLO burn rate" in text
        assert "Tail exemplars" in text

    def test_jsonl_fold_skips_torn_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        good = json.dumps(
            {
                "type": "instant",
                "name": "completion",
                "track": "worker-0",
                "ts_ms": 9.0,
                "args": {
                    "query": 1, "worker": 0, "model": "m",
                    "satisfied": True, "response_ms": 9.0,
                },
            }
        )
        path.write_text(good + "\n" + good[: len(good) // 2])
        attributor = attribution_from_jsonl(path)
        assert attributor.to_json_dict()["totals"]["queries"] == 1


class TestRuntimeAttribution:
    def test_controller_attribution_and_snapshots(self, tmp_path):
        from repro.profiles.zoo import build_image_model_set
        from repro.runtime import ShardedController

        attributor = LatencyAttributor(slo_ms=150.0, record_queries=True)
        controller = ShardedController(
            build_image_model_set(),
            slo_ms=150.0,
            num_shards=1,
            workers_per_shard=2,
            time_scale=0.01,
            run_dir=str(tmp_path),
            snapshot_interval_s=0.05,
        )
        report = controller.serve(
            lambda s: JellyfishPlusSelector(),
            LoadTrace.constant(40.0, 1_500.0),
            attributors=[attributor],
        )
        snap = attributor.to_json_dict()
        assert snap["totals"]["queries"] == report.submitted
        for b in attributor.breakdowns:
            total = (
                b.queue_wait_ms + b.batch_wait_ms + b.service_ms + b.drop_ms
            )
            assert total == b.response_ms
        # The serve published at least the final frame.
        feeds = list(tmp_path.glob("attribution-*.json"))
        assert feeds
        published = json.loads(feeds[0].read_text())
        assert published["totals"]["queries"] == report.submitted


class TestSortedQuantileGolden:
    """The attributor's rolling tail threshold reads the histogram's sorted
    mirror; on a served run long enough to overflow the 4096-sample
    reservoir, every table and artifact must equal, bit for bit, the
    per-record hook oracle's asking the sort-per-call quantile at every
    completion."""

    def test_served_run_attribution_equals_sort_oracle(
        self, tmp_path, monkeypatch
    ):
        from repro.obs.aggregate import merge_run_dir, write_merged_artifacts
        from repro.obs.columns import EventTable, json_default
        from repro.obs.metrics import Histogram
        from repro.runtime import ShardedController
        from repro.sim.latency_model import DeterministicLatency
        from tests.oracles.attribution_fold import hook_fold
        from tests.test_obs_metrics import sort_quantile

        controller = ShardedController(
            make_tiny_model_set(),
            slo_ms=100.0,
            num_shards=2,
            workers_per_shard=2,
            latency_model=DeterministicLatency(),
            seed=5,
            paced=False,
            drop_late=True,
            run_dir=str(tmp_path / "run"),
        )
        controller.serve(
            lambda s: GreedyDeadlineSelector(),
            LoadTrace.constant(250.0, 20_000.0, name="golden"),
        )
        merged = merge_run_dir(tmp_path / "run")

        snap = attribution_from_tracer(
            merged.tracer, slo_ms=100.0, burn_windows=(50, 500)
        ).to_json_dict()
        write_merged_artifacts(merged, tmp_path / "mirror")
        artifact = (tmp_path / "mirror" / "attribution.json").read_bytes()

        asked = []

        def counted_sort_quantile(self, q):
            asked.append(q)
            return sort_quantile(self, q)

        with monkeypatch.context() as patch:
            patch.setattr(Histogram, "quantile", counted_sort_quantile)
            oracle_snap = hook_fold(
                HookAttributor(slo_ms=100.0, burn_windows=(50, 500)),
                merged.tracer.table,
            ).to_json_dict()
            oracle_artifact = json.dumps(
                hook_fold(
                    HookAttributor(slo_ms=merged.slo_ms), merged.table
                ).to_json_dict(),
                sort_keys=True,
                default=json_default,
            ).encode()

        assert snap["totals"]["queries"] > 4096
        # The oracle asked the sort quantile once per completion past the
        # warm-up, so the patch is not vacuous.
        assert len(asked) == 2 * (snap["totals"]["queries"] - 200)
        chains = snap["exemplars"]["chains"]
        assert chains and all(c["threshold_ms"] is not None for c in chains)
        assert len({c["threshold_ms"] for c in chains}) > 1
        assert 0 < snap["totals"]["dropped"] < snap["totals"]["queries"]
        assert len(snap["burn"]["windows"]) == 2
        assert snap == oracle_snap
        assert artifact == oracle_artifact

    def test_parallel_sweep_folds_into_callers_attributor(self, tmp_path):
        """``run_sweep(jobs=2)`` folds the merged table into the caller's
        attributor — here one with a registry and an alert sink that a
        low burn threshold keeps busy — exactly as the hook oracle does."""
        from repro.experiments.runner import clear_caches
        from repro.obs.columns import EventTable
        from tests.oracles.attribution_fold import hook_fold
        from tests.test_attribution_fold import assert_same

        scale = ExperimentScale.smoke()
        task = image_task()
        cells = [
            SweepCell(
                method=method,
                task=task,
                slo_ms=task.slos_ms[0],
                num_workers=scale.constant_workers_image,
                trace=LoadTrace.constant(
                    load, scale.constant_duration_s * 1000.0, name=f"fold-{load:g}"
                ),
                seed=29,
                oracle_load=True,
            )
            for load in (20.0, 90.0)
            for method in ("JF", "Greedy")
        ]

        def attributor(cls=LatencyAttributor):
            alerts = []
            registry = MetricsRegistry()
            return (
                cls(
                    slo_ms=task.slos_ms[0],
                    registry=registry,
                    burn_windows=(20, 200),
                    burn_threshold=0.5,
                    violation_budget=0.02,
                    exemplar_warmup=20,
                    alert_sink=alerts.append,
                ),
                registry,
                alerts,
            )

        clear_caches()
        bulk = attributor()
        run_dir = tmp_path / "run"
        run_sweep(cells, scale, jobs=2, attributor=bulk[0], run_dir=run_dir)
        oracle = attributor(HookAttributor)
        hook_fold(oracle[0], EventTable.load(run_dir / "merged.cols")[0])
        assert oracle[2], "the low burn threshold should alert"
        assert_same(bulk, oracle)


class TestServedRunSlo:
    """The merged attribution of a served run dir carries the served SLO,
    recorded in every feed header; feeds that disagree fold without one."""

    def test_served_run_dir_attribution_has_slo(self, tmp_path):
        from repro.obs.aggregate import merge_run_dir, write_merged_artifacts
        from repro.runtime import ShardedController

        run_dir = tmp_path / "run"
        ShardedController(
            make_tiny_model_set(),
            slo_ms=100.0,
            num_shards=2,
            workers_per_shard=2,
            seed=7,
            paced=False,
            run_dir=str(run_dir),
        ).serve(
            lambda s: GreedyDeadlineSelector(),
            LoadTrace.constant(120.0, 5_000.0, name="slo"),
        )
        merged = merge_run_dir(run_dir)
        assert merged.slo_ms == 100.0
        write_merged_artifacts(merged, run_dir)
        snap = json.loads((run_dir / "attribution.json").read_text())
        assert snap["slo_ms"] == 100.0
        assert {row["slo"] for row in snap["rows"]} == {"100"}
        expected = attribution_from_tracer(merged.tracer, slo_ms=100.0)
        assert snap == json.loads(json.dumps(expected.to_json_dict()))

    def test_mixed_slo_feeds_fold_without_slo(self, tmp_path):
        from repro.obs.aggregate import ShardTracer, merge_run_dir

        for pid, slo in ((1, 100.0), (2, 150.0)):
            ShardTracer(tmp_path / f"shard-{pid}.cols", pid=pid, slo_ms=slo).close()
        assert merge_run_dir(tmp_path).slo_ms is None
        ShardTracer(tmp_path / "shard-2.cols", pid=2).close()
        assert merge_run_dir(tmp_path).slo_ms is None
