"""Tests for the sharded serving tier.

The tier's headline property is layout-independence: because query ``i``
goes to global worker ``i mod G`` and every worker replays a deterministic
virtual timeline, an ``S x W`` run must produce *float-exactly* the same
metrics and per-worker event feeds as a ``1 x S*W`` run on the same trace
— paced or not.  Audit verdicts are per shard (each auditor sees only its
own shard's workers), so they are pinned across pacing modes, not across
layouts.  These tests pin that, plus the overload accounting identities,
attribution exactness, hot-swap atomicity, the merged-feed reconstruction
path that ``ramsis report`` / ``ramsis explain`` consume, and the
dispatch kernel's equivalence with the fast simulator.
"""

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.aggregate import merge_run_dir, write_merged_artifacts
from repro.obs.attribution import LatencyAttributor
from repro.obs.audit import GuaranteeAuditor
from repro.obs.reconstruct import reconstruct_metrics
from repro.runtime import AdmissionControl, ShardedController, WorkloadGenerator
from repro.runtime.shard import DROPPED_MODEL, REJECTED_MODEL
from repro.selectors import GreedyDeadlineSelector, RamsisSelector
from repro.sim.kernel import LifecycleObserver
from repro.sim.latency_model import DeterministicLatency
from repro.sim.metrics import MetricsCollector
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig
from tests.conftest import make_tiny_model_set
from tests.oracles.attribution_fold import HookAttributor

#: Aggressive compression keeps paced runs fast (100x real time).
FAST = 0.01

TRACE = LoadTrace.constant(150.0, 2_000.0)
#: Far beyond what four workers can drain: forces admission/drop paths.
OVERLOAD = LoadTrace.constant(4_000.0, 1_000.0)


def run_sharded(models, shards, wps, *, paced=False, seed=1, trace=TRACE,
                attributors=None, **kwargs):
    controller = ShardedController(
        models,
        slo_ms=100.0,
        num_shards=shards,
        workers_per_shard=wps,
        latency_model=DeterministicLatency(),
        time_scale=FAST,
        seed=seed,
        paced=paced,
        **kwargs,
    )
    return controller.serve(
        lambda s: GreedyDeadlineSelector(), trace, attributors=attributors
    )


class TestConstruction:
    def test_rejects_zero_shards(self, tiny_models):
        with pytest.raises(SimulationError):
            ShardedController(tiny_models, 100.0, num_shards=0, workers_per_shard=1)

    def test_rejects_zero_workers(self, tiny_models):
        with pytest.raises(SimulationError):
            ShardedController(tiny_models, 100.0, num_shards=1, workers_per_shard=0)

    def test_rejects_bad_admission(self):
        with pytest.raises(SimulationError):
            AdmissionControl(max_queue_depth=0)

    def test_auditor_count_validated(self, tiny_models):
        controller = ShardedController(
            tiny_models, 100.0, num_shards=2, workers_per_shard=1,
            latency_model=DeterministicLatency(), time_scale=FAST,
        )
        with pytest.raises(SimulationError):
            controller.serve(lambda s: GreedyDeadlineSelector(), TRACE,
                             auditors=[None])


class TestDeterminism:
    """§4.4/§5.1 preservation: results are a function of the trace alone."""

    def test_layouts_float_exact(self, tiny_models):
        r22 = run_sharded(tiny_models, 2, 2, paced=True)
        r14 = run_sharded(tiny_models, 1, 4, paced=True)
        r41 = run_sharded(tiny_models, 4, 1, paced=False)
        assert r22.submitted == r14.submitted == r41.submitted > 0
        # Dataclass equality: every aggregate (violation rate, accuracy,
        # percentiles, per-model counts) must match bit for bit.
        assert r22.metrics == r14.metrics
        assert r22.metrics == r41.metrics

    def test_repeat_runs_identical(self, tiny_models):
        a = run_sharded(tiny_models, 2, 2, paced=False)
        b = run_sharded(tiny_models, 2, 2, paced=False)
        assert a.metrics == b.metrics

    def test_report_accounting(self, tiny_models):
        r = run_sharded(tiny_models, 2, 2, paced=False)
        assert r.rejected == r.dropped == 0
        assert r.served == r.submitted == r.metrics.total_queries
        assert r.admitted == r.submitted
        assert r.qps > 0
        assert r.num_shards == 2 and r.workers_per_shard == 2

    def test_paced_reports_added_latency(self, tiny_models):
        r = run_sharded(tiny_models, 1, 2, paced=True)
        # Wall-clock lag behind the virtual timeline exists but is small
        # (scheduling jitter, not seconds of drift).
        assert 0.0 <= r.p99_added_latency_ms < 1_000.0

    def test_unpaced_has_no_added_latency_samples(self, tiny_models):
        r = run_sharded(tiny_models, 2, 1, paced=False)
        assert r.p99_added_latency_ms == 0.0


class TestReconstruction:
    """run_dir feeds merge back into the exact same aggregates."""

    def test_merged_feed_reconstructs_exactly(self, tiny_models, tmp_path):
        r = run_sharded(tiny_models, 2, 2, run_dir=str(tmp_path))
        merged = merge_run_dir(tmp_path)
        summary = reconstruct_metrics(merged.tracer)
        assert summary.total_queries == r.metrics.total_queries
        assert summary.satisfied_queries == r.metrics.satisfied_queries
        assert summary.decisions == r.metrics.decisions
        # Float-exact, not approx: the fold order is pinned.
        assert summary.violation_rate == r.metrics.violation_rate
        assert (summary.accuracy_per_satisfied_query
                == r.metrics.accuracy_per_satisfied_query)
        assert summary.mean_batch_size == r.metrics.mean_batch_size
        assert summary.arrivals == r.submitted

    def test_merged_feed_layout_independent(self, tiny_models, tmp_path):
        d22, d14 = tmp_path / "s22", tmp_path / "s14"
        run_sharded(tiny_models, 2, 2, run_dir=str(d22))
        run_sharded(tiny_models, 1, 4, run_dir=str(d14))
        a = reconstruct_metrics(merge_run_dir(d22).tracer)
        b = reconstruct_metrics(merge_run_dir(d14).tracer)
        assert a == b

    def test_artifacts_present(self, tiny_models, tmp_path):
        report = run_sharded(tiny_models, 2, 2, run_dir=str(tmp_path),
                             snapshot_interval_s=0.05)
        names = {p.name for p in tmp_path.iterdir()}
        for gid in range(4):
            assert f"shard-{gid}.cols" in names
        # Final metrics snapshots: one per shard, pids offset past worker gids.
        assert "metrics-4.json" in names and "metrics-5.json" in names
        # Without ``attributors=``, attribution-<pid>.json comes from
        # snapshot ticks only (this unpaced serve may end before the
        # first), each a view of part of its own shard's queries; the
        # run's attribution is the merged attribution.json.
        for pid in (4, 5):
            path = tmp_path / f"attribution-{pid}.json"
            if path.exists():
                queries = json.loads(path.read_text())["totals"]["queries"]
                assert queries <= report.submitted
        write_merged_artifacts(merge_run_dir(tmp_path), tmp_path)
        merged = json.loads((tmp_path / "attribution.json").read_text())
        assert merged["totals"]["queries"] == report.submitted


class TickLog:
    """Every capture fold and live snapshot of the serves in one test,
    each marked ``ticked`` when a snapshot tick of the serve loop made it
    (inside ``ShardedController._run``) rather than the end of the serve.

    ``folds`` holds ``(ticked, entries folded)``; ``published`` holds
    ``(pid, ticked, attribution text or None)``.
    """

    def __init__(self, monkeypatch):
        import repro.obs.aggregate as aggregate

        self.serving = False
        self.folds = []
        self.published = []
        run = ShardedController._run
        fold = LifecycleObserver.fold
        write = aggregate.write_live_snapshot

        def flagged_run(controller, *args):
            self.serving = True
            try:
                return run(controller, *args)
            finally:
                self.serving = False

        def logged_fold(observer, entries, auditor=None):
            self.folds.append((self.serving, len(entries)))
            return fold(observer, entries, auditor)

        def logged_write(run_dir, registry=None, attributor=None, pid=None):
            paths = write(run_dir, registry=registry, attributor=attributor,
                          pid=pid)
            text = None
            if attributor is not None:
                text = (run_dir / f"attribution-{pid}.json").read_text()
            self.published.append((pid, self.serving, text))
            return paths

        monkeypatch.setattr(ShardedController, "_run", flagged_run)
        monkeypatch.setattr(LifecycleObserver, "fold", logged_fold)
        monkeypatch.setattr(aggregate, "write_live_snapshot", logged_write)

    def ticks(self, pid):
        """Snapshots a tick published for shard ``pid``."""
        return sum(1 for p, ticked, _ in self.published if p == pid and ticked)

    def ticked_entries(self):
        """Capture entries the ticks folded."""
        return sum(n for ticked, n in self.folds if ticked)


#: Long enough for three unpaced slices of 4096 arrivals on a 2 x 2 serve.
SLICED = LoadTrace.constant(150.0, 60_000.0)


class TestSnapshots:
    """A run-dir serve without ``attributors=`` keeps attribution off the
    dispatch path: the serve loop folds each shard's lifecycle capture on
    every tick and, between ticks, once it holds ``_FOLD`` entries (an
    unpaced serve not before its first tick), and publishes on its ticks,
    so ``attribution-<pid>.json`` lags by at most one interval and is not
    rewritten when the serve ends."""

    def test_no_tick_publishes_metrics_only(self, tiny_models, tmp_path):
        run_sharded(tiny_models, 2, 2, run_dir=str(tmp_path),
                    snapshot_interval_s=3600.0)
        names = {p.name for p in tmp_path.iterdir()}
        assert "metrics-4.json" in names and "metrics-5.json" in names
        assert not any(name.startswith("attribution") for name in names)

    def test_concurrent_ticks_lose_no_capture_entry(
        self, tiny_models, tmp_path, monkeypatch
    ):
        """Ticks drain the capture between the kernels' appends: with a
        tick due every 0.1 ms, unpaced (one per slice) and paced (one per
        wake-up), the final registries must equal those of a serve with
        no tick at all."""
        quiet = tmp_path / "quiet"
        run_sharded(tiny_models, 2, 2, trace=SLICED, run_dir=str(quiet),
                    snapshot_interval_s=3600.0)
        log = TickLog(monkeypatch)
        for paced in (False, True):
            busy = tmp_path / f"busy-{paced}"
            log.published.clear()
            run_sharded(tiny_models, 2, 2, trace=SLICED, paced=paced,
                        run_dir=str(busy), snapshot_interval_s=1e-4)
            assert log.ticks(4) >= 2 and log.ticks(5) >= 2
            assert list(busy.glob("attribution-*.json"))
            for pid in (4, 5):
                name = f"metrics-{pid}.json"
                assert (busy / name).read_bytes() == (quiet / name).read_bytes()

    def test_concurrent_ticks_lose_no_attributor_entry(
        self, tiny_models, tmp_path, monkeypatch
    ):
        """A caller's attributors fold on every tick too: with a tick due
        every 0.1 ms, unpaced and paced, they must end the serve
        byte-equal to a no-tick serve's."""
        from repro.obs.columns import json_default

        def folds(run_dir, interval, paced=False):
            attributors = [LatencyAttributor(slo_ms=100.0) for _ in range(2)]
            run_sharded(tiny_models, 2, 2, trace=SLICED, paced=paced,
                        run_dir=str(run_dir), snapshot_interval_s=interval,
                        attributors=attributors)
            return [json.dumps(a.to_json_dict(), sort_keys=True,
                               default=json_default) for a in attributors]

        quiet = folds(tmp_path / "quiet", 3600.0)
        assert json.loads(quiet[0])["totals"]["queries"] > 0
        log = TickLog(monkeypatch)
        for paced in (False, True):
            log.folds.clear()
            assert folds(tmp_path / f"busy-{paced}", 1e-4, paced) == quiet
            assert log.ticked_entries() > 0

    @pytest.mark.parametrize("paced", [False, True], ids=["unpaced", "paced"])
    def test_captures_fold_by_size_without_run_dir(
        self, tiny_models, monkeypatch, paced
    ):
        """Without a run dir (so without ticks) the serve loop folds a
        caller's attributors only once a shard's capture holds ``_FOLD``
        entries: no fold holds the whole serve, none pays a columnar
        fold's fixed cost for a handful of entries, nothing is published,
        and the attributors end byte-equal to a serve folded once at its
        end."""
        from repro.obs.columns import json_default
        from repro.runtime import shard

        def folds():
            attributors = [LatencyAttributor(slo_ms=100.0) for _ in range(2)]
            run_sharded(tiny_models, 2, 2, trace=SLICED, paced=paced,
                        attributors=attributors, snapshot_interval_s=1e-4)
            return [json.dumps(a.to_json_dict(), sort_keys=True,
                               default=json_default) for a in attributors]

        log = TickLog(monkeypatch)
        monkeypatch.setattr(shard, "_FOLD", 10**9)
        once = folds()
        assert log.ticked_entries() == 0
        total = sum(n for _, n in log.folds)
        monkeypatch.undo()
        log = TickLog(monkeypatch)
        assert folds() == once
        assert log.published == []
        ticked = [n for ticked, n in log.folds if ticked]
        assert sum(n for _, n in log.folds) == total
        assert len(ticked) >= 2
        assert min(ticked) >= shard._FOLD and max(ticked) < total / 2

    def test_paced_snapshots_fold_stream_prefixes(
        self, tiny_models, tmp_path, monkeypatch
    ):
        from repro.obs.columns import json_default
        from repro.obs.report import render_top_frame

        log = TickLog(monkeypatch)
        monkeypatch.setattr("repro.runtime.shard.LifecycleObserver", HookLog)
        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=0.1, seed=1,
            paced=True, run_dir=str(tmp_path), snapshot_interval_s=0.05,
        )
        # ~0.4 s of wall: several snapshot intervals.
        report = controller.serve(
            lambda s: GreedyDeadlineSelector(), LoadTrace.constant(150.0, 4_000.0)
        )
        for s, pid in enumerate((4, 5)):
            published = [text for p, ticked, text in log.published
                         if p == pid and text is not None]
            # Only ticks publish a view, several over the serve.
            assert len(published) == log.ticks(pid) >= 2
            # Every prefix of the shard's live hook stream, folded into a
            # fresh hook oracle, as published text.
            view = HookAttributor(slo_ms=100.0)
            prefixes = {json.dumps(view.to_json_dict(), sort_keys=True,
                                   default=json_default)}
            for name, args, kwargs in controller._observers[s].calls:
                getattr(view, name)(*args, **kwargs)
                prefixes.add(json.dumps(view.to_json_dict(), sort_keys=True,
                                        default=json_default))
            assert all(text in prefixes for text in published)
            assert json.loads(published[-1])["totals"]["queries"] > 0
            # Not rewritten at the end: the file is the last tick's fold.
            final = (tmp_path / f"attribution-{pid}.json").read_text()
            assert final == published[-1]
        write_merged_artifacts(merge_run_dir(tmp_path), tmp_path)
        merged = json.loads((tmp_path / "attribution.json").read_text())
        assert merged["totals"]["queries"] == report.submitted
        frame = render_top_frame(tmp_path)
        assert "latency attribution [attribution.json]" in frame


class TestOneThread:
    @pytest.mark.parametrize("paced", [True, False], ids=["paced", "unpaced"])
    def test_serve_starts_no_thread(self, tiny_models, tmp_path, paced):
        """The serve loop folds and publishes its own ticks: a selector
        deciding mid-serve sees only the threads that were running
        before the serve, and decides on the serving thread."""
        before = set(threading.enumerate())
        seen = []

        class Watching(GreedyDeadlineSelector):
            def select(self, **kwargs):
                seen.append((threading.current_thread(),
                             set(threading.enumerate())))
                return super().select(**kwargs)

        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=1,
            paced=paced, run_dir=str(tmp_path), snapshot_interval_s=1e-4,
        )
        controller.serve(lambda s: Watching(), SLICED)
        assert list(tmp_path.glob("attribution-*.json"))  # ticks happened
        assert seen
        assert all(current is threading.current_thread() and threads == before
                   for current, threads in seen)


class HookLog(LifecycleObserver):
    """The production observer, also logging the attributor hook calls an
    observer calling them live would make, in order — the record stream
    every attributor is folded from (a snapshot view folds a prefix of
    it)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def _ids(self, w, j):
        return self.base + j * self.stride, self.base + w * self.stride

    def dispatch(self, w, t, model, batch, queue_len, slack_ms, anticipated,
                 exec_ms, served, depth):
        super().dispatch(w, t, model, batch, queue_len, slack_ms, anticipated,
                         exec_ms, served, depth)
        gid = self.base + w * self.stride
        self.calls.append(("observe_decision", (gid, model, batch, exec_ms), {}))
        for j in served:
            query, _ = self._ids(w, j)
            wait = t - self.arrivals[j]
            self.calls.append(
                ("observe_service_start", (query, gid, model, batch, wait), {})
            )

    def completion(self, w, t, model, accuracy, served):
        super().completion(w, t, model, accuracy, served)
        for j in served:
            query, gid = self._ids(w, j)
            args = (query, gid, model, t - self.arrivals[j], t <= self.deadlines[j])
            self.calls.append(("observe_completion", args, {"t_ms": t}))

    def terminal(self, w, queries, t, model, rejected=False):
        super().terminal(w, queries, t, model, rejected)
        for j in queries:
            query, gid = self._ids(w, j)
            response = 0.0 if rejected else t - self.arrivals[j]
            self.calls.append(("observe_completion", (query, gid, model, response, False),
                               {"t_ms": t, "dropped": True}))


class TestOverload:
    def test_admission_reject_accounting(self, tiny_models):
        r = run_sharded(
            tiny_models, 2, 2, trace=OVERLOAD, seed=3,
            admission=AdmissionControl(max_queue_depth=2, min_slack_ms=5.0),
        )
        assert r.rejected > 0
        # Closed accounting: every query is exactly one of the three.
        assert r.submitted == r.rejected + r.dropped + r.served
        assert r.metrics.total_queries == r.submitted
        assert r.metrics.model_query_counts[REJECTED_MODEL] == r.rejected
        assert r.admitted == r.submitted - r.rejected

    def test_drop_late_accounting(self, tiny_models):
        r = run_sharded(tiny_models, 2, 2, trace=OVERLOAD, seed=3,
                        drop_late=True)
        assert r.dropped > 0
        assert r.submitted == r.rejected + r.dropped + r.served
        assert r.metrics.model_query_counts[DROPPED_MODEL] == r.dropped

    def test_min_slack_rejects_hopeless(self, tiny_models):
        # A slack floor above the SLO rejects every query at arrival.
        r = run_sharded(
            tiny_models, 1, 2, seed=5,
            admission=AdmissionControl(min_slack_ms=1_000.0),
        )
        assert r.rejected == r.submitted > 0
        assert r.served == 0

    def test_overload_determinism(self, tiny_models):
        kwargs = dict(
            trace=OVERLOAD, seed=3, drop_late=True,
            admission=AdmissionControl(max_queue_depth=4),
        )
        a = run_sharded(tiny_models, 2, 2, **kwargs)
        b = run_sharded(tiny_models, 4, 1, **kwargs)
        assert a.metrics == b.metrics
        assert (a.rejected, a.dropped) == (b.rejected, b.dropped)

    def test_attribution_phase_split_exact(self, tiny_models):
        attributors = [
            LatencyAttributor(slo_ms=100.0, record_queries=True)
            for _ in range(2)
        ]
        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=3,
            paced=False, drop_late=True,
            admission=AdmissionControl(max_queue_depth=4),
        )
        r = controller.serve(lambda s: GreedyDeadlineSelector(), OVERLOAD,
                             attributors=attributors)
        breakdowns = [b for a in attributors for b in a.breakdowns]
        assert len(breakdowns) == r.submitted
        # The split is exact by construction: components sum float-== to
        # the end-to-end latency for every query, drops included.
        for b in breakdowns:
            assert (b.queue_wait_ms + b.batch_wait_ms + b.service_ms
                    + b.drop_ms) == b.response_ms
        dropped = [b for b in breakdowns if b.dropped]
        assert len(dropped) == r.dropped + r.rejected
        assert all(b.service_ms == 0.0 for b in dropped)


class TestHotSwap:
    def test_requires_active_run(self, tiny_models):
        controller = ShardedController(
            tiny_models, 100.0, num_shards=1, workers_per_shard=1,
            latency_model=DeterministicLatency(), time_scale=FAST,
        )
        with pytest.raises(SimulationError):
            controller.hot_swap(lambda s: GreedyDeadlineSelector())

    def test_mid_run_swap_no_disruption(self, tiny_models):
        """Swapping in an equivalent selector mid-run changes nothing.

        The swap is triggered from inside a dispatch decision (so it is
        guaranteed to land mid-run), installing fresh selectors of the
        same kind — results must match a swap-free run float-exactly,
        which is precisely the "no dispatch stall, no half-applied
        policy" property.
        """
        baseline = run_sharded(tiny_models, 2, 2, paced=False)

        controller = ShardedController(
            tiny_models, slo_ms=100.0, num_shards=2, workers_per_shard=2,
            latency_model=DeterministicLatency(), time_scale=FAST, seed=1,
            paced=False,
        )
        swapped = threading.Event()

        class SwapOnce(GreedyDeadlineSelector):
            def select(self, **kwargs):
                action = super().select(**kwargs)
                if not swapped.is_set():
                    swapped.set()
                    controller.hot_swap(lambda s: GreedyDeadlineSelector())
                return action

        report = controller.serve(lambda s: SwapOnce(), TRACE)
        assert swapped.is_set()
        assert report.policy_swaps == 1
        assert report.metrics == baseline.metrics


class TestAudit:
    def test_per_shard_auditors_zero_breaches(self, tiny_config):
        from repro.core.generator import generate_policy
        from repro.core.guarantees import stationary_occupancy
        from repro.core.mdp import build_worker_mdp

        generated = generate_policy(tiny_config)
        policy = generated.policy
        mdp = build_worker_mdp(tiny_config)
        occupancy = stationary_occupancy(mdp, policy).decision_conditional()
        auditors = [
            GuaranteeAuditor(
                generated.guarantees, policy=policy,
                expected_occupancy=occupancy,
            )
            for _ in range(2)
        ]
        controller = ShardedController(
            tiny_config.model_set, slo_ms=tiny_config.slo_ms, num_shards=2,
            workers_per_shard=2, latency_model=DeterministicLatency(),
            time_scale=FAST, seed=2, paced=False,
        )
        trace = LoadTrace.constant(25.0, 2_000.0)
        report = controller.serve(
            lambda s: RamsisSelector(policy), trace, auditors=auditors
        )
        assert report.submitted > 0
        for auditor in auditors:
            audit = auditor.finalize()
            assert audit.violation_breaches == 0
            assert audit.accuracy_breaches == 0


class TestAuditOrder:
    def test_auditors_see_virtual_time_order(self, tiny_config):
        """Shard auditors fold their shard's events in virtual time.

        The auditor's drift detector estimates the arrival rate from a
        trailing window over the shard's sorted arrival array, folded
        drain by drain with the shard's capture; whether the serve is
        paced or not, and so however the capture is drained, each
        auditor must fold the identical event sequence, so the finalized
        audits agree exactly.
        """
        from repro.core.generator import generate_policy
        from repro.core.guarantees import stationary_occupancy
        from repro.core.mdp import build_worker_mdp

        generated = generate_policy(tiny_config)
        policy = generated.policy
        occupancy = stationary_occupancy(
            build_worker_mdp(tiny_config), policy
        ).decision_conditional()
        trace = LoadTrace.constant(160.0, 60_000.0)

        def audited(paced):
            auditors = [
                GuaranteeAuditor(
                    generated.guarantees, policy=policy,
                    expected_occupancy=occupancy,
                )
                for _ in range(2)
            ]
            controller = ShardedController(
                tiny_config.model_set, slo_ms=tiny_config.slo_ms,
                num_shards=2, workers_per_shard=2,
                latency_model=DeterministicLatency(), time_scale=0.002,
                seed=2, paced=paced,
            )
            controller.serve(
                lambda s: RamsisSelector(policy), trace, auditors=auditors
            )
            return [auditor.finalize().to_json_dict() for auditor in auditors]

        unpaced = audited(paced=False)
        for audit in unpaced:
            # Two workers per shard, each well past a few thousand events.
            assert audit["total_queries"] > 4_000
        assert unpaced == audited(paced=True)


class TestAuditAttachments:
    @pytest.mark.parametrize("load_qps", [30.0, 60.0])
    def test_simulation_and_shard_audit_alike(self, load_qps):
        """One auditor protocol: a simulation's ``auditor`` slot and a
        single shard's ``auditors=`` entry report the same audit on the
        same arrivals.  The policy is profiled for 40 q/s, so the load
        drift alarm fires on both sides."""
        from repro.experiments.runner import build_audit_references
        from repro.experiments.scale import ExperimentScale
        from repro.experiments.tasks import text_task

        task = text_task()
        slo_ms = task.slos_ms[0]
        scale = ExperimentScale.smoke()
        policy, guarantees, occupancy = build_audit_references(
            task.model_set, slo_ms, 40.0, 2, scale
        )
        trace = LoadTrace.constant(load_qps, 10_000.0)
        arrivals = WorkloadGenerator(trace, slo_ms, seed=11).sample()

        def audited_selector():
            auditor = GuaranteeAuditor(
                guarantees, policy=policy, expected_occupancy=occupancy
            )
            selector = RamsisSelector(policy, on_policy_change=auditor.note_policy)
            return auditor, selector

        simulated, selector = audited_selector()
        Simulation(
            SimulationConfig(
                model_set=task.model_set, slo_ms=slo_ms, num_workers=2,
                max_batch_size=scale.max_batch_size,
                monitor=OracleLoadMonitor(trace), auditor=simulated,
            )
        ).run(selector, trace, arrival_times=arrivals)
        served, selector = audited_selector()
        ShardedController(
            task.model_set, slo_ms=slo_ms, num_shards=1, workers_per_shard=2,
            max_batch_size=scale.max_batch_size,
            latency_model=DeterministicLatency(), paced=False,
        ).serve(lambda s: selector, trace, arrivals=arrivals, auditors=[served])
        report = simulated.finalize()
        assert report.drift_events
        assert report.total_queries == len(arrivals)
        assert report.to_json_dict() == served.finalize().to_json_dict()


class TestArrivalInput:
    """``serve(arrivals=...)`` normalizes its input like ``Simulation.run``."""

    def _serve(self, models, arrivals):
        controller = ShardedController(
            models, slo_ms=100.0, num_shards=1, workers_per_shard=2,
            latency_model=DeterministicLatency(), seed=3, paced=False,
        )
        trace = LoadTrace.constant(120.0, 4_000.0)
        return controller.serve(
            lambda s: GreedyDeadlineSelector(), trace, arrivals=arrivals
        )

    def test_shuffled_arrivals_serve_like_sorted(self, tiny_models):
        trace = LoadTrace.constant(120.0, 4_000.0)
        arrivals = WorkloadGenerator(trace, 100.0, seed=3).sample()[:400]
        shuffled = np.random.default_rng(0).permutation(arrivals)
        assert np.any(np.diff(shuffled) < 0)
        served = self._serve(tiny_models, arrivals)
        assert self._serve(tiny_models, shuffled).metrics == served.metrics
        assert served.metrics.total_queries == 400

    def test_two_dimensional_arrivals_rejected(self, tiny_models):
        with pytest.raises(SimulationError):
            self._serve(tiny_models, np.zeros((200, 2)))


class TestReportWall:
    def test_wall_covers_the_metrics_fold(self, tiny_models, monkeypatch):
        finalize = MetricsCollector.finalize

        def slow_finalize(self):
            time.sleep(0.05)
            return finalize(self)

        monkeypatch.setattr(MetricsCollector, "finalize", slow_finalize)
        r = run_sharded(tiny_models, 2, 2)
        assert r.wall_seconds >= 0.05
        assert r.qps == r.metrics.total_queries / r.wall_seconds


class _TerminalTap:
    """Attributor-shaped tap collecting the id of every terminal record."""

    def __init__(self):
        self.query_ids = []

    def observe_decision(self, worker, model, batch, exec_ms):
        pass

    def observe_service_start(self, query_id, worker, model, batch, wait_ms):
        pass

    def observe_completion(self, query_id, *args, **kwargs):
        self.query_ids.append(query_id)


_ADMISSIONS = (
    None,
    AdmissionControl(max_queue_depth=3),
    AdmissionControl(min_slack_ms=20.0),
)


class TestKernelProperties:
    """The dispatch kernel against layouts, pacing and the fast simulator."""

    @settings(max_examples=30, deadline=None)
    @given(
        shards=st.sampled_from([1, 2, 3]),
        wps=st.integers(1, 3),
        drop_late=st.booleans(),
        admission=st.sampled_from(_ADMISSIONS),
        # From light load to far beyond what nine workers drain.
        load_qps=st.sampled_from([40.0, 400.0, 3_000.0]),
        seed=st.integers(0, 10_000),
    )
    def test_kernel_properties(
        self, shards, wps, drop_late, admission, load_qps, seed
    ):
        models = make_tiny_model_set()
        trace = LoadTrace.constant(load_qps, 500.0)
        arrivals = WorkloadGenerator(trace, 100.0, seed=seed).sample()
        total = shards * wps

        def serve(num_shards, workers_per_shard, paced, **kwargs):
            controller = ShardedController(
                models, slo_ms=100.0, num_shards=num_shards,
                workers_per_shard=workers_per_shard, max_batch_size=8,
                latency_model=DeterministicLatency(), time_scale=FAST,
                seed=seed, admission=admission, drop_late=drop_late,
                paced=paced,
            )
            return controller.serve(
                lambda s: GreedyDeadlineSelector(), trace, arrivals=arrivals,
                **kwargs,
            )

        report = serve(shards, wps, paced=False)
        assert serve(1, total, paced=False).metrics == report.metrics
        taps = [_TerminalTap() for _ in range(shards)]
        paced = serve(shards, wps, paced=True, attributors=taps)
        assert paced.metrics == report.metrics
        assert (paced.rejected, paced.dropped) == (report.rejected, report.dropped)

        # Closed accounting: one terminal record per submitted query.
        assert report.submitted == len(arrivals)
        assert report.submitted == report.rejected + report.dropped + report.served
        assert report.metrics.total_queries == report.submitted
        counts = report.metrics.model_query_counts
        assert counts.get(REJECTED_MODEL, 0) == report.rejected
        assert counts.get(DROPPED_MODEL, 0) == report.dropped
        query_ids = sorted(q for tap in taps for q in tap.query_ids)
        assert query_ids == list(range(report.submitted))

        if admission is None:
            simulated = Simulation(
                SimulationConfig(
                    model_set=models, slo_ms=100.0, num_workers=total,
                    max_batch_size=8, monitor=OracleLoadMonitor(trace),
                    drop_late=drop_late,
                )
            ).run(
                GreedyDeadlineSelector(), trace, arrival_times=arrivals,
                engine="fast",
            )
            # One kernel, one fold: float-equal, not merely close.
            assert report.metrics == simulated
