"""Unit tests for the live guarantee auditor (repro.obs.audit), fed
through its fold with columns built by hand."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.discretization import TimeGrid
from repro.core.guarantees import PolicyGuarantees, TotalVariation, total_variation
from repro.core.policy import Action, Policy, PolicyMetadata
from repro.obs.audit import (
    BREACH,
    OK,
    UNCHECKED,
    AuditBounds,
    AuditConfig,
    GuaranteeAuditor,
    PageHinkley,
    hoeffding_interval,
    wilson_interval,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from tests.oracles.audit_fold import hook_update, lifecycle
from tests.oracles.total_variation import total_variation as union_tv


def make_policy(load_qps: float = 20.0, accuracy=None, violation=None) -> Policy:
    grid = TimeGrid(values=(0.0, 50.0, 100.0), slo_ms=100.0)
    actions = {
        (n, j): Action(model="fast", batch_size=n)
        for n in (1, 2)
        for j in range(3)
    }
    meta = PolicyMetadata(
        task="tiny",
        slo_ms=100.0,
        load_qps=load_qps,
        num_workers=1,
        expected_accuracy=accuracy,
        expected_violation_rate=violation,
    )
    return Policy(grid=grid, max_queue=2, actions=actions, metadata=meta)


class TestIntervals:
    def test_wilson_empty_window_is_trivial(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_contains_point_estimate(self):
        low, high = wilson_interval(5, 100)
        assert low <= 0.05 <= high
        assert 0.0 <= low and high <= 1.0

    def test_wilson_shrinks_with_samples(self):
        w_small = wilson_interval(5, 50)
        w_large = wilson_interval(50, 500)
        assert (w_large[1] - w_large[0]) < (w_small[1] - w_small[0])

    def test_wilson_zero_successes_has_open_lower_bound(self):
        low, high = wilson_interval(0, 200)
        assert low == 0.0
        assert 0.0 < high < 0.05

    def test_wilson_confidence_widens(self):
        narrow = wilson_interval(10, 100, confidence=0.90)
        wide = wilson_interval(10, 100, confidence=0.99)
        assert wide[0] < narrow[0] and wide[1] > narrow[1]

    def test_wilson_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)

    def test_hoeffding_matches_formula(self):
        low, high = hoeffding_interval(0.5, 100, confidence=0.95)
        eps = math.sqrt(math.log(2.0 / 0.05) / 200.0)
        assert low == pytest.approx(0.5 - eps)
        assert high == pytest.approx(0.5 + eps)

    def test_hoeffding_clamps_to_unit_interval(self):
        assert hoeffding_interval(0.99, 10)[1] == 1.0
        assert hoeffding_interval(0.01, 10)[0] == 0.0

    def test_hoeffding_empty_is_trivial(self):
        assert hoeffding_interval(0.7, 0) == (0.0, 1.0)

    def test_hoeffding_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            hoeffding_interval(0.5, 10, confidence=0.0)


class TestPageHinkley:
    def test_no_alarm_at_reference(self):
        ph = PageHinkley(100.0, min_samples=5)
        assert all(ph.update(100.0) is None for _ in range(500))

    def test_tolerated_excursions_stay_silent(self):
        ph = PageHinkley(100.0, delta=0.15, min_samples=5)
        # +10% sits inside the 15% tolerance band.
        assert all(ph.update(110.0) is None for _ in range(500))

    def test_sustained_up_shift_alarms(self):
        ph = PageHinkley(100.0, delta=0.15, threshold=8.0, min_samples=30)
        outcomes = [ph.update(300.0) for _ in range(40)]
        assert "up" in outcomes
        assert outcomes[:29] == [None] * 29  # min_samples respected

    def test_sustained_down_shift_alarms(self):
        ph = PageHinkley(100.0, delta=0.15, threshold=8.0, min_samples=30)
        outcomes = [ph.update(10.0) for _ in range(40)]
        assert "down" in outcomes

    def test_reset_rearms_around_new_reference(self):
        ph = PageHinkley(100.0, min_samples=5)
        for _ in range(50):
            ph.update(300.0)
        ph.reset(300.0)
        assert ph.reference == 300.0
        assert all(ph.update(300.0) is None for _ in range(100))

    def test_update_many_is_one_update_per_value(self):
        """The bulk step folds to the first admitted alarm and leaves the
        detector bitwise where one ``+=`` per value leaves it."""
        values = np.random.default_rng(3).gamma(2.0, 70.0, 400)
        for up_ok in (None, values > 200.0):
            bulk, hook = PageHinkley(100.0, min_samples=5), PageHinkley(100.0, min_samples=5)
            i, direction = bulk.update_many(values, up_ok, values < 0.0)
            steps = [hook_update(hook, v) for v in values[: i + 1].tolist()]
            assert steps[-1] == direction == "up"
            assert vars(bulk) == vars(hook)

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            PageHinkley(0.0)
        with pytest.raises(ValueError):
            PageHinkley(10.0).reset(-1.0)


class TestAuditConfig:
    def test_defaults_are_valid(self):
        cfg = AuditConfig()
        assert cfg.window_queries == 200

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            AuditConfig(window_queries=0)

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            AuditConfig(confidence=1.5)


class TestAuditBounds:
    def test_from_guarantees_uses_headline_numbers(self):
        g = PolicyGuarantees(
            expected_accuracy=0.8,
            expected_violation_rate=0.02,
            per_epoch_accuracy=0.79,
            per_epoch_violation_rate=0.03,
            full_state_probability=0.0,
            idle_probability=0.5,
        )
        bounds = AuditBounds.from_guarantees(g)
        assert bounds.accuracy_floor == 0.8
        assert bounds.violation_ceiling == 0.02

    def test_auditor_accepts_guarantees_directly(self):
        g = PolicyGuarantees(0.8, 0.02, 0.79, 0.03, 0.0, 0.5)
        auditor = GuaranteeAuditor(g)
        assert auditor.bounds == AuditBounds(0.8, 0.02)

    def test_auditor_rejects_wrong_bounds_type(self):
        with pytest.raises(TypeError):
            GuaranteeAuditor("bounds")


NO_ARRIVALS = np.empty(0)


def feed_completions(auditor, n, violations=0, accuracy=0.9, start_ms=0.0):
    """Fold ``n`` completions 1 ms apart, the first ``violations``
    unsatisfied."""
    completions = [(start_ms + i, i >= violations, accuracy) for i in range(n)]
    auditor.fold(lifecycle(completions=completions), NO_ARRIVALS)


def feed_decisions(auditor, states):
    """Fold one decision per ``(queue_len, slack_ms)`` state."""
    auditor.fold(lifecycle(decisions=states), NO_ARRIVALS)


def feed_arrivals(auditor, times):
    """Fold arrivals at ``times`` (ms, non-decreasing)."""
    auditor.fold(lifecycle(), np.array(times, np.float64))


class TestWindowVerdicts:
    def test_clean_window_is_ok(self):
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.7, violation_ceiling=0.10),
            config=AuditConfig(window_queries=100),
        )
        feed_completions(auditor, 100, violations=2, accuracy=0.9)
        (window,) = auditor.windows
        assert window.violation_verdict == OK
        assert window.accuracy_verdict == OK
        assert window.ok
        assert window.queries == 100
        assert window.violation_rate == pytest.approx(0.02)

    def test_violation_breach_beyond_ci(self):
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.0, violation_ceiling=0.01),
            config=AuditConfig(window_queries=100),
        )
        feed_completions(auditor, 100, violations=30, accuracy=0.9)
        (window,) = auditor.windows
        assert window.violation_verdict == BREACH
        assert not window.ok
        assert window.violation_ci[0] > 0.01

    def test_accuracy_breach_beyond_ci(self):
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.95, violation_ceiling=1.0),
            config=AuditConfig(window_queries=200),
        )
        feed_completions(auditor, 200, violations=0, accuracy=0.6)
        (window,) = auditor.windows
        assert window.accuracy_verdict == BREACH
        assert window.accuracy_ci[1] < 0.95

    def test_sampling_noise_alone_never_breaches(self):
        # Observed rate slightly above the ceiling, but within the CI.
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.0, violation_ceiling=0.05),
            config=AuditConfig(window_queries=50),
        )
        feed_completions(auditor, 50, violations=4, accuracy=0.9)  # 8% > 5%
        (window,) = auditor.windows
        assert window.violation_rate > 0.05
        assert window.violation_verdict == OK

    def test_no_bounds_means_unchecked(self):
        auditor = GuaranteeAuditor(config=AuditConfig(window_queries=10))
        feed_completions(auditor, 10)
        (window,) = auditor.windows
        assert window.violation_verdict == UNCHECKED
        assert window.accuracy_verdict == UNCHECKED
        assert window.ok

    def test_all_violation_window_leaves_accuracy_unchecked(self):
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.9, violation_ceiling=0.01),
            config=AuditConfig(window_queries=20),
        )
        feed_completions(auditor, 20, violations=20)
        (window,) = auditor.windows
        assert window.accuracy_verdict == UNCHECKED
        assert window.violation_verdict == BREACH

    def test_windows_split_at_configured_size(self):
        auditor = GuaranteeAuditor(config=AuditConfig(window_queries=25))
        feed_completions(auditor, 60)
        assert len(auditor.windows) == 2
        report = auditor.finalize(now_ms=100.0)
        assert len(report.windows) == 3  # partial tail closed at finalize
        assert report.windows[2].queries == 10
        assert report.total_queries == 60


class TestOccupancy:
    def test_decision_states_are_quantized_onto_policy_grid(self):
        auditor = GuaranteeAuditor(policy=make_policy())
        feed_decisions(auditor, [(1, 80.0), (2, 10.0), (5, 0.0)])
        occ = auditor.empirical_occupancy()
        assert occ == {
            "1,1": pytest.approx(1 / 3),
            "2,0": pytest.approx(1 / 3),
            "full": pytest.approx(1 / 3),
        }

    def test_tv_zero_when_empirical_matches_prediction(self):
        expected = {"1,1": 0.5, "2,0": 0.5}
        auditor = GuaranteeAuditor(
            policy=make_policy(),
            expected_occupancy=expected,
            config=AuditConfig(window_queries=4, min_occupancy_epochs=1),
        )
        feed_decisions(auditor, [(1, 80.0), (2, 10.0)] * 5)
        report = auditor.finalize(now_ms=100.0)
        assert report.occupancy is not None
        assert report.occupancy.tv_distance == pytest.approx(0.0)
        assert not report.occupancy.diverged

    def test_divergence_flagged_above_threshold(self):
        auditor = GuaranteeAuditor(
            policy=make_policy(),
            expected_occupancy={"2,2": 1.0},
            config=AuditConfig(tv_threshold=0.3, min_occupancy_epochs=5),
        )
        feed_decisions(auditor, [(1, 80.0)] * 10)
        report = auditor.finalize(now_ms=100.0)
        assert report.occupancy.tv_distance == pytest.approx(1.0)
        assert report.occupancy.trusted
        assert report.occupancy.diverged
        assert not report.ok
        assert "occupancy-divergence" in report.verdict

    def test_insufficient_epochs_are_not_trusted(self):
        auditor = GuaranteeAuditor(
            policy=make_policy(),
            expected_occupancy={"2,2": 1.0},
            config=AuditConfig(min_occupancy_epochs=100),
        )
        feed_decisions(auditor, [(1, 80.0)])
        report = auditor.finalize(now_ms=10.0)
        assert not report.occupancy.trusted
        assert not report.occupancy.diverged
        assert report.ok

    def test_total_variation_independent_of_hash_seed(self):
        """String keys hash per process; the TV sum must not follow the
        resulting set order (float addition is not associative)."""
        code = (
            "import random\n"
            "from repro.core.guarantees import total_variation\n"
            "rng = random.Random(5)\n"
            "keys = [f'{n},{j}' for n in range(1, 9) for j in range(40)]\n"
            "def dist(ks):\n"
            "    w = [rng.random() for _ in ks]\n"
            "    return {k: x / sum(w) for k, x in zip(ks, w)}\n"
            "print(repr(total_variation(dist(keys), dist(keys[::2]))))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", code],
                    env=env,
                    capture_output=True,
                    text=True,
                    check=True,
                ).stdout
            )
        assert len(outputs) == 1, outputs

    def test_total_variation_helper(self):
        assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
        assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
        assert total_variation({"a": 0.6, "b": 0.4}, {"a": 0.4, "b": 0.6}) == (
            pytest.approx(0.2)
        )

    def test_indexed_total_variation_is_bitwise(self):
        """One index per expected distribution, fed dicts whose keys are
        missing on either side (and new to the index), equals the
        sorted-union oracle bit for bit, as weights and as counts."""
        rng = np.random.default_rng(11)
        keys = ["full"] + [f"{n},{j}" for n in range(1, 12) for j in range(30)]

        def dist(ks):
            w = rng.random(len(ks))
            return {k: float(x) for k, x in zip(ks, w / w.sum())}

        q = dist([k for k in keys if rng.random() < 0.6])
        tv = TotalVariation(q)
        for _ in range(40):
            p = dist([k for k in keys if rng.random() < 0.4])
            assert tv(p) == total_variation(p, q) == union_tv(p, q)
            counts = {k: int(c) for k, c in zip(p, rng.integers(1, 500, len(p)))}
            epochs = sum(counts.values())
            empirical = {k: c / epochs for k, c in counts.items()}
            assert tv(counts, epochs) == union_tv(empirical, q)
        assert TotalVariation({})({}) == union_tv({}, {}) == 0.0
        assert TotalVariation({})({"a": 1.0}) == union_tv({"a": 1.0}, {})


class TestDrift:
    def _arrive(self, auditor, rate_qps, count, start_ms=0.0):
        gap = 1000.0 / rate_qps
        feed_arrivals(auditor, [start_ms + i * gap for i in range(count)])
        return start_ms + count * gap

    def test_overload_raises_one_up_alarm(self):
        auditor = GuaranteeAuditor(policy=make_policy(load_qps=20.0))
        self._arrive(auditor, rate_qps=100.0, count=200)
        assert len(auditor.drift_events) == 1
        event = auditor.drift_events[0]
        assert event.direction == "up"
        assert event.reference_qps == 20.0
        assert event.realized_qps > 20.0 * 1.15

    def test_underload_raises_down_alarm(self):
        auditor = GuaranteeAuditor(
            policy=make_policy(load_qps=100.0), reference_load_qps=100.0
        )
        self._arrive(auditor, rate_qps=10.0, count=100)
        assert len(auditor.drift_events) == 1
        assert auditor.drift_events[0].direction == "down"

    def test_on_reference_load_stays_silent(self):
        auditor = GuaranteeAuditor(policy=make_policy(load_qps=100.0))
        self._arrive(auditor, rate_qps=100.0, count=2000)
        assert auditor.drift_events == ()

    def test_policy_switch_rearms_detector(self):
        auditor = GuaranteeAuditor(policy=make_policy(load_qps=20.0))
        end = self._arrive(auditor, rate_qps=100.0, count=200)
        assert len(auditor.drift_events) == 1
        # Selector reacts: switches to the 100 QPS policy.
        auditor.note_policy(make_policy(load_qps=100.0), end)
        self._arrive(auditor, rate_qps=100.0, count=500, start_ms=end)
        assert len(auditor.drift_events) == 1  # no further alarms
        report = auditor.finalize(now_ms=end + 5000.0)
        assert report.policy_switches == 1

    def test_no_reference_disables_drift(self):
        auditor = GuaranteeAuditor()
        self._arrive(auditor, rate_qps=500.0, count=500)
        assert auditor.drift_events == ()


class TestAlertsAndMetrics:
    def test_alert_callbacks_fire_for_each_kind(self):
        alerts = []
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.95, violation_ceiling=0.01),
            policy=make_policy(load_qps=10.0),
            expected_occupancy={"2,2": 1.0},
            config=AuditConfig(
                window_queries=100, tv_threshold=0.3, min_occupancy_epochs=1
            ),
        )
        auditor.add_alert_callback(alerts.append)
        feed_decisions(auditor, [(1, 80.0)] * 50)
        gap = 1000.0 / 200.0
        feed_arrivals(auditor, [i * gap for i in range(200)])
        feed_completions(auditor, 100, violations=40, accuracy=0.5)
        kinds = {a.kind for a in alerts}
        assert kinds == {
            "violation-bound-breach",
            "accuracy-bound-breach",
            "occupancy-divergence",
            "load-drift",
        }

    def test_registry_receives_audit_metrics(self):
        registry = MetricsRegistry()
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.0, violation_ceiling=0.01),
            config=AuditConfig(window_queries=50),
            registry=registry,
        )
        feed_completions(auditor, 100, violations=30)
        (windows,) = registry.collect("audit_windows_total")
        assert windows.value == 2.0
        breaches = {
            dict(m.labels)["bound"]: m.value
            for m in registry.collect("audit_breaches_total")
        }
        assert breaches["violation"] == 1.0  # only the first window breaches
        assert breaches["accuracy"] == 0.0
        (gauge,) = registry.collect("audit_window_violation_rate")
        assert len(gauge.series) == 2

    def test_audit_events_flow_to_inner_tracer(self):
        inner = RecordingTracer()
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.0, violation_ceiling=1.0),
            config=AuditConfig(window_queries=10),
            inner=inner,
        )
        feed_completions(auditor, 30)
        names = [e.name for e in inner.events if e.track == "audit"]
        assert names.count("audit_window") == 3
        window_event = next(
            e for e in inner.events if e.name == "audit_window"
        )
        assert window_event.category == "audit"
        assert window_event.args["violation_verdict"] == OK


class TestInner:
    def test_inner_receives_only_audit_records(self):
        """``inner`` gets the auditor's own records — windows, drift and
        policy switches, in the order they happen — and none of the
        lifecycle it folds."""
        inner = RecordingTracer()
        auditor = GuaranteeAuditor(
            policy=make_policy(load_qps=20.0),
            config=AuditConfig(window_queries=10),
            inner=inner,
        )
        feed_arrivals(auditor, [i * 10.0 for i in range(200)])
        feed_decisions(auditor, [(1, 80.0)] * 5)
        feed_completions(auditor, 10, start_ms=2000.0)
        auditor.note_policy(make_policy(load_qps=100.0), 2500.0)
        assert inner.spans == ()
        assert [(e.name, e.track, e.category) for e in inner.events] == [
            ("audit_drift", "audit", "audit"),
            ("audit_window", "audit", "audit"),
            ("audit_policy_switch", "audit", "audit"),
        ]
        assert inner.events[0].args == auditor.drift_events[0].to_json_dict()
        assert inner.events[1].args == auditor.windows[0].to_json_dict()
        assert inner.events[2].args == {"load_qps": 100.0}


    def test_renoting_the_audited_policy_records_no_switch(self):
        """Re-noting the audited policy (as ``RamsisSelector`` does up
        front) is no switch: no ``audit_policy_switch`` record."""
        inner = RecordingTracer()
        policy = make_policy(load_qps=20.0)
        auditor = GuaranteeAuditor(policy=policy, inner=inner)
        auditor.note_policy(policy, 0.0)
        assert list(inner.events) == []
        assert auditor.finalize(now_ms=1.0).policy_switches == 0


class TestReport:
    def test_finalize_is_idempotent(self):
        auditor = GuaranteeAuditor(config=AuditConfig(window_queries=10))
        feed_completions(auditor, 25)
        first = auditor.finalize(now_ms=100.0)
        second = auditor.finalize(now_ms=999.0)
        assert first is second
        assert len(first.windows) == 3

    def test_json_dict_is_serializable_and_complete(self):
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.7, violation_ceiling=0.1),
            policy=make_policy(),
            expected_occupancy={"1,1": 1.0},
            config=AuditConfig(window_queries=10, min_occupancy_epochs=1),
        )
        feed_decisions(auditor, [(1, 80.0)])
        feed_completions(auditor, 10, violations=1, accuracy=0.9)
        report = auditor.finalize(now_ms=50.0)
        payload = json.loads(json.dumps(report.to_json_dict()))
        for key in (
            "verdict",
            "ok",
            "bounds",
            "windows",
            "violation_breaches",
            "accuracy_breaches",
            "occupancy",
            "drift_events",
            "policy_switches",
            "total_queries",
            "satisfied_queries",
            "observed_violation_rate",
            "observed_accuracy",
        ):
            assert key in payload
        assert payload["bounds"]["accuracy_floor"] == 0.7
        assert payload["windows"][0]["queries"] == 10

    def test_render_text_mentions_verdict_and_windows(self):
        auditor = GuaranteeAuditor(
            AuditBounds(accuracy_floor=0.7, violation_ceiling=0.1),
            config=AuditConfig(window_queries=10),
        )
        feed_completions(auditor, 10, accuracy=0.9)
        text = auditor.finalize(now_ms=50.0).render_text()
        assert "Audit verdict: ok" in text
        assert "Per-window bound audit" in text
        assert "load drift: none" in text

    def test_observed_aggregates(self):
        auditor = GuaranteeAuditor(config=AuditConfig(window_queries=100))
        feed_completions(auditor, 100, violations=10, accuracy=0.8)
        report = auditor.finalize(now_ms=200.0)
        assert report.total_queries == 100
        assert report.satisfied_queries == 90
        assert report.observed_violation_rate == pytest.approx(0.1)
        assert report.observed_accuracy == pytest.approx(0.8)
