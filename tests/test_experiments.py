"""Tests for the experiment harness (scale presets, runner, figures)."""

import pytest

from repro.arrivals.traces import LoadTrace
from repro.experiments import (
    ExperimentScale,
    accuracy_increase_summary,
    build_policy_set,
    build_ramsis_policy,
    format_table,
    image_task,
    modelswitching_table,
    resource_savings_summary,
    run_method,
    text_task,
)
from repro.experiments.runner import MethodPoint, clear_caches, shared_arrivals
from repro.experiments.tasks import slo_grid_for


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


SMOKE = ExperimentScale.smoke()


class TestScalePresets:
    def test_presets_exist(self):
        for preset in (
            ExperimentScale.smoke(),
            ExperimentScale.default(),
            ExperimentScale.paper(),
        ):
            assert preset.worker_counts
            assert preset.constant_loads_qps

    def test_paper_matches_published_parameters(self):
        paper = ExperimentScale.paper()
        assert paper.worker_counts == tuple(range(20, 101, 10))
        assert paper.constant_loads_qps[0] == 400.0
        assert paper.constant_loads_qps[-1] == 4000.0
        assert paper.constant_workers_image == 60
        assert paper.constant_workers_text == 20
        assert paper.trace_duration_s == 300.0
        assert paper.fld_resolution == 100

    def test_default_preserves_per_worker_load(self):
        default = ExperimentScale.default()
        paper = ExperimentScale.paper()
        ratio_load = paper.constant_loads_qps[0] / default.constant_loads_qps[0]
        ratio_workers = (
            paper.constant_workers_image / default.constant_workers_image
        )
        assert ratio_load == pytest.approx(default.cluster_scale)
        assert ratio_workers == pytest.approx(
            paper.constant_workers_image / default.constant_workers_image
        )

    def test_overrides(self):
        changed = SMOKE.with_overrides(trace_duration_s=5.0)
        assert changed.trace_duration_s == 5.0
        assert SMOKE.trace_duration_s != 5.0 or True  # original frozen

    def test_scaled_trace_qps(self):
        assert ExperimentScale.default().scaled_trace_qps(4000.0) == 400.0


class TestTaskSpecs:
    def test_image_task(self):
        task = image_task()
        assert task.name == "image"
        assert len(task.model_set) == 26
        assert task.slos_ms == (150.0, 300.0, 500.0)
        assert task.middle_slo_ms == 300.0

    def test_text_task(self):
        task = text_task()
        assert task.name == "text"
        assert len(task.model_set) == 5
        assert task.slos_ms == (100.0, 200.0, 300.0)

    def test_slo_grid_rule_custom(self, tiny_models):
        low, mid, high = slo_grid_for(tiny_models)
        # slowest l(1) = 64 -> middle 100, low 50, high 100 (ceil 96).
        assert (low, mid, high) == (50.0, 100.0, 100.0)


class TestRunnerCaching:
    def test_policy_cache_hits(self):
        task = image_task()
        a = build_ramsis_policy(task.model_set, 150.0, 40.0, 2, SMOKE)
        b = build_ramsis_policy(task.model_set, 150.0, 40.0, 2, SMOKE)
        assert a is b

    def test_policy_set_covers_range(self):
        task = image_task()
        ps = build_policy_set(task.model_set, 150.0, 2, 20.0, 60.0, SMOKE)
        assert ps.loads_qps[0] == pytest.approx(20.0)
        assert ps.max_load_qps == pytest.approx(60.0)

    def test_ms_table_cached(self):
        task = image_task()
        a = modelswitching_table(task.model_set, 150.0, 2, 60.0, SMOKE)
        b = modelswitching_table(task.model_set, 150.0, 2, 60.0, SMOKE)
        assert a is b

    def test_shared_arrivals_identical_across_methods(self):
        trace = LoadTrace.constant(30.0, 4_000.0)
        a = shared_arrivals(trace, seed=3)
        b = shared_arrivals(trace, seed=3)
        assert a is b


class TestRunMethod:
    @pytest.mark.parametrize("method", ["RAMSIS", "JF", "MS", "Greedy"])
    def test_methods_execute(self, method):
        task = image_task()
        trace = LoadTrace.constant(40.0, 5_000.0)
        point = run_method(
            method, task, 150.0, 2, trace, SMOKE, oracle_load=True
        )
        assert point.queries > 0
        assert 0.0 <= point.accuracy <= 1.0
        assert 0.0 <= point.violation_rate <= 1.0
        assert point.load_qps == 40.0

    def test_ramsis_beats_jellyfish_at_moderate_load(self):
        """The paper's core claim on one representative cell, under its
        own filter: compare accuracy only where violations stay < 5%."""
        task = image_task()
        trace = LoadTrace.constant(30.0, 20_000.0)
        ramsis = run_method("RAMSIS", task, 150.0, 2, trace, SMOKE, oracle_load=True)
        jf = run_method("JF", task, 150.0, 2, trace, SMOKE, oracle_load=True)
        assert ramsis.plottable
        if jf.plottable:
            assert ramsis.accuracy >= jf.accuracy - 1e-9

    def test_unknown_method_rejected(self):
        from repro.errors import ConfigurationError

        task = image_task()
        trace = LoadTrace.constant(10.0, 1_000.0)
        with pytest.raises(ConfigurationError):
            run_method("Bogus", task, 150.0, 1, trace, SMOKE)


class TestReporting:
    def _points(self):
        mk = lambda m, w, acc, viol: MethodPoint(  # noqa: E731
            task="image",
            method=m,
            slo_ms=150.0,
            num_workers=w,
            load_qps=None,
            accuracy=acc,
            violation_rate=viol,
            queries=100,
        )
        return [
            mk("RAMSIS", 2, 0.75, 0.001),
            mk("RAMSIS", 4, 0.80, 0.001),
            mk("JF", 2, 0.70, 0.002),
            mk("JF", 4, 0.75, 0.002),
            mk("JF", 6, 0.78, 0.2),  # not plottable
        ]

    def test_accuracy_increase(self):
        avg, best = accuracy_increase_summary(self._points(), "JF")
        assert avg == pytest.approx(5.0)
        assert best == pytest.approx(5.0)

    def test_resource_savings(self):
        # JF at 4 workers reaches 0.75; RAMSIS reaches 0.75 at 2 workers.
        avg, best = resource_savings_summary(self._points(), "JF")
        assert best == pytest.approx(0.5)

    def test_unplottable_cells_excluded(self):
        points = self._points()
        summary = accuracy_increase_summary(points, "JF")
        assert summary is not None  # the 20%-violation cell is ignored

    def test_no_comparable_cells_returns_none(self):
        assert accuracy_increase_summary([], "JF") is None
        assert resource_savings_summary([], "JF") is None

    def test_format_table(self):
        out = format_table(["a", "bb"], [[1, 2], [333, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5
