"""Phase profiler: nested paths, self-time, sampling, folded output."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import generate_policy
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import RecordingTracer


def busy(ms):
    import time

    end = time.perf_counter() + ms / 1000.0
    while time.perf_counter() < end:
        pass


class TestPaths:
    def test_paths_root_at_track_and_nest(self):
        profiler = PhaseProfiler()
        with profiler.span("outer", track="engine"):
            with profiler.span("inner", track="engine"):
                pass
        with profiler.span("solo", track="solver"):
            pass
        paths = {s.path for s in profiler.stats()}
        assert paths == {
            ("engine", "outer"),
            ("engine", "outer", "inner"),
            ("solver", "solo"),
        }

    def test_tracks_have_independent_stacks(self):
        profiler = PhaseProfiler()
        with profiler.span("a", track="t1"):
            with profiler.span("b", track="t2"):
                pass
        paths = {s.path for s in profiler.stats()}
        # "b" on t2 is not nested under t1's open "a".
        assert ("t2", "b") in paths

    def test_depth_and_name_properties(self):
        profiler = PhaseProfiler()
        with profiler.span("outer", track="engine"):
            with profiler.span("inner", track="engine"):
                pass
        by_name = {s.name: s for s in profiler.stats()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1


class TestSelfTime:
    def test_self_time_excludes_direct_children(self):
        profiler = PhaseProfiler()
        with profiler.span("outer", track="t"):
            with profiler.span("inner", track="t"):
                busy(20.0)
            busy(5.0)
        by_name = {s.name: s for s in profiler.stats()}
        outer, inner = by_name["outer"], by_name["inner"]
        assert inner.self_ms == pytest.approx(inner.total_ms)
        assert outer.self_ms == pytest.approx(
            outer.total_ms - inner.total_ms
        )
        assert outer.self_ms < outer.total_ms

    def test_self_time_clamped_non_negative(self):
        profiler = PhaseProfiler(sample_every=2)
        # First occurrence measured (fast), second skipped (slow): the
        # scaled child estimate can exceed the parent's.
        with profiler.span("outer", track="t"):
            with profiler.span("inner", track="t"):
                pass
        with profiler.span("outer", track="t"):
            with profiler.span("inner", track="t"):
                busy(10.0)
        for stat in profiler.stats():
            assert stat.self_ms >= 0.0

    def test_stats_sorted_by_self_time_desc(self):
        profiler = PhaseProfiler()
        with profiler.span("cheap", track="t"):
            pass
        with profiler.span("costly", track="t"):
            busy(15.0)
        stats = profiler.stats()
        assert stats[0].name == "costly"
        assert [s.self_ms for s in stats] == sorted(
            (s.self_ms for s in stats), reverse=True
        )


class TestSampling:
    def test_rejects_bad_sample_every(self):
        with pytest.raises(ValueError):
            PhaseProfiler(sample_every=0)

    def test_counts_all_but_measures_every_kth(self):
        profiler = PhaseProfiler(sample_every=4)
        for _ in range(10):
            with profiler.span("hot", track="t"):
                pass
        (stat,) = profiler.stats()
        assert stat.count == 10
        assert stat.measured == 3  # occurrences 1, 5, 9

    def test_totals_scaled_by_sampling_ratio(self):
        profiler = PhaseProfiler(sample_every=2)
        for _ in range(4):
            with profiler.span("hot", track="t"):
                busy(4.0)
        (stat,) = profiler.stats()
        # Two measured ~4 ms spans, scaled back up by 4/2.
        assert stat.measured == 2
        assert stat.total_ms == pytest.approx(stat.count / stat.measured * 8.0, rel=0.5)
        assert stat.mean_ms == pytest.approx(stat.total_ms / stat.count)


class TestReporting:
    def _profiled(self):
        profiler = PhaseProfiler()
        with profiler.span("outer", track="engine"):
            with profiler.span("inner", track="engine"):
                busy(2.0)
        return profiler

    def test_hotspots_table_shape(self):
        table = self._profiled().hotspots()
        lines = table.splitlines()
        assert lines[0].split() == [
            "phase",
            "count",
            "total_ms",
            "self_ms",
            "mean_ms",
        ]
        assert len(lines) == 3
        assert any("engine;outer;inner" in line for line in lines)

    def test_hotspots_respects_n(self):
        profiler = PhaseProfiler()
        for name in ("a", "b", "c"):
            with profiler.span(name, track="t"):
                pass
        assert len(profiler.hotspots(n=2).splitlines()) == 1 + 2

    def test_folded_lines_are_flamegraph_format(self):
        lines = self._profiled().folded()
        assert lines  # inner's 2 ms survives the integer-µs cutoff
        for line in lines:
            stack, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
            assert stack.split(";")[0] == "engine"

    def test_folded_drops_zero_self_time_paths(self):
        profiler = PhaseProfiler()
        with profiler.span("outer", track="t"):
            with profiler.span("inner", track="t"):
                busy(2.0)
        # outer's self-time is ~0; only the inner path should survive.
        stacks = [line.rsplit(" ", 1)[0] for line in profiler.folded()]
        assert "t;outer;inner" in stacks

    def test_reset_clears_aggregates(self):
        profiler = self._profiled()
        profiler.reset()
        assert profiler.stats() == []
        assert profiler.folded() == []
        with profiler.span("fresh", track="t"):
            pass
        assert [s.name for s in profiler.stats()] == ["fresh"]


class TestForwarding:
    def test_forwards_spans_to_inner_recorder(self):
        recorder = RecordingTracer()
        profiler = PhaseProfiler(recorder)
        with profiler.span("outer", track="engine", args={"k": 1}):
            with profiler.span("inner", track="engine"):
                pass
        assert [s.name for s in recorder.spans] == ["inner", "outer"]
        assert recorder.spans[0].parent_id == recorder.spans[1].span_id
        assert recorder.spans[1].args == {"k": 1}

    def test_sampling_still_forwards_untimed_occurrences(self):
        recorder = RecordingTracer()
        profiler = PhaseProfiler(recorder, sample_every=3)
        for _ in range(5):
            with profiler.span("hot", track="t"):
                pass
        assert len(recorder.spans) == 5
        (stat,) = profiler.stats()
        assert stat.measured == 2

    def test_profiles_policy_generation_phases(self, tiny_config):
        """Drop-in on existing instrumentation: solver phases aggregate."""
        profiler = PhaseProfiler()
        generate_policy(tiny_config, tracer=profiler)
        names = {s.name for s in profiler.stats()}
        assert "stacked_bank" in names
        assert "stacked_value_iteration" in names
        deepest = max(s.depth for s in profiler.stats())
        assert deepest >= 1


class TestOfflineStats:
    """Phase stats rebuilt from recorded span dicts (``merged.jsonl``)."""

    def _record_nested(self):
        tracer = RecordingTracer()
        with tracer.span("outer", track="t"):
            with tracer.span("inner", track="t"):
                pass
            with tracer.span("inner", track="t"):
                pass
        with tracer.span("other", track="u"):
            pass
        return tracer

    def _records(self, tracer):
        import json

        from repro.obs.exporters import events_jsonl

        return [json.loads(line) for line in events_jsonl(tracer)]

    def test_paths_rebuilt_from_parent_ids(self):
        from repro.obs.profile import stats_from_spans

        stats = stats_from_spans(self._records(self._record_nested()))
        paths = {s.path: s for s in stats}
        assert ("t", "outer") in paths
        assert ("t", "outer", "inner") in paths
        assert ("u", "other") in paths
        assert paths[("t", "outer", "inner")].count == 2

    def test_self_time_excludes_children_offline(self):
        from repro.obs.profile import stats_from_spans

        stats = stats_from_spans(self._records(self._record_nested()))
        by_path = {s.path: s for s in stats}
        outer = by_path[("t", "outer")]
        inner = by_path[("t", "outer", "inner")]
        assert outer.self_ms == pytest.approx(
            max(0.0, outer.total_ms - inner.total_ms)
        )

    def test_offline_render_shared_with_profiler(self):
        from repro.obs.profile import (
            folded_lines,
            render_hotspots,
            stats_from_spans,
        )

        stats = stats_from_spans(self._records(self._record_nested()))
        table = render_hotspots(stats, n=5)
        assert table.splitlines()[0].split() == [
            "phase", "count", "total_ms", "self_ms", "mean_ms",
        ]
        for line in folded_lines(stats):
            path, micros = line.rsplit(" ", 1)
            assert int(micros) > 0
            assert ";" in path

    def test_non_span_records_ignored(self):
        from repro.obs.profile import stats_from_spans

        records = [
            {"type": "instant", "name": "tick", "track": "t", "ts_ms": 0.0},
            {"type": "counter", "name": "q", "track": "t", "value": 1.0},
        ]
        assert stats_from_spans(records) == []

    def test_orphan_parent_treated_as_root(self):
        from repro.obs.profile import stats_from_spans

        records = [
            {
                "type": "span", "name": "child", "track": "t",
                "ts_ms": 0.0, "dur_ms": 5.0, "id": 2, "parent": 99,
            }
        ]
        stats = stats_from_spans(records)
        assert [s.path for s in stats] == [("t", "child")]


_span_record = st.fixed_dictionaries(
    {
        "type": st.just("span"),
        "name": st.sampled_from(["a", "b", "c"]),
        "track": st.sampled_from(["t", "u"]),
        "ts_ms": st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        "dur_ms": st.floats(0.0, 50.0),
    },
    optional={
        "id": st.integers(0, 5),
        "parent": st.integers(0, 7),
    },
)


class TestStatsFromTable:
    """The columnar table fold equals :func:`stats_from_spans` over the
    same spans in timestamp order: stats, hotspot text and folded lines."""

    @staticmethod
    def _assert_same_as_records(records):
        from repro.obs.columns import EventTable
        from repro.obs.profile import (
            folded_lines,
            render_hotspots,
            stats_from_spans,
            stats_from_table,
        )

        got = stats_from_table(EventTable.from_records(records))
        want = stats_from_spans(sorted(records, key=lambda r: r["ts_ms"]))
        assert got == want
        assert render_hotspots(got, n=50) == render_hotspots(want, n=50)
        assert folded_lines(got) == folded_lines(want)

    @settings(max_examples=200, deadline=None)
    @given(records=st.lists(_span_record, max_size=12))
    def test_parents_shared_ids_and_orphans(self, records):
        """Parent chains, ids shared by several spans, orphan parents,
        cycles, children tied with (or ahead of) their parents in time."""
        self._assert_same_as_records(records)

    def test_recorded_nested_trace(self):
        import json

        from repro.obs.exporters import events_jsonl

        tracer = RecordingTracer()
        for _ in range(3):
            with tracer.span("outer", track="t"):
                with tracer.span("inner", track="t"):
                    pass
        with tracer.span("other", track="u"):
            pass
        records = [json.loads(line) for line in events_jsonl(tracer)]
        self._assert_same_as_records([r for r in records if r["type"] == "span"])

    def test_flat_merged_spans(self):
        records = [
            {"type": "span", "name": f"s{i % 3}", "track": f"w{i % 2}",
             "ts_ms": float(i // 4), "dur_ms": float(i), "id": i + 1}
            for i in range(40)
        ]
        self._assert_same_as_records(records)
