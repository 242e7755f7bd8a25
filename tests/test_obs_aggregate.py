"""Cross-process trace shipping and merge semantics.

The tentpole contract: columnar worker feeds written by
:class:`ShardTracer` merge back into one multi-track table/registry in
serial cell order, so a traced parallel sweep reconstructs to *exactly*
the serial traced run's numbers, and the merged Chrome trace is
Perfetto-loadable with one process group per worker.  A property suite
pins the feed round trip to the JSONL ship path it replaced.
"""

import json
from itertools import count

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import LoadTrace
from repro.cache import PolicyCache
from repro.experiments.runner import clear_caches
from repro.experiments.scale import ExperimentScale
from repro.experiments.sweep import SweepCell, run_sweep
from repro.experiments.tasks import image_task
from repro.obs.aggregate import (
    ShardTracer,
    export_run_dir,
    merge_run_dir,
    write_merged_artifacts,
)
from repro.obs.columns import MISSING, EventTable, encode_block, json_default
from repro.obs.exporters import chrome_trace, events_jsonl, write_events_jsonl
from repro.obs.metrics import MetricsRegistry
from repro.obs.reconstruct import reconstruct_from_jsonl, reconstruct_metrics
from repro.obs.trace import RecordingTracer


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_caches()
    yield
    clear_caches()


def sweep_cells(loads=(20.0, 50.0)):
    scale = ExperimentScale.smoke()
    task = image_task()
    cells = [
        SweepCell(
            method=method,
            task=task,
            slo_ms=task.slos_ms[0],
            num_workers=scale.constant_workers_image,
            trace=LoadTrace.constant(
                load, scale.constant_duration_s * 1000.0, name=f"agg-{load:g}"
            ),
            seed=23,
            oracle_load=True,
        )
        for load in loads
        for method in ("RAMSIS", "JF")
    ]
    return cells, scale


class TestShardTracer:
    def test_header_and_record_schema(self, tmp_path):
        path = tmp_path / "shard-123.cols"
        tracer = ShardTracer(path, pid=123, slo_ms=150.0)
        tracer.set_sequence(4)
        with tracer.span("outer", track="t"):
            with tracer.span("inner", track="t"):
                pass
        tracer.instant("tick", "t", 1.0)
        tracer.counter("queue", "t", 2.0, 7.0)
        tracer.close()

        table, header = EventTable.load(path)
        assert header["pid"] == 123
        assert header["anchor_unix_ms"] > 0
        assert header["slo_ms"] == 150.0
        # Every record carries the sequence stamp and a monotonic counter.
        assert table.columns["seq"].tolist() == [4] * len(table)
        assert table.columns["n"].tolist() == list(range(len(table)))
        rest = list(table.records())
        inner, outer = rest[0], rest[1]  # inner span closes first
        assert inner[1] == "inner"
        assert inner[8] == outer[7]  # parent == the outer span's id
        assert table.strings_at("name", np.arange(4)) == [
            "inner", "outer", "tick", "queue"
        ]
        assert table.columns["kind"].tolist() == [0, 0, 1, 2]

    def test_mutable_args_captured_at_exit(self, tmp_path):
        tracer = ShardTracer(tmp_path / "shard-1.cols", pid=1)
        outcome = {}
        with tracer.span("cache_get", track="cache", args=outcome):
            outcome["hit"] = True
        tracer.close()
        spans = RecordingTracer.from_table(EventTable.load(tracer.path)[0]).spans
        assert spans[-1].args == {"hit": True}

    def test_full_buffer_flushes_a_block(self, tmp_path, monkeypatch):
        from repro.obs import aggregate
        from repro.obs.columns import read_blocks

        monkeypatch.setattr(aggregate, "BLOCK_ROWS", 3)
        tracer = ShardTracer(tmp_path / "shard-5.cols", pid=5)
        for i in range(10):
            tracer.instant("tick", "t", float(i), args={"i": i})
        tracer.flush()
        blocks = list(read_blocks(tracer.path, "obs.aggregate", "torn"))
        assert [header["rows"] for header, _ in blocks] == [3, 3, 3, 1]
        tracer.close()
        events = merge_run_dir(tmp_path).tracer.events
        assert [ev.args["i"] for ev in events] == list(range(10))

    def test_shard_is_reconstruction_input(self, tmp_path, tiny_models):
        """A shard feed is itself valid input for reconstruction."""
        from tests.test_obs_integration import traced_run
        from tests.test_sim_simulator import AlwaysModelSelector

        metrics, tracer, _ = traced_run(
            tiny_models,
            AlwaysModelSelector("fast"),
            LoadTrace.constant(100.0, 5_000.0),
        )
        shard = ShardTracer(tmp_path / "shard-9.cols", pid=9)
        for span in tracer.spans:
            shard.complete(
                span.name,
                span.track,
                span.start_ms,
                span.duration_ms,
                span.category,
                dict(span.args),
            )
        for ev in tracer.events:
            if ev.is_counter:
                shard.counter(ev.name, ev.track, ev.ts_ms, ev.value)
            else:
                shard.instant(ev.name, ev.track, ev.ts_ms, args=dict(ev.args))
        shard.close()
        summary = reconstruct_metrics(EventTable.load(shard.path)[0])
        assert summary.total_queries == metrics.total_queries
        assert summary.violation_rate == metrics.violation_rate


class TestMergeRunDir:
    def _write_shards(self, tmp_path):
        """Two shards with interleaved sequence numbers."""
        a = ShardTracer(tmp_path / "shard-100.cols", pid=100)
        b = ShardTracer(tmp_path / "shard-200.cols", pid=200)
        a.set_sequence(0)
        a.instant("cell_start", "worker", 1.0)
        b.set_sequence(1)
        b.instant("cell_start", "worker", 1.0)
        a.set_sequence(2)
        a.instant("cell_start", "worker", 1.0)
        a.close()
        b.close()
        return a, b

    def test_tracks_renamed_and_ordered_by_sequence(self, tmp_path):
        self._write_shards(tmp_path)
        merged = merge_run_dir(tmp_path)
        assert merged.tracer.tracks() == ["w0/worker", "w1/worker"]
        order = [
            ev.track for ev in merged.tracer.events if ev.name == "cell_start"
        ]
        # seq 0 (w0), seq 1 (w1), seq 2 (w0) — serial cell order.
        assert order == ["w0/worker", "w1/worker", "w0/worker"]
        assert merged.records == 3
        assert [s.pid for s in merged.shards] == [100, 200]
        assert [s.worker_index for s in merged.shards] == [0, 1]

    def test_merges_into_existing_recorder(self, tmp_path):
        self._write_shards(tmp_path)
        parent = RecordingTracer()
        with parent.span("sweep_submit", track="sweep"):
            pass
        merged = merge_run_dir(tmp_path, tracer=parent)
        # The feeds are replayed after the parent's own records; the
        # merged run holds the feeds alone.
        assert set(parent.tracks()) == {"sweep", "w0/worker", "w1/worker"}
        assert [s.name for s in parent.spans] == ["sweep_submit"]
        assert len(parent.events) == merged.records == 3
        assert merged.tracer.tracks() == ["w0/worker", "w1/worker"]

    def test_offline_timestamps_reanchored_non_negative(self, tmp_path):
        a = ShardTracer(tmp_path / "shard-1.cols", pid=1)
        with a.span("solve", track="solver"):
            pass
        a.close()
        parent = RecordingTracer()  # created before merge → earliest anchor
        merged = merge_run_dir(tmp_path, tracer=parent)
        offline = [s for s in merged.tracer.spans if s.name == "solve"]
        assert offline
        assert all(s.start_ms >= 0.0 for s in offline)

    def test_registry_merge_sums_counters_and_labels_gauges(self, tmp_path):
        for pid in (10, 20):
            registry = MetricsRegistry()
            registry.counter("policy_cache_misses_total").inc(2)
            registry.gauge("load_qps").set(float(pid))
            (tmp_path / f"metrics-{pid}.json").write_text(
                json.dumps(registry.to_json_dict())
            )
        merged = merge_run_dir(tmp_path)
        (counter,) = merged.registry.collect("policy_cache_misses_total")
        assert counter.value == 4.0
        gauges = {
            dict(g.labels)["worker"]: g.value
            for g in merged.registry.collect("load_qps")
        }
        assert gauges == {"0": 10.0, "1": 20.0}


class TestParallelSweepEquality:
    def test_traced_parallel_reconstructs_exactly_like_serial(self, tmp_path):
        """The headline acceptance criterion: jobs>1 tracing is lossless."""
        cells, scale = sweep_cells()
        serial_tracer = RecordingTracer()
        serial = run_sweep(cells, scale, tracer=serial_tracer)
        clear_caches()
        parallel_tracer = RecordingTracer()
        registry = MetricsRegistry()
        parallel = run_sweep(
            cells,
            scale,
            jobs=2,
            cache=PolicyCache(directory=tmp_path / "cache"),
            tracer=parallel_tracer,
            registry=registry,
            run_dir=tmp_path / "run",
        )
        assert parallel == serial
        assert reconstruct_metrics(parallel_tracer) == reconstruct_metrics(
            serial_tracer
        )
        # Worker track groups exist alongside the parent's sweep track.
        tracks = parallel_tracer.tracks()
        assert "sweep" in tracks
        assert any(t.startswith("w0/") for t in tracks)

    def test_feeds_are_numbered_by_cell(self, tmp_path):
        """Which process runs which cell is the scheduler's choice; the
        merged worker labels and ``w<i>/`` tracks must not depend on it."""
        cells, scale = sweep_cells()
        runs = []
        for name in ("a", "b"):
            clear_caches()
            run_dir = tmp_path / name
            run_sweep(cells, scale, jobs=2, run_dir=run_dir)
            table = EventTable.load(run_dir / "merged.cols")[0]
            tracks = {}
            for seq, track in zip(
                table.columns["seq"].tolist(),
                table.strings_at("track", np.arange(len(table))),
            ):
                tracks.setdefault(seq, set()).add(track)
            runs.append(((run_dir / "metrics.json").read_bytes(), tracks))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        assert sorted(runs[0][1]) == list(range(len(cells)))
        for seq, tracks in runs[0][1].items():
            assert all(t.startswith(f"w{seq}/") for t in tracks)
        workers = {
            dict(metric["labels"]).get("worker")
            for metric in json.loads(runs[0][0])["metrics"]
        }
        assert workers - {None} == {str(i) for i in range(len(cells))}

    def test_run_dir_gets_merged_artifacts(self, tmp_path):
        cells, scale = sweep_cells(loads=(20.0,))
        run_dir = tmp_path / "run"
        run_sweep(
            cells,
            scale,
            jobs=2,
            cache=PolicyCache(directory=tmp_path / "cache"),
            tracer=RecordingTracer(),
            run_dir=run_dir,
        )
        for name in ("merged.cols", "metrics.prom", "metrics.json"):
            assert (run_dir / name).is_file(), name
        assert list(run_dir.glob("shard-*.cols"))
        summary = reconstruct_metrics(EventTable.load(run_dir / "merged.cols")[0])
        assert summary.total_queries > 0
        # The JSONL log and Perfetto trace are written on demand; the log
        # (timestamp-sorted, so float sums fold in another order) counts
        # the same lifecycle records.
        assert not (run_dir / "merged.jsonl").exists()
        export_run_dir(run_dir)
        assert (run_dir / "trace.json").is_file()
        from_log = reconstruct_from_jsonl(run_dir / "merged.jsonl")
        for name in ("total_queries", "satisfied_queries", "decisions",
                     "batch_total", "arrivals"):
            assert getattr(from_log, name) == getattr(summary, name)
        assert from_log.accuracy_sum == pytest.approx(summary.accuracy_sum)


class TestChromeTraceSplitProcesses:
    def _merged_tracer(self, tmp_path):
        a = ShardTracer(tmp_path / "shard-1.cols", pid=1)
        b = ShardTracer(tmp_path / "shard-2.cols", pid=2)
        for shard in (a, b):
            shard.complete("serve", "worker-0", 0.0, 5.0)
            shard.instant("arrival", "balancer", 0.5)
        a.close()
        b.close()
        parent = RecordingTracer()
        with parent.span("sweep_submit", track="sweep"):
            pass
        merge_run_dir(tmp_path, tracer=parent)
        return parent

    def test_one_process_group_per_worker(self, tmp_path):
        doc = chrome_trace(self._merged_tracer(tmp_path), split_processes=True)
        names = {
            ev["args"]["name"]: ev["pid"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        # Parent group plus one group per worker, distinct pids.
        assert len(names) == 3
        assert len(set(names.values())) == 3
        worker_groups = [n for n in names if n.endswith(("w0", "w1"))]
        assert len(worker_groups) == 2

    def test_events_mapped_to_group_pids_with_valid_timestamps(self, tmp_path):
        doc = chrome_trace(self._merged_tracer(tmp_path), split_processes=True)
        events = [ev for ev in doc["traceEvents"] if ev["ph"] in ("X", "i")]
        assert events
        pids = {ev["pid"] for ev in events}
        assert len(pids) == 3  # parent + two workers
        for ev in events:
            assert ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_document_is_loadable_json(self, tmp_path):
        merged = merge_run_dir(tmp_path, tracer=self._merged_tracer(tmp_path))
        write_merged_artifacts(merged, tmp_path / "out")
        assert export_run_dir(tmp_path / "out")
        doc = json.loads((tmp_path / "out" / "trace.json").read_text())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"]


class TestSharedRecorder:
    """A caller's recorder shared by several parallel sweeps: each run
    dir holds that sweep's feeds, and nothing else."""

    def test_repeated_sweeps_attribute_their_own_queries(self, tmp_path):
        from repro.obs.attribution import LatencyAttributor

        cells = [
            cell for cell in sweep_cells(loads=(20.0, 50.0))[0]
            if cell.method == "RAMSIS"
        ]
        scale = ExperimentScale.smoke()
        tracer = RecordingTracer()
        totals, rows = [], []
        for run in range(2):
            attributor = LatencyAttributor()
            run_dir = tmp_path / f"run-{run}"
            run_sweep(
                cells, scale, jobs=2, tracer=tracer, run_dir=run_dir,
                attributor=attributor,
            )
            totals.append(attributor.to_json_dict()["totals"])
            rows.append(len(EventTable.load(run_dir / "merged.cols")[0]))
            feeds = sum(
                len(EventTable.load(path)[0])
                for path in run_dir.glob("shard-*.cols")
            )
            assert rows[-1] == feeds
        assert totals[0]["queries"] > 0
        assert totals[1] == totals[0]
        assert rows[1] == rows[0]


class TestTruncatedShards:
    """A crashed worker tears its feed mid-block (or an event log
    mid-line); merging must degrade gracefully: every block or record
    before the tear survives, the torn tail is skipped with a warning,
    nothing raises."""

    @staticmethod
    def _completion(tracer, i):
        tracer.instant(
            "completion",
            "worker-0",
            float(i),
            args={
                "query": i, "worker": 0, "model": "m",
                "satisfied": True, "response_ms": 1.0,
            },
        )

    def _torn_shard(self, tmp_path):
        """Five one-record blocks, then a sixth torn mid-block."""
        path = tmp_path / "shard-7.cols"
        tracer = ShardTracer(path, pid=7)
        tracer.set_sequence(0)
        for i in range(6):
            self._completion(tracer, i)
            tracer.flush()
        tracer.close()
        data = path.read_bytes()
        last = len(encode_block(EventTable.load(path)[0].take(np.array([5]))))
        path.write_bytes(data[: len(data) - last // 2])  # torn mid-write
        return path

    def _torn_log(self, tmp_path):
        """The feed's records as an event log torn mid-line."""
        tracer = RecordingTracer()
        for i in range(5):
            self._completion(tracer, i)
        path = write_events_jsonl(tracer, tmp_path / "events.jsonl")
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"type": "instant", "name": "comp')  # torn mid-write
        return path

    def test_merge_run_dir_skips_torn_line(self, tmp_path, caplog):
        self._torn_shard(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.aggregate"):
            merged = merge_run_dir(tmp_path)
        assert any("unparseable" in r.message for r in caplog.records)
        assert len(merged.tracer.events) == 5
        assert merged.records == 5

    def test_reconstruct_from_jsonl_skips_torn_line(self, tmp_path, caplog):
        path = self._torn_log(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.reconstruct"):
            summary = reconstruct_from_jsonl(path)
        assert any("unparseable" in r.message for r in caplog.records)
        assert summary.total_queries == 5

    def test_attribution_fold_skips_torn_line(self, tmp_path, caplog):
        from repro.obs.attribution import attribution_from_jsonl

        path = self._torn_log(tmp_path)
        with caplog.at_level("WARNING", logger="repro.obs.attribution"):
            attributor = attribution_from_jsonl(path)
        assert any("unparseable" in r.message for r in caplog.records)
        assert attributor.to_json_dict()["totals"]["queries"] == 5

    def test_object_array_block_refused_not_unpickled(
        self, tmp_path, caplog, monkeypatch
    ):
        path = tmp_path / "shard-3.cols"
        tracer = ShardTracer(path, pid=3)
        self._completion(tracer, 0)
        tracer.close()
        table = EventTable.load(path)[0]
        table.columns["ts_ms"] = np.array([_Payload()], dtype=object)
        save = np.save
        with monkeypatch.context() as patch:
            patch.setattr(
                np, "save", lambda fh, a, allow_pickle=False: save(fh, a, allow_pickle=True)
            )
            block = encode_block(table)
        with path.open("ab") as fh:
            fh.write(block)
        with caplog.at_level("WARNING", logger="repro.obs.aggregate"):
            merged = merge_run_dir(tmp_path)
        assert not _Payload.unpickled
        assert any("refusing" in r.message for r in caplog.records)
        assert merged.records == 1

    def test_no_feeds_merges_to_an_empty_run(self, tmp_path):
        merged = merge_run_dir(tmp_path)
        assert merged.records == 0 and merged.shards == []
        assert len(merged.table) == 0
        assert merged.tracer.spans == () and merged.tracer.events == ()
        assert merged.slo_ms is None


class TestTableArgs:
    """Typed arg columns read in bulk: as the Python casts, row by row."""

    RECORDS = [
        {"type": "instant", "name": "x", "args": {"v": 3, "m": "a"}},
        {"type": "instant", "name": "x", "args": {"v": 2.5, "m": 7}},
        {"type": "instant", "name": "x", "args": {"v": True, "m": None}},
        {"type": "instant", "name": "x", "args": {"v": -0.0}},
        {"type": "instant", "name": "x", "args": {"v": 2**70, "m": "a"}},
        {"type": "instant", "name": "x", "args": {"m": ""}},
    ]

    def test_arg_array_casts_like_python(self):
        table = EventTable.from_records(self.RECORDS)
        rows = np.arange(len(table))
        values = table.arg("v", rows)
        for kind, default in ((float, 9.0), (bool, False)):
            got = table.arg_array("v", rows, kind, default).tolist()
            want = [default if v is MISSING else kind(v) for v in values]
            assert repr(got) == repr(want)
        picked = np.array([0, 1, 3])
        assert table.arg_array("v", picked, int, np.array([4, 5, 6])).tolist() == [
            3, 2, 0,
        ]

    def test_arg_strings_codes_each_string_once(self):
        table = EventTable.from_records(self.RECORDS)
        rows = np.arange(len(table))[::-1]
        codes, names = table.arg_strings("m", rows, default="")
        assert len(set(names)) == len(names)
        assert [names[c] for c in codes.tolist()] == [
            "" if m is MISSING else str(m) for m in table.arg("m", rows)
        ]

    def test_take_of_some_rows_keeps_their_overflow_only(self):
        table = EventTable.from_records(self.RECORDS)
        part = table.take(np.array([4, 1]))
        assert part.arg("v", np.arange(2)) == [2**70, 2.5]
        assert part.arg("m", np.arange(2)) == ["a", 7]
        assert table.take(np.array([0])).arg("m", np.arange(1)) == ["a"]


class _Payload:
    """Unpickling this object would flip :attr:`unpickled`."""

    unpickled = False

    def __reduce__(self):
        return (_mark_unpickled, ())


def _mark_unpickled():
    _Payload.unpickled = True
    return 0.0


# ----------------------------------------------------------------------
# Feed round trip vs. the JSONL ship path it replaced
# ----------------------------------------------------------------------
class _JsonShard:
    """The JSONL feed writer this format replaced, kept as the oracle: it
    keeps every record as its JSON round trip (sorted keys, numpy scalars
    unwrapped), stamped with ``seq``/``n``."""

    def __init__(self, clock):
        self.records = []
        self._clock = clock
        self._seq = 0

    def set_sequence(self, seq):
        self._seq = seq

    def _write(self, record):
        record["seq"], record["n"] = self._seq, len(self.records)
        self.records.append(
            json.loads(json.dumps(record, sort_keys=True, default=json_default))
        )

    def complete(self, name, track, start_ms, duration_ms, category="sim", args=None):
        record = {"type": "span", "name": name, "track": track, "ts_ms": start_ms,
                  "dur_ms": duration_ms, "cat": category}
        if args:
            record["args"] = args
        self._write(record)

    def instant(self, name, track, ts_ms, category="sim", args=None):
        record = {"type": "instant", "name": name, "track": track, "ts_ms": ts_ms,
                  "cat": category}
        if args:
            record["args"] = args
        self._write(record)

    def counter(self, name, track, ts_ms, value):
        self._write({"type": "counter", "name": name, "track": track,
                     "ts_ms": ts_ms, "cat": "counter", "value": float(value)})

    def span(self, name, track, category, args):
        start = self._clock()
        return lambda: self.complete(
            name, track, start, self._clock() - start, category, args
        )


def _reference_merge(shards):
    """The pre-columnar merge: sort on (seq, worker, n), rename tracks,
    shift offline timestamps by the anchor delta, replay into a fresh
    recorder."""
    base = min(anchor for anchor, _ in shards)
    keyed = [
        (r["seq"], widx, r["n"], r, anchor - base)
        for widx, (anchor, oracle) in enumerate(shards)
        for r in oracle.records
    ]
    keyed.sort(key=lambda item: item[:3])
    recorder = RecordingTracer()
    for _seq, widx, _n, r, offset in keyed:
        track = f"w{widx}/{r['track']}"
        ts = float(r["ts_ms"])
        if r["cat"] == "offline":
            ts += max(0.0, offset)
        if r["type"] == "span":
            recorder.complete(r["name"], track, ts, float(r["dur_ms"]), r["cat"],
                              r.get("args"))
        elif r["type"] == "instant":
            recorder.instant(r["name"], track, ts, r["cat"], r.get("args"))
        else:
            recorder.counter(r["name"], track, ts, float(r["value"]))
    return recorder


_scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.none(),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(np.float32, st.floats(allow_nan=False, width=32)),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)
# A small key alphabet, so one key meets several value types.
_args = st.one_of(
    st.none(), st.dictionaries(st.sampled_from("abcdq"), _values, max_size=4)
)
_names = st.sampled_from(["serve", "completion", "arrival", "tick", "q"])
_tracks = st.sampled_from(["worker-0", "worker-1", "balancer", "solver"])
_cats = st.sampled_from(["sim", "offline", "counter", "x"])
_floats = st.floats(allow_nan=False, allow_infinity=False)
_ops = st.one_of(
    st.tuples(st.just("complete"), _names, _tracks, _floats, _floats, _cats, _args),
    st.tuples(st.just("instant"), _names, _tracks, _floats, _cats, _args),
    st.tuples(st.just("counter"), _names, _tracks, _floats, _floats),
    st.tuples(st.just("span"), _names, _tracks, _cats, _args),
    st.tuples(st.just("seq"), st.integers(0, 3)),
    st.tuples(st.just("flush"),),
)


class TestFeedRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(_ops, max_size=25), min_size=2, max_size=3))
    def test_merge_equals_jsonl_ship_path(self, tmp_path_factory, programs):
        run_dir = tmp_path_factory.mktemp("feeds")
        shards = []
        for pid, program in enumerate(programs):
            clock = count(0.0, 0.25).__next__
            feed = ShardTracer(run_dir / f"shard-{pid}.cols", pid=pid)
            feed._now_ms = count(0.0, 0.25).__next__
            oracle = _JsonShard(clock)
            for op in program:
                kind, rest = op[0], op[1:]
                if kind == "flush":
                    feed.flush()
                elif kind == "seq":
                    feed.set_sequence(rest[0])
                    oracle.set_sequence(rest[0])
                elif kind == "span":
                    name, track, cat, args = rest
                    done = oracle.span(name, track, cat, args)
                    with feed.span(name, track=track, category=cat, args=args):
                        pass
                    done()
                else:
                    getattr(feed, kind)(*rest)
                    getattr(oracle, kind)(*rest)
            feed.close()
            shards.append((feed.anchor_unix_ms, oracle))

        merged = merge_run_dir(run_dir)
        expected = _reference_merge(shards)
        assert merged.tracer.spans == expected.spans
        assert merged.tracer.events == expected.events
        assert events_jsonl(merged.tracer) == events_jsonl(expected)
        assert json.dumps(chrome_trace(merged.tracer, split_processes=True)) == (
            json.dumps(chrome_trace(expected, split_processes=True))
        )
        assert merged.records == sum(len(o.records) for _, o in shards)
        # The merged table survives its own file round trip.
        write_merged_artifacts(merged, run_dir / "out")
        table = EventTable.load(run_dir / "out" / "merged.cols")[0]
        assert events_jsonl(RecordingTracer.from_table(table)) == events_jsonl(expected)


class TestLiveSnapshots:
    def test_write_live_snapshot_atomic_files(self, tmp_path):
        from repro.obs.aggregate import write_live_snapshot
        from tests.oracles.attribution_fold import HookAttributor

        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        attributor = HookAttributor(slo_ms=100.0)
        attributor.observe_completion(1, 0, "m", 9.0, True)
        paths = write_live_snapshot(
            tmp_path, registry=registry, attributor=attributor, pid=42
        )
        names = sorted(p.name for p in paths)
        assert names == ["attribution-42.json", "metrics-42.json"]
        snap = json.loads((tmp_path / "attribution-42.json").read_text())
        assert snap["totals"]["queries"] == 1
        metrics = json.loads((tmp_path / "metrics-42.json").read_text())
        assert any(
            m["name"] == "queries_total" for m in metrics["metrics"]
        )
        # No temp files left behind.
        assert not list(tmp_path.glob(".*tmp"))

    def test_snapshot_feeds_render_top_frame(self, tmp_path):
        from repro.obs.aggregate import write_live_snapshot
        from repro.obs.report import render_top_frame
        from tests.oracles.attribution_fold import HookAttributor

        attributor = HookAttributor(slo_ms=100.0)
        attributor.observe_completion(1, 0, "m", 9.0, True)
        write_live_snapshot(tmp_path, attributor=attributor, pid=7)
        frame = render_top_frame(tmp_path)
        assert "attribution-7.json" in frame
        assert "m @ worker 0" in frame
