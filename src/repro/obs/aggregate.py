"""Cross-process trace shipping and aggregation.

``ProcessPoolExecutor`` workers cannot share the parent's
:class:`~repro.obs.trace.RecordingTracer` or
:class:`~repro.obs.metrics.MetricsRegistry` — records would have to
cross a pickle boundary on every event.  Instead each worker gets a
file-backed :class:`ShardTracer` plus its own registry (installed by
:func:`init_worker_obs`, the pool initializer) and writes *shards* under
a per-run directory::

    <run_dir>/shard-<pid>.jsonl     one JSONL record per span/event
    <run_dir>/metrics-<pid>.json    the worker registry, serialized

After the pool drains, :func:`merge_run_dir` reads every shard back into
one multi-track tracer and one registry:

- records are replayed in **cell order** — each record carries the cell
  sequence number (``seq``, stamped via :meth:`ShardTracer.set_sequence`)
  and a per-shard emission counter (``n``), and the merge sorts by
  ``(seq, shard, n)``, so a parallel run folds to byte-identical
  aggregates as the serial run (``reconstruct_metrics`` equality is the
  test suite's oracle);
- worker tracks are renamed ``w<idx>/<track>`` so exporters can group
  one track set per worker process (see ``split_processes`` in
  :func:`repro.obs.exporters.chrome_trace`);
- wall-clock (``category == "offline"``) timestamps are re-anchored:
  every shard header records the Unix time paired with the worker's
  ``perf_counter`` epoch, and the merge shifts each shard's offline
  records by its anchor delta against the earliest anchor, making
  cross-process timings comparable and non-negative.  Simulation-time
  records already share a timeline and are never shifted;
- registries merge with counter **sums**, histogram **combines**, and
  gauges republished under a per-worker ``worker=<idx>`` label (gauges
  are last-write-wins, so merging them unlabelled would lose data).

Shards are themselves valid input to
:func:`repro.obs.reconstruct.reconstruct_from_jsonl` — the record schema
is the :func:`repro.obs.exporters.events_jsonl` schema plus the
``seq``/``n`` ordering fields.
"""

from __future__ import annotations

import atexit
import json
import os
import re
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.reconstruct import _iter_jsonl
from repro.obs.trace import RecordingTracer, Tracer

__all__ = [
    "ShardTracer",
    "WorkerObs",
    "init_worker_obs",
    "worker_obs",
    "new_run_dir",
    "ShardInfo",
    "MergedRun",
    "merge_run_dir",
    "write_merged_artifacts",
    "write_live_snapshot",
]

#: Bump when the shard record layout changes incompatibly.
SHARD_SCHEMA = 1

_SHARD_RE = re.compile(r"shard-(\d+)\.jsonl$")
_METRICS_RE = re.compile(r"metrics-(\d+)\.json$")


def _json_default(value: Any) -> Any:
    """Make numpy scalars (and other exotic leaves) JSON-serializable."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


class ShardTracer(Tracer):
    """File-backed JSONL tracer for one worker process.

    Mirrors :class:`~repro.obs.trace.RecordingTracer` (wall-clock spans
    relative to a ``perf_counter`` epoch, per-track parent stacks) but
    appends each record to a shard file instead of keeping it in memory,
    so a long worker's trace never grows the process heap.  Every record
    is stamped with the current *sequence number* (the cell index, set by
    the pool task via :meth:`set_sequence`) and a monotonically
    increasing per-shard counter, which is what lets the parent merge
    shards back into serial cell order.
    """

    enabled = True

    def __init__(self, path: Union[str, Path], pid: Optional[int] = None) -> None:
        self._path = Path(path)
        self.pid = os.getpid() if pid is None else pid
        self._epoch = time.perf_counter()
        #: Unix wall-clock (ms) paired with the ``perf_counter`` epoch.
        self.anchor_unix_ms: float = time.time() * 1000.0
        self._seq = 0
        self._n = 0
        self._next_id = 1
        self._open: Dict[str, List[int]] = {}
        self._fh = self._path.open("w", encoding="utf-8")
        self._write_raw(
            {
                "type": "shard_header",
                "schema": SHARD_SCHEMA,
                "pid": self.pid,
                "anchor_unix_ms": self.anchor_unix_ms,
            }
        )

    @property
    def path(self) -> Path:
        """The shard file this tracer appends to."""
        return self._path

    def set_sequence(self, seq: int) -> None:
        """Stamp subsequent records with cell index ``seq`` (merge order)."""
        self._seq = int(seq)

    # ------------------------------------------------------------------
    # Recording (events_jsonl schema + seq/n)
    # ------------------------------------------------------------------
    def _write_raw(self, record: Dict[str, Any]) -> None:
        self._fh.write(
            json.dumps(record, sort_keys=True, default=_json_default) + "\n"
        )

    def _write(self, record: Dict[str, Any]) -> None:
        record["seq"] = self._seq
        record["n"] = self._n
        self._n += 1
        self._write_raw(record)

    def complete(
        self,
        name: str,
        track: str,
        start_ms: float,
        duration_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        span_id = self._next_id
        self._next_id += 1
        record: Dict[str, Any] = {
            "type": "span",
            "name": name,
            "track": track,
            "ts_ms": start_ms,
            "dur_ms": duration_ms,
            "cat": category,
        }
        if args:
            record["args"] = args
        record["id"] = span_id
        self._write(record)

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "type": "instant",
            "name": name,
            "track": track,
            "ts_ms": ts_ms,
            "cat": category,
        }
        if args:
            record["args"] = args
        self._write(record)

    def counter(self, name: str, track: str, ts_ms: float, value: float) -> None:
        self._write(
            {
                "type": "counter",
                "name": name,
                "track": track,
                "ts_ms": ts_ms,
                "cat": "counter",
                "value": float(value),
            }
        )

    @contextmanager
    def span(
        self,
        name: str,
        track: str = "offline",
        category: str = "offline",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        start = self._now_ms()
        span_id = self._next_id
        self._next_id += 1
        stack = self._open.setdefault(track, [])
        parent = stack[-1] if stack else None
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            record: Dict[str, Any] = {
                "type": "span",
                "name": name,
                "track": track,
                "ts_ms": start,
                "dur_ms": self._now_ms() - start,
                "cat": category,
            }
            # ``args`` is captured by reference at exit, like
            # RecordingTracer: a dict mutated inside the with-block
            # records its final contents (the cache get/put outcome
            # pattern).
            if args:
                record["args"] = args
            if parent is not None:
                record["parent"] = parent
            record["id"] = span_id
            self._write(record)

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Push buffered records to disk (call after every pool task)."""
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the shard file; further records raise."""
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


@dataclass
class WorkerObs:
    """The per-worker observability bundle installed by the initializer."""

    tracer: ShardTracer
    registry: MetricsRegistry
    run_dir: Path
    metrics_path: Path
    #: Forwarding-tracer tap around ``tracer``; pool tasks attach this so
    #: the worker accumulates a live attribution view across its cells.
    attributor: Optional[Any] = None

    def flush(self) -> None:
        """Persist the shard tail and fresh registry/attribution snapshots.

        Called at the end of every pool task (and again at interpreter
        exit as a backstop), so the on-disk state is always the state
        after the worker's most recent completed task — this is the
        ``ramsis top`` feed for in-flight parallel sweeps.
        """
        self.tracer.flush()
        self.metrics_path.write_text(
            json.dumps(
                self.registry.to_json_dict(),
                sort_keys=True,
                default=_json_default,
            )
        )
        if (
            self.attributor is not None
            and self.attributor.to_json_dict()["totals"]["queries"]
        ):
            write_live_snapshot(
                self.run_dir,
                attributor=self.attributor,
                pid=self.tracer.pid,
            )


_WORKER_OBS: Optional[WorkerObs] = None


def init_worker_obs(run_dir: str) -> None:
    """Process-pool initializer: install shard tracer + registry.

    Runs once per worker process.  The shard and metrics filenames embed
    the worker pid, so concurrent workers never collide; the merge
    assigns stable worker indices by sorting pids.
    """
    from repro.obs.attribution import LatencyAttributor

    global _WORKER_OBS
    directory = Path(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    tracer = ShardTracer(directory / f"shard-{pid}.jsonl", pid=pid)
    obs = WorkerObs(
        tracer=tracer,
        registry=MetricsRegistry(),
        run_dir=directory,
        metrics_path=directory / f"metrics-{pid}.json",
        attributor=LatencyAttributor(inner=tracer),
    )
    _WORKER_OBS = obs
    atexit.register(obs.flush)


def worker_obs() -> Optional[WorkerObs]:
    """This process's worker bundle, or ``None`` outside an initialized pool."""
    return _WORKER_OBS


def new_run_dir(prefix: str = "ramsis-run-") -> Path:
    """A fresh private directory for one parallel run's shards."""
    return Path(tempfile.mkdtemp(prefix=prefix))


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardInfo:
    """Provenance of one worker shard after a merge."""

    path: Path
    pid: int
    worker_index: int
    anchor_unix_ms: float
    records: int


@dataclass
class MergedRun:
    """The result of folding a run directory back into one timeline."""

    tracer: RecordingTracer
    registry: MetricsRegistry
    shards: List[ShardInfo] = field(default_factory=list)

    @property
    def records(self) -> int:
        """Total merged records across all shards."""
        return sum(s.records for s in self.shards)


def _shard_pid(path: Path) -> int:
    match = _SHARD_RE.search(path.name)
    return int(match.group(1)) if match else 0


def merge_run_dir(
    run_dir: Union[str, Path],
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MergedRun:
    """Fold every shard under ``run_dir`` into one tracer + registry.

    Records are replayed in ``(seq, worker, n)`` order — i.e. serial cell
    order — with worker tracks renamed ``w<idx>/<track>`` and offline
    (wall-clock) timestamps re-anchored against the earliest shard/parent
    anchor.  When ``tracer``/``registry`` are given, records and metrics
    merge *into* them (the parent's sweep-level records stay in place);
    otherwise fresh ones are created.  The returned
    :class:`MergedRun.tracer` is always a :class:`RecordingTracer` usable
    with the exporters.
    """
    directory = Path(run_dir)
    shard_paths = sorted(
        (p for p in directory.glob("shard-*.jsonl") if _SHARD_RE.search(p.name)),
        key=_shard_pid,
    )

    if isinstance(tracer, RecordingTracer):
        recorder: RecordingTracer = tracer
        extra_sink: Optional[Tracer] = None
    else:
        recorder = RecordingTracer()
        extra_sink = tracer if (tracer is not None and tracer.enabled) else None
    out_registry = registry if registry is not None else MetricsRegistry()

    keyed: List[Tuple[int, int, int, Dict[str, Any]]] = []
    shards: List[ShardInfo] = []
    pid_to_index: Dict[int, int] = {}
    anchors: List[float] = []
    parent_anchor = getattr(tracer, "anchor_unix_ms", None)
    if parent_anchor is not None:
        anchors.append(float(parent_anchor))

    for widx, path in enumerate(shard_paths):
        pid = _shard_pid(path)
        pid_to_index[pid] = widx
        anchor = 0.0
        count = 0
        for record in _iter_jsonl(
            path,
            "obs.aggregate",
            "skipping unparseable shard record (worker crashed mid-write?)",
        ):
            if record.get("type") == "shard_header":
                anchor = float(record.get("anchor_unix_ms", 0.0))
                continue
            count += 1
            keyed.append(
                (int(record.get("seq", 0)), widx, int(record.get("n", 0)), record)
            )
        anchors.append(anchor)
        shards.append(
            ShardInfo(
                path=path,
                pid=pid,
                worker_index=widx,
                anchor_unix_ms=anchor,
                records=count,
            )
        )

    base_anchor = min(anchors) if anchors else 0.0
    offsets = {
        s.worker_index: max(0.0, s.anchor_unix_ms - base_anchor) for s in shards
    }

    keyed.sort(key=lambda item: item[:3])
    for seq, widx, _n, record in keyed:
        kind = record.get("type")
        name = record.get("name", "")
        track = "w{}/{}".format(widx, record.get("track", "offline"))
        category = record.get("cat", "sim")
        ts_ms = float(record.get("ts_ms", 0.0))
        if category == "offline":
            ts_ms += offsets.get(widx, 0.0)
        args = record.get("args")
        if kind == "span":
            dur = float(record.get("dur_ms", 0.0))
            recorder.complete(name, track, ts_ms, dur, category, args)
            if extra_sink is not None:
                extra_sink.complete(name, track, ts_ms, dur, category, args)
        elif kind == "instant":
            recorder.instant(name, track, ts_ms, category, args)
            if extra_sink is not None:
                extra_sink.instant(name, track, ts_ms, category, args)
        elif kind == "counter":
            value = float(record.get("value", 0.0))
            recorder.counter(name, track, ts_ms, value)
            if extra_sink is not None:
                extra_sink.counter(name, track, ts_ms, value)

    metrics_paths = sorted(
        (p for p in directory.glob("metrics-*.json") if _METRICS_RE.search(p.name)),
        key=lambda p: int(_METRICS_RE.search(p.name).group(1)),
    )
    next_index = len(shards)
    for path in metrics_paths:
        pid = int(_METRICS_RE.search(path.name).group(1))
        widx = pid_to_index.get(pid)
        if widx is None:
            widx = next_index
            next_index += 1
        data = json.loads(path.read_text())
        out_registry.merge_json_dict(data, extra_labels={"worker": str(widx)})

    return MergedRun(tracer=recorder, registry=out_registry, shards=shards)


def write_merged_artifacts(
    merged: MergedRun, out_dir: Union[str, Path]
) -> Dict[str, Path]:
    """Write the merged run's exportable artifacts under ``out_dir``.

    Produces ``merged.jsonl`` (reconstruction input), ``trace.json``
    (Chrome/Perfetto, one process group per worker), ``metrics.prom``,
    ``metrics.json`` (the re-mergeable registry snapshot), and
    ``attribution.json`` — the tail-latency attribution tables folded
    from the merged tracer, whose ``(seq, worker, n)`` replay order is
    serial cell order, so the tables equal a serially attached
    attributor's exactly (see :mod:`repro.obs.attribution`).  Returns
    the artifact paths by name.
    """
    from repro.obs import exporters
    from repro.obs.attribution import attribution_from_tracer

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "events": exporters.write_events_jsonl(
            merged.tracer, directory / "merged.jsonl"
        ),
        "chrome": exporters.write_chrome_trace(
            merged.tracer, directory / "trace.json", split_processes=True
        ),
        "prometheus": exporters.write_prometheus_text(
            merged.registry, directory / "metrics.prom"
        ),
    }
    metrics_json = directory / "metrics.json"
    metrics_json.write_text(
        json.dumps(
            merged.registry.to_json_dict(), sort_keys=True, default=_json_default
        )
    )
    paths["metrics"] = metrics_json
    # Only written when the trace carries the lifecycle schema the
    # attributor understands — older shards fold to zero queries.
    snapshot = attribution_from_tracer(merged.tracer).to_json_dict()
    if snapshot["totals"]["queries"]:
        attribution_json = directory / "attribution.json"
        attribution_json.write_text(
            json.dumps(snapshot, sort_keys=True, default=_json_default)
        )
        paths["attribution"] = attribution_json
    return paths


def write_live_snapshot(
    run_dir: Union[str, Path],
    registry: Optional[MetricsRegistry] = None,
    attributor: Optional[Any] = None,
    pid: Optional[int] = None,
) -> List[Path]:
    """Atomically publish ``metrics-<pid>.json`` / ``attribution-<pid>.json``.

    The periodic snapshot feed for ``ramsis top``: the sharded runtime
    (and anything else that wants a live view) calls this on a timer;
    sweep workers get the metrics half for free from
    :meth:`WorkerObs.flush`.  Writes go through a temp file + ``rename``
    so a concurrently polling reader never sees a torn snapshot.
    """
    directory = Path(run_dir)
    directory.mkdir(parents=True, exist_ok=True)
    pid = os.getpid() if pid is None else pid
    written: List[Path] = []
    payloads = []
    if registry is not None:
        payloads.append((f"metrics-{pid}.json", registry.to_json_dict()))
    if attributor is not None:
        payloads.append((f"attribution-{pid}.json", attributor.to_json_dict()))
    for name, payload in payloads:
        target = directory / name
        tmp = directory / f".{name}.tmp"
        tmp.write_text(
            json.dumps(payload, sort_keys=True, default=_json_default)
        )
        tmp.replace(target)
        written.append(target)
    return written
