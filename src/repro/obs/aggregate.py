"""Cross-process trace shipping and aggregation.

Process-pool workers (the fan-out of
:func:`repro.experiments.sweep.run_sweep`) cannot share the parent's
:class:`~repro.obs.trace.RecordingTracer` or
:class:`~repro.obs.metrics.MetricsRegistry` — records would have to
cross a pickle boundary on every event.  Instead each writer -- a sweep
cell, or a shard of the sharded runtime -- gets a :class:`ShardTracer`
(the same recorder, whose rows go to a file) plus its own registry, and
writes *feeds* under a per-run directory, numbered by its ``pid``: the
cell index of a sweep cell, the global worker id of a shard::

    <run_dir>/shard-<pid>.cols      the writer's event table, in blocks
    <run_dir>/metrics-<pid>.json    the writer's registry, serialized

A feed holds the rows a :class:`~repro.obs.trace.RecordingTracer`
records, in the columnar event table of :mod:`repro.obs.columns`: every
:meth:`ShardTracer.flush` appends the rows recorded since the last one
as one block, whose header carries the writer's pid, the wall-clock anchor
and the served SLO (when the writer knows it).  After the pool drains,
:func:`merge_run_dir` loads every feed back into one table and one
registry (and replays the table into the caller's tracer, if any; the
merged table never holds the caller's own records):

- rows are ordered in **cell order** — each row carries the cell
  sequence number (``seq``, stamped via :meth:`ShardTracer.set_sequence`)
  and a per-feed emission counter (``n``), and the merge stable-sorts by
  ``(seq, worker, n)``, so a parallel run folds to byte-identical
  aggregates as the serial run (``reconstruct_metrics`` equality is the
  test suite's oracle);
- worker tracks are renamed ``w<idx>/<track>`` so exporters can group
  one track set per worker process (see ``split_processes`` in
  :func:`repro.obs.exporters.chrome_trace`);
- wall-clock (``category == "offline"``) timestamps are re-anchored:
  every feed header records the Unix time paired with the worker's
  ``perf_counter`` epoch, and the merge shifts each feed's offline rows
  by its anchor delta against the earliest anchor, making cross-process
  timings comparable and non-negative.  Simulation-time records already
  share a timeline and are never shifted;
- registries merge with counter **sums**, histogram **combines**, and
  gauges republished under a per-worker ``worker=<idx>`` label (gauges
  are last-write-wins, so merging them unlabelled would lose data).

:func:`write_merged_artifacts` then writes ``merged.cols`` (the merged
table), ``metrics.json``, ``metrics.prom`` and ``attribution.json``;
:func:`export_run_dir` (``ramsis report --export``) turns ``merged.cols``
into the ``merged.jsonl`` event log and the Perfetto ``trace.json`` on
demand.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.columns import EventTable, encode_block, json_default, write_table
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer, Tracer

__all__ = [
    "ShardTracer",
    "new_run_dir",
    "ShardInfo",
    "MergedRun",
    "merge_run_dir",
    "write_merged_artifacts",
    "export_run_dir",
    "write_live_snapshot",
]

_SHARD_RE = re.compile(r"shard-(\d+)\.cols$")
_METRICS_RE = re.compile(r"metrics-(\d+)\.json$")

#: Warning logged when a feed ends in a torn or refused block.
TORN_FEED = "skipping unparseable shard block (worker crashed mid-write?)"
#: A feed flushes on its own once this many rows are buffered.
BLOCK_ROWS = 1 << 16


class ShardTracer(RecordingTracer):
    """A :class:`~repro.obs.trace.RecordingTracer` whose rows go to a feed
    file: the columnar tracer of one sweep cell or one runtime shard.

    Every :meth:`flush` -- or every ``BLOCK_ROWS`` rows -- appends the
    rows recorded since the last one to the feed as one block of typed
    columns and drops them, so a long worker's trace stays bounded in the
    process heap (:attr:`table` holds the unflushed rows only).  Each
    block header carries the writer's ``pid``, the wall-clock anchor and
    ``slo_ms``, so the merged attribution tables of a served run carry
    the SLO.  The rows' sequence numbers (the cell index, set by the pool
    task via :meth:`set_sequence`) and per-feed counters are what let
    the parent merge feeds back into serial cell order.  A runtime
    shard's rows arrive as ready batches
    (:meth:`~repro.obs.trace.RecordingTracer.record_batch`), split into
    blocks at the same rows as rows recorded one by one, so a feed
    decodes the same either way.
    """

    def __init__(
        self,
        path: Union[str, Path],
        pid: Optional[int] = None,
        slo_ms: Optional[float] = None,
    ) -> None:
        super().__init__()
        self._path = Path(path)
        self.pid = os.getpid() if pid is None else pid
        self.slo_ms = None if slo_ms is None else float(slo_ms)
        self._blocks = 0
        self._flush_at = BLOCK_ROWS - 1
        self._fh = self._path.open("wb")

    @property
    def path(self) -> Path:
        """The feed file this tracer appends to."""
        return self._path

    def flush(self) -> None:
        """Append the rows since the last flush as one block (call after
        every pool task).  The first flush writes a block even when
        empty, so every feed carries its header."""
        if self._fh.closed:
            raise ValueError(f"shard feed {self._path} is closed")
        table = self.table
        if len(table) or not self._blocks:
            self._fh.write(
                encode_block(
                    table,
                    pid=self.pid,
                    anchor_unix_ms=self.anchor_unix_ms,
                    slo_ms=self.slo_ms,
                )
            )
            self._blocks += 1
        self._table = None
        self._flush_at = self._n + BLOCK_ROWS - 1
        self._fh.flush()

    def close(self) -> None:
        """Flush and close the feed file."""
        if not self._fh.closed:
            self.flush()
            self._fh.close()


def new_run_dir() -> Path:
    """A fresh private directory for one parallel run's feeds."""
    return Path(tempfile.mkdtemp(prefix="ramsis-run-"))


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardInfo:
    """Provenance of one worker feed after a merge."""

    path: Path
    pid: int
    worker_index: int
    anchor_unix_ms: float
    records: int
    #: The SLO the feed's writer served (``None`` when it did not say).
    slo_ms: Optional[float] = None


class MergedRun:
    """The result of folding a run directory back into one timeline: the
    merged :class:`~repro.obs.columns.EventTable` (``table``, the folds'
    input), the merged ``registry``, each feed's provenance (``shards``)
    and ``slo_ms``, the SLO every feed header agreed on (else ``None``).
    """

    def __init__(
        self,
        table: Optional[EventTable] = None,
        registry: Optional[MetricsRegistry] = None,
        shards: Iterable[ShardInfo] = (),
        slo_ms: Optional[float] = None,
    ) -> None:
        self.table = table if table is not None else EventTable.empty()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shards: List[ShardInfo] = list(shards)
        self.slo_ms = slo_ms

    @property
    def tracer(self) -> RecordingTracer:
        """A new recorder over :attr:`table` (what the exporters read)."""
        return RecordingTracer.from_table(self.table)

    @property
    def records(self) -> int:
        """Total merged records across all feeds."""
        return sum(s.records for s in self.shards)


def _shard_pid(path: Path) -> int:
    match = _SHARD_RE.search(path.name)
    return int(match.group(1)) if match else 0


def merge_run_dir(
    run_dir: Union[str, Path],
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MergedRun:
    """Fold every feed under ``run_dir`` into one table + registry.

    Rows are ordered ``(seq, worker, n)`` — i.e. serial cell order — with
    worker tracks renamed ``w<idx>/<track>`` and offline (wall-clock)
    timestamps re-anchored against the earliest feed/parent anchor.  The
    returned :attr:`MergedRun.table` holds exactly the merged feeds; an
    enabled ``tracer`` also gets them replayed into it, in that order,
    after its own records.  ``registry`` merges metrics in place;
    otherwise a fresh one is created.
    """
    directory = Path(run_dir)
    feed_paths = sorted(
        (p for p in directory.glob("shard-*.cols") if _SHARD_RE.search(p.name)),
        key=_shard_pid,
    )
    out_registry = registry if registry is not None else MetricsRegistry()

    tables: List[EventTable] = []
    shards: List[ShardInfo] = []
    pid_to_index: Dict[int, int] = {}
    anchors: List[float] = []
    parent_anchor = getattr(tracer, "anchor_unix_ms", None)
    if parent_anchor is not None:
        anchors.append(float(parent_anchor))

    for widx, path in enumerate(feed_paths):
        pid = _shard_pid(path)
        pid_to_index[pid] = widx
        table, header = EventTable.load(path, "obs.aggregate", TORN_FEED)
        anchor = float(header.get("anchor_unix_ms", 0.0))
        slo = header.get("slo_ms")
        anchors.append(anchor)
        tables.append(table)
        shards.append(
            ShardInfo(
                path=path,
                pid=pid,
                worker_index=widx,
                anchor_unix_ms=anchor,
                records=len(table),
                slo_ms=None if slo is None else float(slo),
            )
        )

    base_anchor = min(anchors) if anchors else 0.0
    table = EventTable.merge(
        [
            (t, f"w{s.worker_index}/", max(0.0, s.anchor_unix_ms - base_anchor))
            for t, s in zip(tables, shards)
        ]
    )
    slos = {s.slo_ms for s in shards}
    slo_ms = slos.pop() if len(slos) == 1 else None

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

    if tracer is not None and tracer.enabled:
        table.replay(tracer)
    return MergedRun(table, out_registry, shards, slo_ms)


def write_merged_artifacts(
    merged: MergedRun, out_dir: Union[str, Path]
) -> Dict[str, Path]:
    """Write the merged run's artifacts under ``out_dir``.

    Produces ``merged.cols`` (the merged event table, which ``ramsis
    report`` and ``ramsis explain`` fold and ``ramsis report --export``
    turns into ``merged.jsonl`` / ``trace.json``), ``metrics.prom``,
    ``metrics.json`` (the re-mergeable registry snapshot), and
    ``attribution.json`` — the tail-latency attribution tables folded
    from the merged table at the feeds' SLO, whose ``(seq, worker, n)``
    order is serial cell order, so the tables equal a serially attached
    attributor's exactly (see :mod:`repro.obs.attribution`).  Returns
    the artifact paths by name.
    """
    from repro.obs import exporters
    from repro.obs.attribution import attribution_from_table

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    table = merged.table
    paths = {
        "table": write_table(directory / "merged.cols", table, slo_ms=merged.slo_ms),
        "prometheus": exporters.write_prometheus_text(
            merged.registry, directory / "metrics.prom"
        ),
    }
    metrics_json = directory / "metrics.json"
    metrics_json.write_text(
        json.dumps(
            merged.registry.to_json_dict(), sort_keys=True, default=json_default
        )
    )
    paths["metrics"] = metrics_json
    # Only written when the trace carries the lifecycle schema the
    # attributor understands — older feeds fold to zero queries.
    snapshot = attribution_from_table(table, slo_ms=merged.slo_ms).to_json_dict()
    if snapshot["totals"]["queries"]:
        attribution_json = directory / "attribution.json"
        attribution_json.write_text(
            json.dumps(snapshot, sort_keys=True, default=json_default)
        )
        paths["attribution"] = attribution_json
    return paths


def export_run_dir(run_dir: Union[str, Path]) -> List[Path]:
    """Write ``merged.jsonl`` and ``trace.json`` beside a run directory's
    ``merged.cols`` (``ramsis report --export``).

    Both are built by :func:`~repro.obs.exporters.events_jsonl` and
    :func:`~repro.obs.exporters.chrome_trace` (one process group per
    worker) from a recorder over the table.  Returns the written paths,
    none when the directory holds no merged table.
    """
    from repro.obs import exporters

    directory = Path(run_dir)
    path = directory / "merged.cols"
    if not path.is_file():
        return []
    tracer = RecordingTracer.from_table(EventTable.load(path)[0])
    return [
        exporters.write_events_jsonl(tracer, directory / "merged.jsonl"),
        exporters.write_chrome_trace(
            tracer, directory / "trace.json", split_processes=True
        ),
    ]


def write_live_snapshot(
    run_dir: Union[str, Path],
    registry: Optional[MetricsRegistry] = None,
    attributor: Optional[Any] = None,
    pid: Optional[int] = None,
) -> List[Path]:
    """Atomically publish ``metrics-<pid>.json`` / ``attribution-<pid>.json``.

    The periodic snapshot feed for ``ramsis top``: the sharded runtime
    (and anything else that wants a live view) calls this on a timer, and
    a parallel sweep's pool task at the end of each cell.  Writes go
    through a temp file + ``rename`` so a concurrently polling reader
    never sees a torn snapshot.
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
            json.dumps(payload, sort_keys=True, default=json_default)
        )
        tmp.replace(target)
        written.append(target)
    return written
