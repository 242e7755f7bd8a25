"""Run reports and benchmark history tracking.

Two consumers of on-disk observability artifacts:

- **Run reports** (:func:`render_run_report`, ``ramsis report
  --run-dir``): fold one run directory — worker feeds and merged
  artifacts from :mod:`repro.obs.aggregate`, plus an ``audit.json`` from
  the live guarantee auditor when present — into a single text or HTML
  summary: feed inventory, reconstructed lifecycle aggregates, metric
  highlights, audit verdicts.  The merged table (``merged.cols``) is
  read once and folded for the summary, the phase hotspots and, when no
  ``attribution.json`` was written, the attribution tables.

- **Bench history** (:func:`append_bench_history` /
  :func:`check_bench_history`, ``ramsis bench-history``): append every
  ``benchmarks/out/*.json`` result as one line of
  ``benchmarks/out/history.jsonl``, then compare each benchmark's latest
  entry against its best recent one.  Directionality is inferred from the
  metric-key suffix (``*_s``/``*_ms``/``*_seconds``/``*_bytes``/
  ``*vs_off`` are lower-is-better; ``*_qps``/``*speedup*``/
  ``*throughput*`` are higher-is-better; anything else is informational
  and never flagged), and a change worse than the tolerance fraction is
  a regression — the CI gate that turns one-off bench numbers into a
  tracked series.
"""

from __future__ import annotations

import html
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.obs.reconstruct import TORN_RECORD, TraceSummary, summarize

__all__ = [
    "render_run_report",
    "write_run_report",
    "render_top_frame",
    "append_bench_history",
    "check_bench_history",
    "Regression",
]

#: Metric-key suffixes where smaller is better (runtimes, footprints).
LOWER_IS_BETTER_SUFFIXES: Tuple[str, ...] = (
    "_s",
    "_ms",
    "_seconds",
    "_bytes",
    "vs_off",
)
#: Metric-key markers where larger is better (rates of useful work).
HIGHER_IS_BETTER_MARKERS: Tuple[str, ...] = ("_qps", "speedup", "throughput")
#: Previous entries of a ``(bench, scale)`` series whose best value each
#: metric's latest entry is judged against, so a slow drift of small
#: per-entry losses still trips the tolerance.
BENCH_HISTORY_WINDOW = 5


# ----------------------------------------------------------------------
# Run reports
# ----------------------------------------------------------------------
def _summary_rows(summary: TraceSummary) -> List[Tuple[str, str]]:
    return [
        ("arrivals", str(summary.arrivals)),
        ("completed queries", str(summary.total_queries)),
        ("satisfied queries", str(summary.satisfied_queries)),
        ("violation rate", f"{summary.violation_rate * 100:.3f}%"),
        (
            "accuracy (satisfied)",
            f"{summary.accuracy_per_satisfied_query * 100:.2f}%",
        ),
        ("MS&S decisions", str(summary.decisions)),
        ("mean batch size", f"{summary.mean_batch_size:.3f}"),
    ]


def _metric_rows(metrics_json: Path) -> List[Tuple[str, str]]:
    data = json.loads(metrics_json.read_text())
    rows: List[Tuple[str, str]] = []
    for entry in data.get("metrics", []):
        labels = ",".join(f"{k}={v}" for k, v in entry.get("labels", []))
        label = entry["name"] + (f"{{{labels}}}" if labels else "")
        state = entry.get("state", {})
        kind = entry.get("kind")
        if kind == "counter":
            rows.append((label, f"{state.get('value', 0.0):g}"))
        elif kind == "gauge":
            value = state.get("value")
            series = state.get("series", [])
            shown = "-" if value is None else f"{value:g}"
            rows.append((label, f"{shown} ({len(series)} samples)"))
        elif kind == "histogram":
            count = state.get("count", 0)
            total = state.get("sum", 0.0)
            mean = total / count if count else 0.0
            rows.append((label, f"count={count} mean={mean:.3f}"))
    return rows


def _audit_rows(audit_json: Path) -> List[Tuple[str, str]]:
    data = json.loads(audit_json.read_text())
    rows: List[Tuple[str, str]] = []
    for key in ("ok", "windows", "breaches", "alerts"):
        if key in data:
            value = data[key]
            rows.append((key, str(len(value) if isinstance(value, list) else value)))
    if not rows:
        rows.append(("keys", ", ".join(sorted(data)[:8])))
    return rows


def _attribution_json(run_dir: Path) -> Optional[Dict[str, Any]]:
    """The run's merged attribution snapshot, when one was written."""
    direct = run_dir / "attribution.json"
    if direct.is_file():
        return json.loads(direct.read_text())
    batches = sorted(run_dir.glob("batch-*/attribution.json"))
    if batches:
        return json.loads(batches[-1].read_text())
    return None


def _attribution_rows(snap: Dict[str, Any]) -> List[Tuple[str, str]]:
    rows: List[Tuple[str, str]] = []
    for r in snap.get("rows", []):
        n = max(r["queries"], 1)
        rows.append(
            (
                f"{r['model']} @ worker {r['worker']}",
                "{} queries, wait {:.2f} ms, service {:.2f} ms, "
                "blame/q {:.2f} ms, {} violations, {} drops".format(
                    r["queries"],
                    r["queue_wait_ms"] / n,
                    r["service_ms"] / n,
                    r.get("blame_per_query_ms", 0.0),
                    r["violations"],
                    r["dropped"],
                ),
            )
        )
    totals = snap.get("totals", {})
    if totals:
        rows.append(
            (
                "totals",
                "{} queries, {} violations, {} drops, blame {:.1f} ms".format(
                    totals.get("queries", 0),
                    totals.get("violations", 0),
                    totals.get("dropped", 0),
                    totals.get("blame_ms", 0.0),
                ),
            )
        )
    for w in snap.get("burn", {}).get("windows", []):
        rows.append(
            (
                f"burn window {w['size']}",
                "rate {:.4f}, burn {:.3f}, alerts {}".format(
                    w["rate"], w["burn"], w["alerts"]
                ),
            )
        )
    chains = snap.get("exemplars", {}).get("chains", [])
    if chains:
        rows.append(("tail exemplars", f"{len(chains)} retained"))
    return rows


def _hotspot_rows(stats: List[Any], n: int = 10) -> List[Tuple[str, str]]:
    return [
        (
            ";".join(stat.path),
            "self {:.3f} ms / total {:.3f} ms over {} spans".format(
                stat.self_ms, stat.total_ms, stat.count
            ),
        )
        for stat in stats[:n]
    ]


def _gather_sections(
    run_dir: Path,
) -> Tuple[List[Tuple[str, List[Tuple[str, str]]]], List[Any]]:
    """The report sections, plus the merged trace's phase stats."""
    from repro.obs.aggregate import merged_tables
    from repro.obs.columns import EventTable, block_rows

    sections: List[Tuple[str, List[Tuple[str, str]]]] = []

    shard_rows: List[Tuple[str, str]] = []
    for path in sorted(run_dir.glob("shard-*.cols")) + sorted(
        run_dir.glob("batch-*/shard-*.cols")
    ):
        shard_rows.append(
            (str(path.relative_to(run_dir)), f"{block_rows(path)} records")
        )
    if shard_rows:
        sections.append(("worker shards", shard_rows))

    attribution = _attribution_json(run_dir)
    stats: List[Any] = []
    merged = merged_tables(run_dir)
    if merged:
        from repro.obs.profile import stats_from_table

        # The latest table: the run's own, else its last batch's.
        path = merged[0] if merged[0].parent == run_dir else merged[-1]
        table, header = EventTable.load(path, "obs.reconstruct", TORN_RECORD)
        if attribution is None:
            # No attribution.json (e.g. the sweep ran with no attributor
            # attached): fold one from the same table.
            from repro.obs.attribution import attribution_from_table

            snap = attribution_from_table(
                table, slo_ms=header.get("slo_ms")
            ).to_json_dict()
            attribution = snap if snap["totals"]["queries"] else None
        stats = stats_from_table(table)
        sections.append(
            (
                f"reconstructed from {path.relative_to(run_dir)}",
                _summary_rows(summarize(table)),
            )
        )

    metrics_json = run_dir / "metrics.json"
    if metrics_json.is_file():
        sections.append(("merged metrics", _metric_rows(metrics_json)))

    audit_json = run_dir / "audit.json"
    if audit_json.is_file():
        sections.append(("guarantee audit", _audit_rows(audit_json)))

    if attribution is not None:
        sections.append(("latency attribution", _attribution_rows(attribution)))

    hotspot_rows = _hotspot_rows(stats)
    if hotspot_rows:
        sections.append(("phase hotspots (self-time)", hotspot_rows))

    artifact_rows = [
        (name, f"{(run_dir / name).stat().st_size} bytes")
        for name in (
            "merged.cols",
            "merged.jsonl",
            "trace.json",
            "metrics.prom",
            "metrics.json",
            "attribution.json",
            "profile.folded",
        )
        if (run_dir / name).is_file()
    ]
    if artifact_rows:
        sections.append(("merged artifacts", artifact_rows))
    return sections, stats


def render_run_report(run_dir: Union[str, Path], fmt: str = "text") -> str:
    """One summary (text or HTML) of a run directory's artifacts."""
    return _render_run_report(Path(run_dir), fmt)[0]


def _render_run_report(directory: Path, fmt: str) -> Tuple[str, List[Any]]:
    """The rendered report and the phase stats it was built from."""
    if not directory.is_dir():
        raise FileNotFoundError(f"run directory not found: {directory}")
    sections, stats = _gather_sections(directory)
    title = f"ramsis run report — {directory}"
    if fmt == "text":
        lines = [title, "=" * len(title)]
        if not sections:
            lines.append("(no observability artifacts found)")
        for heading, rows in sections:
            lines.append("")
            lines.append(heading)
            lines.append("-" * len(heading))
            width = max((len(k) for k, _ in rows), default=0)
            for key, value in rows:
                lines.append(f"  {key.ljust(width)}  {value}")
        return "\n".join(lines) + "\n", stats
    if fmt == "html":
        parts = [
            "<!doctype html>",
            "<html><head><meta charset='utf-8'>",
            f"<title>{html.escape(title)}</title>",
            "<style>body{font-family:monospace;margin:2em}"
            "table{border-collapse:collapse;margin-bottom:1.5em}"
            "td,th{border:1px solid #999;padding:2px 8px;text-align:left}"
            "</style></head><body>",
            f"<h1>{html.escape(title)}</h1>",
        ]
        if not sections:
            parts.append("<p>(no observability artifacts found)</p>")
        for heading, rows in sections:
            parts.append(f"<h2>{html.escape(heading)}</h2>")
            parts.append("<table>")
            for key, value in rows:
                parts.append(
                    f"<tr><td>{html.escape(key)}</td>"
                    f"<td>{html.escape(value)}</td></tr>"
                )
            parts.append("</table>")
        parts.append("</body></html>")
        return "\n".join(parts) + "\n", stats
    raise ValueError(f"unknown report format {fmt!r} (expected 'text' or 'html')")


def write_run_report(
    run_dir: Union[str, Path],
    out_path: Optional[Union[str, Path]] = None,
    fmt: str = "text",
) -> Path:
    """Render the run report and write it under (or at) ``out_path``.

    Alongside the report, the merged trace's phase self-times are written
    as ``profile.folded`` in the run directory (flamegraph-folded lines,
    directly consumable by ``flamegraph.pl``/speedscope) whenever the run
    recorded any spans.  ``merged.cols`` is read once for both.
    """
    directory = Path(run_dir)
    if out_path is None:
        out_path = directory / ("report.html" if fmt == "html" else "report.txt")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    rendered, stats = _render_run_report(directory, fmt)
    out_path.write_text(rendered)
    if stats:
        from repro.obs.profile import folded_lines

        lines = folded_lines(stats)
        if lines:
            (directory / "profile.folded").write_text("\n".join(lines) + "\n")
    return out_path


# ----------------------------------------------------------------------
# Live view (``ramsis top``)
# ----------------------------------------------------------------------
def _live_attribution(run_dir: Path) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Freshest attribution snapshot by mtime.

    While a run is in flight the per-pid live feeds are newest; once the
    pool drains, the merged ``attribution.json`` (written last, global
    rather than one worker's view) takes over.
    """
    candidates = list(run_dir.glob("attribution-*.json"))
    merged = run_dir / "attribution.json"
    if merged.is_file():
        candidates.append(merged)
    for path in sorted(
        candidates, key=lambda p: p.stat().st_mtime, reverse=True
    ):
        try:
            return path.name, json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            continue
    return None


def render_top_frame(run_dir: Union[str, Path], limit: int = 12) -> str:
    """One ``ramsis top`` frame: the run directory's freshest state.

    Reads the periodic live snapshots (``metrics-<pid>.json`` /
    ``attribution-<pid>.json``, written by the sharded runtime's
    snapshot thread and by ``run_sweep`` pool workers) plus any merged
    artifacts, and renders a single text frame.  Pure read — safe to
    call while the run is still writing (snapshots are atomic renames).
    """
    directory = Path(run_dir)
    if not directory.is_dir():
        raise FileNotFoundError(f"run directory not found: {directory}")
    feeds = sorted(directory.glob("metrics*.json")) + sorted(
        directory.glob("attribution*.json")
    )
    title = f"ramsis top — {directory}"
    lines = [title, "=" * len(title)]
    if feeds:
        newest = max(feeds, key=lambda p: p.stat().st_mtime)
        age = max(0.0, time.time() - newest.stat().st_mtime)
        lines.append(f"feeds: {len(feeds)} files, freshest {age:.1f}s ago")
    else:
        lines.append("(no metrics/attribution feeds yet)")

    live = _live_attribution(directory)
    if live is not None:
        source, snap = live
        lines.append("")
        lines.append(f"latency attribution [{source}]")
        rows = _attribution_rows(snap)
        width = max((len(k) for k, _ in rows), default=0)
        for key, value in rows[: limit + 6]:
            lines.append(f"  {key.ljust(width)}  {value}")

    for path in sorted(directory.glob("metrics-*.json")) or sorted(
        directory.glob("metrics.json")
    ):
        try:
            rows = _metric_rows(path)
        except (json.JSONDecodeError, OSError):
            continue
        lines.append("")
        lines.append(path.name)
        width = max((len(k) for k, _ in rows[:limit]), default=0)
        for key, value in rows[:limit]:
            lines.append(f"  {key.ljust(width)}  {value}")
        if len(rows) > limit:
            lines.append(f"  ... {len(rows) - limit} more metrics")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Bench history
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Regression:
    """One tracked benchmark metric that got worse beyond tolerance."""

    bench: str
    key: str
    #: The best value among the previous entries compared against.
    previous: float
    latest: float
    #: "lower" or "higher" — which direction is better for this key.
    better: str

    @property
    def change(self) -> float:
        """Fractional change from previous to latest (signed)."""
        if self.previous == 0:
            return math.inf
        return (self.latest - self.previous) / abs(self.previous)

    def describe(self) -> str:
        """Human-readable one-liner for CLI/CI output."""
        return (
            f"{self.bench}:{self.key} {self.previous:g} -> {self.latest:g} "
            f"({self.change * 100:+.1f}%, {self.better} is better)"
        )


def _flatten(data: Any, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a nested JSON value, dot-keyed; bools excluded."""
    out: Dict[str, float] = {}
    if isinstance(data, dict):
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(_flatten(value, path))
    elif isinstance(data, (int, float)) and not isinstance(data, bool):
        value = float(data)
        if math.isfinite(value):
            out[prefix] = value
    return out


def metric_direction(key: str) -> Optional[str]:
    """"lower"/"higher" when ``key`` is a tracked metric, else ``None``."""
    leaf = key.rsplit(".", 1)[-1]
    for marker in HIGHER_IS_BETTER_MARKERS:
        if marker in leaf:
            return "higher"
    for suffix in LOWER_IS_BETTER_SUFFIXES:
        if leaf.endswith(suffix):
            return "lower"
    return None


def append_bench_history(
    out_dir: Union[str, Path],
    history_path: Optional[Union[str, Path]] = None,
    timestamp: Optional[float] = None,
) -> List[Dict[str, Any]]:
    """Append every ``<out_dir>/*.json`` bench result to the history log.

    Each appended line is ``{"bench", "recorded_unix", "data"}``; the
    history file itself (``history.jsonl``) is skipped.  Returns the
    entries appended, in bench-name order.
    """
    directory = Path(out_dir)
    history = (
        directory / "history.jsonl" if history_path is None else Path(history_path)
    )
    recorded = time.time() if timestamp is None else float(timestamp)
    entries: List[Dict[str, Any]] = []
    for path in sorted(directory.glob("*.json")):
        if path.resolve() == history.resolve():
            continue
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        entries.append(
            {"bench": path.stem, "recorded_unix": recorded, "data": data}
        )
    if entries:
        history.parent.mkdir(parents=True, exist_ok=True)
        with history.open("a", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries


def check_bench_history(
    history_path: Union[str, Path], tolerance: float = 0.25
) -> List[Regression]:
    """Compare each benchmark's latest history entry against its best
    recent one.

    Entries are grouped by ``(bench, data["scale"])``, so a smoke run is
    only ever judged against previous smoke runs of the same bench.  A
    tracked metric (see :func:`metric_direction`) of the latest entry is
    compared with its best value among up to
    :data:`BENCH_HISTORY_WINDOW` previous entries, and reported when it is
    worse by more than ``tolerance`` (fractional).  Groups with fewer
    than two entries, and keys no previous entry in the window carries,
    are skipped — the first recorded run can never regress.
    """
    history = Path(history_path)
    if not history.is_file():
        return []
    by_bench: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    with history.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            data = entry.get("data")
            scale = str(data.get("scale", "")) if isinstance(data, dict) else ""
            by_bench.setdefault((entry["bench"], scale), []).append(entry)

    regressions: List[Regression] = []
    for (bench, _scale), entries in sorted(by_bench.items()):
        if len(entries) < 2:
            continue
        window = [
            _flatten(entry.get("data", {}))
            for entry in entries[-1 - BENCH_HISTORY_WINDOW : -1]
        ]
        latest = _flatten(entries[-1].get("data", {}))
        for key in sorted(latest):
            better = metric_direction(key)
            seen = [previous[key] for previous in window if key in previous]
            if better is None or not seen:
                continue
            old = min(seen) if better == "lower" else max(seen)
            new = latest[key]
            if old == 0:
                continue
            change = (new - old) / abs(old)
            worse = change > tolerance if better == "lower" else change < -tolerance
            if worse:
                regressions.append(
                    Regression(
                        bench=bench,
                        key=key,
                        previous=old,
                        latest=new,
                        better=better,
                    )
                )
    return regressions
