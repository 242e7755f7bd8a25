"""Phase profiler: nested wall-clock phase timers on the tracer protocol.

:class:`PhaseProfiler` is a :class:`~repro.obs.trace.ForwardingTracer`:
drop it between any instrumented component and its (optional) sink
tracer, and every wall-clock ``span()`` phase the code already emits —
policy-generation phases, solver Bellman sweeps, transition-kernel
construction, the simulation engine's event loop, cache gets/puts —
is aggregated into per-*path* statistics without new instrumentation::

    profiler = PhaseProfiler()                  # or PhaseProfiler(recorder)
    generate_policy(config, tracer=profiler)
    print(profiler.hotspots())                  # top-N self-time table
    Path("prof.folded").write_text("\\n".join(profiler.folded()))

A *path* is the stack of open phase names rooted at the track
(``generator;stacked_bank;stacked_value_iteration``), so the
:meth:`folded` output is directly consumable by standard flamegraph
tooling (``flamegraph.pl``, speedscope's folded importer).  *Self* time
is a phase's total minus its direct children's totals, computed at
reporting time.

``sample_every=k`` times only every k-th occurrence of each path (the
rest are forwarded untimed) and scales the reported totals back up by
the observed sampling ratio — for phases hot enough that even two
``perf_counter`` calls matter.

The profiler follows the :data:`~repro.obs.trace.NULL_TRACER` contract:
it is opt-in, and code instrumented with the default null tracer pays
only the usual single ``enabled`` attribute check when no profiler (or
other tracer) is installed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.trace import ForwardingTracer, Tracer

__all__ = [
    "PhaseStats",
    "PhaseProfiler",
    "stats_from_spans",
    "stats_from_table",
    "render_hotspots",
    "folded_lines",
]

PhasePath = Tuple[str, ...]


@dataclass(frozen=True)
class PhaseStats:
    """Aggregated timings for one phase path (track-rooted stack)."""

    path: PhasePath
    #: Occurrences observed (timed or not).
    count: int
    #: Occurrences actually timed (== ``count`` unless sampling).
    measured: int
    #: Estimated total wall-clock ms (measured total scaled by the
    #: sampling ratio).
    total_ms: float
    #: Estimated total minus direct children's estimated totals, >= 0.
    self_ms: float
    min_ms: float
    max_ms: float

    @property
    def name(self) -> str:
        """Leaf phase name."""
        return self.path[-1]

    @property
    def depth(self) -> int:
        """Nesting depth (0 = directly under the track root)."""
        return len(self.path) - 2

    @property
    def mean_ms(self) -> float:
        """Estimated mean duration per occurrence."""
        return self.total_ms / self.count if self.count else 0.0


class PhaseProfiler(ForwardingTracer):
    """Aggregate every ``span()`` phase by its nesting path.

    Forwards all records to ``inner`` (default: nothing), so it can sit
    in front of a :class:`~repro.obs.trace.RecordingTracer` or replace
    one when only aggregate timings are wanted.
    """

    def __init__(self, inner: Optional[Tracer] = None, sample_every: int = 1) -> None:
        super().__init__(inner)
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self._sample_every = sample_every
        self._stacks: Dict[str, List[str]] = {}
        self._seen: Dict[PhasePath, int] = {}
        self._measured: Dict[PhasePath, int] = {}
        self._total: Dict[PhasePath, float] = {}
        self._min: Dict[PhasePath, float] = {}
        self._max: Dict[PhasePath, float] = {}

    @contextmanager
    def span(
        self,
        name: str,
        track: str = "offline",
        category: str = "offline",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        stack = self._stacks.setdefault(track, [])
        path: PhasePath = (track, *stack, name)
        seen = self._seen.get(path, 0) + 1
        self._seen[path] = seen
        measure = (seen - 1) % self._sample_every == 0
        stack.append(name)
        start = time.perf_counter() if measure else 0.0
        try:
            with self._inner.span(name, track=track, category=category, args=args):
                yield
        finally:
            stack.pop()
            if measure:
                elapsed_ms = (time.perf_counter() - start) * 1000.0
                self._measured[path] = self._measured.get(path, 0) + 1
                self._total[path] = self._total.get(path, 0.0) + elapsed_ms
                if path not in self._min or elapsed_ms < self._min[path]:
                    self._min[path] = elapsed_ms
                if path not in self._max or elapsed_ms > self._max[path]:
                    self._max[path] = elapsed_ms

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _estimated_totals(self) -> Dict[PhasePath, float]:
        totals = {}
        for path, seen in self._seen.items():
            measured = self._measured.get(path, 0)
            if measured == 0:
                totals[path] = 0.0
            else:
                totals[path] = self._total[path] * (seen / measured)
        return totals

    def stats(self) -> List[PhaseStats]:
        """Per-path statistics, sorted by estimated self-time, descending
        (see :func:`_fold_stats`)."""
        return _fold_stats(
            self._seen, self._measured, self._estimated_totals(),
            self._min, self._max,
        )

    def hotspots(self, n: int = 10) -> str:
        """Top-``n`` phases by self-time as an aligned text table."""
        return render_hotspots(self.stats(), n)

    def folded(self) -> List[str]:
        """Flamegraph-folded lines: ``track;phase;subphase <self µs>``.

        Paths whose integer-microsecond self-time rounds to zero are
        dropped, matching what collapsed-stack tooling expects.
        """
        return folded_lines(self.stats())

    def reset(self) -> None:
        """Drop all aggregates (open phases keep profiling into fresh state)."""
        self._seen.clear()
        self._measured.clear()
        self._total.clear()
        self._min.clear()
        self._max.clear()


# ----------------------------------------------------------------------
# Offline: rebuild phase statistics from recorded span records
# ----------------------------------------------------------------------
def stats_from_spans(records: Any) -> List[PhaseStats]:
    """Aggregate recorded span dicts into :class:`PhaseStats`.

    ``records`` is an iterable of JSONL-style record dicts as produced by
    :func:`repro.obs.exporters.events_jsonl` (and found in a run
    directory's ``merged.jsonl``); non-span records are ignored.  Phase
    nesting is rebuilt from each span's ``parent`` id rather than a live
    stack, so the same hotspot table and flamegraph-folded output the
    in-process :class:`PhaseProfiler` gives are available after the fact
    from a shipped trace — no re-run required.
    """
    spans: List[Dict[str, Any]] = [
        r for r in records if r.get("type") == "span" and "name" in r
    ]
    by_id: Dict[Any, Dict[str, Any]] = {
        s["id"]: s for s in spans if s.get("id") is not None
    }
    path_of = _path_resolver(by_id)
    seen: Dict[PhasePath, int] = {}
    total: Dict[PhasePath, float] = {}
    lo: Dict[PhasePath, float] = {}
    hi: Dict[PhasePath, float] = {}
    for span in spans:
        path = path_of(span)
        dur = float(span.get("dur_ms", 0.0))
        seen[path] = seen.get(path, 0) + 1
        total[path] = total.get(path, 0.0) + dur
        if path not in lo or dur < lo[path]:
            lo[path] = dur
        if path not in hi or dur > hi[path]:
            hi[path] = dur

    return _fold_stats(seen, seen, total, lo, hi)


def _path_resolver(
    by_id: Dict[Any, Dict[str, Any]]
) -> Callable[[Dict[str, Any]], PhasePath]:
    """The phase path of each span record, from its ``parent`` chain
    through ``by_id``; call it on the spans in order, since a path found
    for a span is cached for its id and reused by every later lookup."""
    path_cache: Dict[Any, PhasePath] = {}

    def path_of(span: Dict[str, Any]) -> PhasePath:
        span_id = span.get("id")
        if span_id is not None and span_id in path_cache:
            return path_cache[span_id]
        # Walk up the parent chain iteratively (no recursion limit risk),
        # then fold the names under the track root.
        chain: List[Dict[str, Any]] = []
        cur: Optional[Dict[str, Any]] = span
        seen_ids = set()
        while cur is not None:
            chain.append(cur)
            parent_id = cur.get("parent")
            if parent_id is None or parent_id in seen_ids:
                break
            seen_ids.add(parent_id)
            nxt = by_id.get(parent_id)
            if nxt is not None and nxt.get("id") in path_cache:
                chain.append(nxt)
                cur = None
                break
            cur = nxt
        chain.reverse()
        if chain and chain[0].get("id") in path_cache:
            path: PhasePath = path_cache[chain[0]["id"]]
            chain = chain[1:]
        else:
            path = (str(span.get("track", "offline")),)
        for node in chain:
            path = (*path, str(node["name"]))
            node_id = node.get("id")
            if node_id is not None:
                path_cache[node_id] = path
        return path

    return path_of


def _fold_stats(
    seen: Dict[PhasePath, int],
    measured: Dict[PhasePath, int],
    totals: Dict[PhasePath, float],
    lo: Dict[PhasePath, float],
    hi: Dict[PhasePath, float],
) -> List[PhaseStats]:
    """Per-path :class:`PhaseStats`, sorted by self-time, descending.

    Self-time is a path's total minus its direct children's totals
    (summed in ``totals`` order), clamped at zero — sampling can make
    children's estimates exceed the parent's.  A path missing from
    ``measured``/``lo``/``hi`` was never timed and reads 0 there.
    """
    children: Dict[PhasePath, float] = {}
    for path, total in totals.items():
        children[path[:-1]] = children.get(path[:-1], 0) + total
    out = [
        PhaseStats(
            path=path,
            count=count,
            measured=measured.get(path, 0),
            total_ms=totals[path],
            self_ms=max(0.0, totals[path] - children.get(path, 0)),
            min_ms=lo.get(path, 0.0),
            max_ms=hi.get(path, 0.0),
        )
        for path, count in seen.items()
    ]
    out.sort(key=lambda s: (-s.self_ms, s.path))
    return out


def stats_from_table(table: Any) -> List[PhaseStats]:
    """:func:`stats_from_spans` over an event table's span rows, in columns.

    The spans are taken in timestamp order (stable), the order the
    exported ``merged.jsonl`` lists them, so the hotspot totals equal
    the ones folded from that log.  A span's path depends on other spans
    only through parent links and shared ids, so only spans with a parent
    or with an id another span names walk the parent chain; every other
    span's path is its ``(track, name)``.  Counts, totals (added in
    timestamp order), minima and maxima are folded per path in bulk.
    """
    from repro.obs.columns import SPAN

    c = table.columns
    rows = np.flatnonzero(c["kind"] == SPAN)
    rows = rows[np.argsort(c["ts_ms"][rows], kind="stable")]
    ids, parents = c["id"][rows], c["parent"][rows]
    linked = parents >= 0
    named = np.flatnonzero(ids >= 0)
    _, inverse, counts = np.unique(
        ids[named], return_inverse=True, return_counts=True
    )
    walks = linked.copy()
    walks[named] |= (counts[inverse.reshape(-1)] > 1) | np.isin(
        ids[named], parents[linked]
    )
    walk, plain = np.flatnonzero(walks), np.flatnonzero(~walks)

    strings = table.strings
    paths: Dict[PhasePath, int] = {}
    path_of_row = np.empty(rows.size, np.int64)
    if plain.size:
        width = len(strings)
        pairs = c["track"][rows[plain]].astype(np.int64) * width
        pairs += c["name"][rows[plain]]
        used, inverse = np.unique(pairs, return_inverse=True)
        found = [
            paths.setdefault((strings[pair // width], strings[pair % width]), len(paths))
            for pair in used.tolist()
        ]
        path_of_row[plain] = np.array(found, np.int64)[inverse.reshape(-1)]
    if walk.size:
        records = []
        for name, track, span_id, parent in zip(
            table.strings_at("name", rows[walk]),
            table.strings_at("track", rows[walk]),
            ids[walk].tolist(),
            parents[walk].tolist(),
        ):
            record = {"name": name, "track": track}
            if span_id >= 0:
                record["id"] = span_id
            if parent >= 0:
                record["parent"] = parent
            records.append(record)
        by_id = {r["id"]: r for r in records if "id" in r}
        path_of = _path_resolver(by_id)
        path_of_row[walk] = [
            paths.setdefault(path_of(record), len(paths)) for record in records
        ]

    # Paths in first-seen order, each span's durations in row order.
    firsts = np.full(len(paths), rows.size, np.int64)
    np.minimum.at(firsts, path_of_row, np.arange(rows.size))
    rank = np.empty(len(paths), np.int64)
    rank[np.argsort(firsts, kind="stable")] = np.arange(len(paths))
    group = rank[path_of_row]
    dur = c["dur_ms"][rows]
    total = np.zeros(len(paths))
    np.add.at(total, group, dur)
    lo = np.full(len(paths), np.inf)
    np.minimum.at(lo, group, dur)
    hi = np.full(len(paths), -np.inf)
    np.maximum.at(hi, group, dur)
    ordered = [None] * len(paths)
    for path, index in paths.items():
        ordered[rank[index]] = path
    seen = dict(zip(ordered, np.bincount(group, minlength=len(paths)).tolist()))
    return _fold_stats(
        seen,
        seen,
        dict(zip(ordered, total.tolist())),
        dict(zip(ordered, lo.tolist())),
        dict(zip(ordered, hi.tolist())),
    )


def render_hotspots(stats: List[PhaseStats], n: int = 10) -> str:
    """Top-``n`` phases by self-time as an aligned text table."""
    rows = [("phase", "count", "total_ms", "self_ms", "mean_ms")]
    for stat in stats[:n]:
        rows.append(
            (
                ";".join(stat.path),
                str(stat.count),
                f"{stat.total_ms:.3f}",
                f"{stat.self_ms:.3f}",
                f"{stat.mean_ms:.3f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [row[i].rjust(widths[i]) for i in range(1, len(row))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


def folded_lines(stats: List[PhaseStats]) -> List[str]:
    """Flamegraph-folded lines from a stats list (zero-µs paths dropped)."""
    lines = []
    for stat in sorted(stats, key=lambda s: s.path):
        micros = int(round(stat.self_ms * 1000.0))
        if micros > 0:
            lines.append("{} {}".format(";".join(stat.path), micros))
    return lines
