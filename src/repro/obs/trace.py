"""Tracing core: spans, events, and the :class:`Tracer` protocol.

The simulator, runtime, and solvers are instrumented with *structural*
trace hooks: per-query lifecycle events (arrival → balancer assignment →
queue wait → batch formation → service → completion/violation), per-batch
service spans, per-sweep solver events, and counter samples (queue depth,
anticipated vs. realized load).  All hooks are opt-in: the default tracer
is :data:`NULL_TRACER`, whose methods are no-ops and whose ``enabled``
flag lets hot loops skip argument construction entirely::

    tracer = config.tracer or NULL_TRACER
    if tracer.enabled:
        tracer.instant("arrival", track="balancer", ts_ms=now, args={...})

Timestamps are simulation milliseconds on online tracks and elapsed
wall-clock milliseconds on offline tracks (solver sweeps, policy
generation phases); a ``track`` is a logical timeline (one per worker,
one for the balancer/monitor, one per offline phase) that exporters map
to Chrome ``trace_event`` threads.

:class:`RecordingTracer` records rows of the columnar event table every
run-dir feed stores (:mod:`repro.obs.columns`); its :class:`Span` and
:class:`Event` objects are views decoded from that table.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.columns import (
    COUNTER,
    INSTANT,
    SPAN,
    EventTable,
    TableWriter,
    split_args,
)

__all__ = [
    "Span",
    "Event",
    "Tracer",
    "NullTracer",
    "ForwardingTracer",
    "RecordingTracer",
    "NULL_TRACER",
]


@dataclass(frozen=True)
class Span:
    """One timed interval on a track (Chrome ``ph: "X"`` complete event)."""

    name: str
    track: str
    start_ms: float
    duration_ms: float
    category: str = "sim"
    args: Dict[str, Any] = field(default_factory=dict)
    span_id: int = 0
    parent_id: Optional[int] = None

    @property
    def end_ms(self) -> float:
        """Span end timestamp."""
        return self.start_ms + self.duration_ms


@dataclass(frozen=True)
class Event:
    """One point-in-time record: an instant event or a counter sample."""

    name: str
    track: str
    ts_ms: float
    category: str = "sim"
    args: Dict[str, Any] = field(default_factory=dict)
    #: ``None`` for instant events; the sampled value for counter events.
    value: Optional[float] = None

    @property
    def is_counter(self) -> bool:
        """True when this is a counter sample rather than an instant."""
        return self.value is not None


class Tracer:
    """No-op base tracer; the interface every instrumentation site uses.

    ``enabled`` is ``False`` here so instrumented hot paths can guard with
    a single attribute check.  :class:`RecordingTracer` overrides every
    method to actually retain records.
    """

    enabled: bool = False

    def complete(
        self,
        name: str,
        track: str,
        start_ms: float,
        duration_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span whose start and duration are already known."""

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a point-in-time event."""

    def counter(self, name: str, track: str, ts_ms: float, value: float) -> None:
        """Record one sample of a time-varying quantity."""

    def complete_row(
        self,
        name: str,
        track: str,
        start_ms: float,
        duration_ms: float,
        keys: Tuple[Any, ...],
        values: Tuple[Any, ...],
        category: str = "sim",
    ) -> None:
        """:meth:`complete` with its args as parallel ``keys`` / ``values``
        tuples, the form the dispatch kernel's observer emits; a columnar
        feed stores them as they are, any other tracer gets the dict."""
        self.complete(
            name, track, start_ms, duration_ms, category, dict(zip(keys, values))
        )

    def instant_row(
        self,
        name: str,
        track: str,
        ts_ms: float,
        keys: Tuple[Any, ...],
        values: Tuple[Any, ...],
        category: str = "sim",
    ) -> None:
        """:meth:`instant` with its args as ``keys`` / ``values`` tuples."""
        self.instant(name, track, ts_ms, category, dict(zip(keys, values)))

    @contextmanager
    def span(
        self,
        name: str,
        track: str = "offline",
        category: str = "offline",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        """Time a wall-clock phase as a (possibly nested) span; no-op here."""
        yield


class NullTracer(Tracer):
    """The default tracer: records nothing, costs one attribute check."""

    def complete_row(self, name, track, start_ms, duration_ms, keys, values,
                     category="sim") -> None:
        pass

    def instant_row(self, name, track, ts_ms, keys, values, category="sim") -> None:
        pass


#: Shared no-op tracer used wherever no tracer was configured.
NULL_TRACER = NullTracer()


class ForwardingTracer(Tracer):
    """A tracer that relays every record to an inner tracer.

    Subclasses observe the stream (override a method, call ``super()``)
    without owning storage — the pattern
    :class:`~repro.obs.profile.PhaseProfiler` uses to time wall-clock
    spans on their way to a :class:`RecordingTracer`.  Rows
    (:meth:`complete_row` / :meth:`instant_row`) are forwarded as rows.
    With no inner tracer the records are consumed by the subclass alone.
    """

    enabled = True

    def __init__(self, inner: Optional[Tracer] = None) -> None:
        self._inner = inner if inner is not None else NULL_TRACER

    @property
    def inner(self) -> Tracer:
        """The tracer records are forwarded to (``NULL_TRACER`` if none)."""
        return self._inner

    def complete(
        self,
        name: str,
        track: str,
        start_ms: float,
        duration_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._inner.complete(name, track, start_ms, duration_ms, category, args)

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._inner.instant(name, track, ts_ms, category, args)

    def counter(self, name: str, track: str, ts_ms: float, value: float) -> None:
        self._inner.counter(name, track, ts_ms, value)

    def complete_row(self, name, track, start_ms, duration_ms, keys, values,
                     category="sim") -> None:
        self._inner.complete_row(
            name, track, start_ms, duration_ms, keys, values, category
        )

    def instant_row(self, name, track, ts_ms, keys, values, category="sim") -> None:
        self._inner.instant_row(name, track, ts_ms, keys, values, category)

    @contextmanager
    def span(
        self,
        name: str,
        track: str = "offline",
        category: str = "offline",
        args: Optional[Dict[str, Any]] = None,
    ) -> Iterator[None]:
        with self._inner.span(name, track=track, category=category, args=args):
            yield


class RecordingTracer(Tracer):
    """Tracer that records every span, instant and counter as one row of
    an :class:`~repro.obs.columns.EventTable` (:attr:`table`).

    A row carries what a run-dir feed stores: wall-clock
    (context-manager) spans are timestamped in milliseconds elapsed since
    this tracer's creation, so offline tracks line up from t=0 just like
    simulation tracks; spans get ids and per-track parent links; every
    row is stamped with the current sequence number (:meth:`set_sequence`)
    and a per-recorder emission counter ``n``; args are taken as key and
    value tuples when recorded (a context-manager span's when it exits).
    :attr:`spans`, :attr:`events` and :meth:`tracks` are views decoded
    from the table, rebuilt only after new records.
    """

    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        #: Wall-clock instant (Unix epoch, ms) paired with the
        #: ``perf_counter`` epoch above.  Cross-process aggregation uses
        #: it to anchor each process's t=0 on a shared timeline.
        self.anchor_unix_ms: float = time.time() * 1000.0
        self._seq = 0
        self._n = 0
        self._next_id = 1
        #: Open context-manager spans per track (for parent links).
        self._open: Dict[str, List[int]] = {}
        self._rows = TableWriter()
        #: The rows taken out of ``_rows`` so far (``None``: none).
        self._table: Optional[EventTable] = None
        #: :meth:`flush` runs once this many rows are recorded (never, in
        #: memory).
        self._flush_at = sys.maxsize
        #: ``(table, spans, events)``: the views last decoded, and from what.
        self._views: Optional[tuple] = None

    @classmethod
    def from_table(cls, table: EventTable) -> "RecordingTracer":
        """A recorder whose first rows are ``table``'s (a merged run, say);
        further spans are numbered after the highest id it holds."""
        tracer = cls()
        tracer._table = table
        tracer._next_id = int(table.columns["id"].max(initial=0)) + 1
        return tracer

    def set_sequence(self, seq: int) -> None:
        """Stamp subsequent records with cell index ``seq`` (merge order)."""
        self._seq = int(seq)

    # ------------------------------------------------------------------
    # Recording (one table row per record)
    # ------------------------------------------------------------------
    def _row(
        self,
        kind: int,
        name: str,
        track: str,
        category: str,
        ts_ms: float,
        duration_ms: float,
        value: float,
        span_id: int,
        parent: int,
        keys: Tuple[Any, ...] = (),
        values: Tuple[Any, ...] = (),
    ) -> None:
        n = self._n
        self._n = n + 1
        self._rows.append(
            kind, name, track, category, ts_ms, duration_ms, value, span_id,
            parent, self._seq, n, keys, values,
        )
        if n >= self._flush_at:
            self.flush()

    def complete(
        self,
        name: str,
        track: str,
        start_ms: float,
        duration_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.complete_row(
            name, track, start_ms, duration_ms, *split_args(args), category
        )

    def complete_row(
        self,
        name: str,
        track: str,
        start_ms: float,
        duration_ms: float,
        keys: Tuple[Any, ...],
        values: Tuple[Any, ...],
        category: str = "sim",
    ) -> None:
        span_id = self._next_id
        self._next_id += 1
        self._row(
            SPAN, name, track, category, start_ms, duration_ms, 0.0, span_id,
            -1, keys, values,
        )

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.instant_row(name, track, ts_ms, *split_args(args), category)

    def instant_row(
        self,
        name: str,
        track: str,
        ts_ms: float,
        keys: Tuple[Any, ...],
        values: Tuple[Any, ...],
        category: str = "sim",
    ) -> None:
        n = self._n
        self._n = n + 1
        self._rows.append(
            INSTANT, name, track, category, ts_ms, 0.0, 0.0, -1, -1, self._seq,
            n, keys, values,
        )
        if n >= self._flush_at:
            self.flush()

    def counter(self, name: str, track: str, ts_ms: float, value: float) -> None:
        self._row(
            COUNTER, name, track, "counter", ts_ms, 0.0, float(value), -1, -1
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
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        try:
            yield
        finally:
            stack.pop()
            # ``args`` is read at exit: a dict mutated inside the
            # with-block records its final contents (the cache get/put
            # outcome pattern).
            self._row(
                SPAN, name, track, category, start, self._now_ms() - start,
                0.0, span_id, parent, *split_args(args),
            )

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    def flush(self) -> None:
        """Runs once ``_flush_at`` rows are recorded, which in memory is
        never; a feed (:class:`~repro.obs.aggregate.ShardTracer`) writes
        its rows out here."""

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def table(self) -> EventTable:
        """Every row recorded (and not cleared or flushed), in order."""
        if self._table is None:
            self._table = self._rows.take()
        elif len(self._rows):
            self._table = EventTable.concat([self._table, self._rows.take()])
        return self._table

    def _decoded(self) -> tuple:
        table = self.table
        if self._views is None or self._views[0] is not table:
            spans: List[Span] = []
            events: List[Event] = []
            for kind, name, track, cat, ts, dur, value, span_id, parent, args in (
                table.records()
            ):
                if kind == SPAN:
                    spans.append(
                        Span(
                            name, track, ts, dur, cat, args or {}, span_id,
                            None if parent < 0 else parent,
                        )
                    )
                elif kind == INSTANT:
                    events.append(Event(name, track, ts, cat, args or {}))
                else:
                    events.append(Event(name, track, ts, cat, {}, value))
            self._views = (table, tuple(spans), tuple(events))
        return self._views

    @property
    def spans(self) -> Tuple[Span, ...]:
        """All recorded spans (context-manager spans appear on exit)."""
        return self._decoded()[1]

    @property
    def events(self) -> Tuple[Event, ...]:
        """All recorded instant events and counter samples."""
        return self._decoded()[2]

    def tracks(self) -> List[str]:
        """Every track name seen so far, in deterministic (sorted) order."""
        table = self.table
        codes = np.unique(table.columns["track"]).tolist()
        return sorted(table.strings[i] for i in codes)

    def clear(self) -> None:
        """Drop all recorded rows (open spans stay open)."""
        self._rows = TableWriter()
        self._table = None
