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

:class:`RecordingTracer` appends records to plain lists.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

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
    """Tracer that retains every span/event in memory for export.

    Wall-clock (context-manager) spans are timestamped in milliseconds
    elapsed since this tracer's creation, so offline tracks line up from
    t=0 just like simulation tracks.
    """

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._events: List[Event] = []
        self._epoch = time.perf_counter()
        #: Wall-clock instant (Unix epoch, ms) paired with the
        #: ``perf_counter`` epoch above.  Cross-process aggregation uses
        #: it to anchor each process's t=0 on a shared timeline.
        self.anchor_unix_ms: float = time.time() * 1000.0
        self._next_id = 1
        #: Open context-manager spans per track (for parent links).
        self._open: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
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
        self._spans.append(
            Span(
                name=name,
                track=track,
                start_ms=start_ms,
                duration_ms=duration_ms,
                category=category,
                args=args or {},
                span_id=span_id,
            )
        )

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._events.append(
            Event(
                name=name,
                track=track,
                ts_ms=ts_ms,
                category=category,
                args=args or {},
            )
        )

    def counter(self, name: str, track: str, ts_ms: float, value: float) -> None:
        self._events.append(
            Event(
                name=name,
                track=track,
                ts_ms=ts_ms,
                category="counter",
                value=float(value),
            )
        )

    def complete_row(self, name, track, start_ms, duration_ms, keys, values,
                     category="sim") -> None:
        span_id = self._next_id
        self._next_id += 1
        self._spans.append(
            Span(name, track, start_ms, duration_ms, category,
                 dict(zip(keys, values)), span_id)
        )

    def instant_row(self, name, track, ts_ms, keys, values, category="sim") -> None:
        self._events.append(
            Event(name, track, ts_ms, category, dict(zip(keys, values)))
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
            self._spans.append(
                Span(
                    name=name,
                    track=track,
                    start_ms=start,
                    duration_ms=self._now_ms() - start,
                    category=category,
                    args=args or {},
                    span_id=span_id,
                    parent_id=parent,
                )
            )

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    @classmethod
    def from_records(
        cls, spans: List[Span], events: List[Event]
    ) -> "RecordingTracer":
        """A tracer holding already-built records (a decoded run, say);
        further spans are numbered after the highest id it holds."""
        tracer = cls()
        tracer._spans = spans
        tracer._events = events
        tracer._next_id = max((s.span_id for s in spans), default=0) + 1
        return tracer

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """All recorded spans (context-manager spans appear on exit)."""
        return tuple(self._spans)

    @property
    def events(self) -> Tuple[Event, ...]:
        """All recorded instant events and counter samples."""
        return tuple(self._events)

    def tracks(self) -> List[str]:
        """Every track name seen so far, in deterministic (sorted) order."""
        names = {s.track for s in self._spans} | {e.track for e in self._events}
        return sorted(names)

    def clear(self) -> None:
        """Drop all recorded spans and events (open spans stay open)."""
        self._spans.clear()
        self._events.clear()
