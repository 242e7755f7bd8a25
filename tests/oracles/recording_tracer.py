"""The object recorder: the oracle of :class:`repro.obs.trace.RecordingTracer`.

:class:`ObjectRecorder` keeps every record as a :class:`~repro.obs.trace.Span`
or :class:`~repro.obs.trace.Event` in two plain lists, holding each args
dict as it was given (a context-manager span's as it is at exit).  The
production recorder keeps table rows and decodes its ``spans`` /
``events`` views from them; driven with the same calls, it must give
equal views and byte-equal exports, scalar args compared as Python
values and non-scalar args after a JSON round trip.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.trace import Event, Span, Tracer

__all__ = ["ObjectRecorder"]


class ObjectRecorder(Tracer):
    """Tracer that retains every span/event in memory for export."""

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._events: List[Event] = []
        self._epoch = time.perf_counter()
        self._next_id = 1
        #: Open context-manager spans per track (for parent links).
        self._open: Dict[str, List[int]] = {}

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
            Span(name, track, start_ms, duration_ms, category, args or {}, span_id)
        )

    def instant(
        self,
        name: str,
        track: str,
        ts_ms: float,
        category: str = "sim",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._events.append(Event(name, track, ts_ms, category, args or {}))

    def counter(self, name: str, track: str, ts_ms: float, value: float) -> None:
        self._events.append(
            Event(name, track, ts_ms, "counter", value=float(value))
        )

    def complete_row(self, name, track, start_ms, duration_ms, keys, values,
                     category="sim") -> None:
        self.complete(
            name, track, start_ms, duration_ms, category, dict(zip(keys, values))
        )

    def instant_row(self, name, track, ts_ms, keys, values, category="sim") -> None:
        self.instant(name, track, ts_ms, category, dict(zip(keys, values)))

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
                    name, track, start, self._now_ms() - start, category,
                    args or {}, span_id, parent,
                )
            )

    def _now_ms(self) -> float:
        return (time.perf_counter() - self._epoch) * 1000.0

    @property
    def spans(self) -> Tuple[Span, ...]:
        return tuple(self._spans)

    @property
    def events(self) -> Tuple[Event, ...]:
        return tuple(self._events)

    def tracks(self) -> List[str]:
        names = {s.track for s in self._spans} | {e.track for e in self._events}
        return sorted(names)

    def clear(self) -> None:
        self._spans.clear()
        self._events.clear()
