"""The kernel observer writing one tracer row per record: the oracle of
its feed rows.

The production :class:`~repro.sim.kernel.LifecycleObserver` builds its
tracers' rows in bulk, from the columns of its lifecycle capture, and
hands each tracer one :class:`~repro.obs.columns.RowBatch` at a time.
:class:`RowLifecycleObserver` is the same observer writing its rows as it
did before: live, one :meth:`~repro.obs.trace.Tracer.instant_row` /
:meth:`~repro.obs.trace.Tracer.complete_row` call per record, with
constant key tuples.  :class:`RowSimObserver` is the simulator's
observer the same way, ``queue_depth`` counters included.  Both keep the
production capture (and so its registry, attributor and auditor folds);
only the rows differ in how they are made.  ``tests/test_feed_rows.py``
serves and simulates through both and requires every feed block, every
recorder's table and every plain tracer's call sequence to be equal.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.sim.kernel import (
    _ARRIVAL_KEYS,
    _CENTRAL_ARRIVAL_KEYS,
    _DONE_KEYS,
    _DROPPED_KEYS,
    _REJECTED_KEYS,
    _SERVE_KEYS,
    _START_KEYS,
    LifecycleObserver,
)
from repro.sim.simulator import _SimObserver

__all__ = ["RowLifecycleObserver", "RowSimObserver"]


class _RowWriter:
    """The per-record row writer (mixed into a production observer)."""

    #: Each worker's tracer (``None``: no rows).
    row_tracers: List[Optional[Any]]

    def _row_arrival(self, w: int, j: int, t: float) -> None:
        tracer = self.row_tracers[max(w, 0)]
        if tracer is not None:
            query = self.base + j * self.stride
            if w >= 0:
                tracer.instant_row(
                    "arrival", "balancer", t, _ARRIVAL_KEYS,
                    (query, self.base + w * self.stride),
                )
            else:
                tracer.instant_row(
                    "arrival", "balancer", t, _CENTRAL_ARRIVAL_KEYS, (query,)
                )

    def _row_dispatch(self, w, t, model_name, batch, queue_len, slack_ms,
                      anticipated, exec_ms, served) -> None:
        tracer = self.row_tracers[w]
        if tracer is None:
            return
        base, stride = self.base, self.stride
        track = self.tracks[w]
        tracer.complete_row(
            "serve", track, t, exec_ms, _SERVE_KEYS,
            (base + w * stride, model_name, batch, queue_len, slack_ms, anticipated),
        )
        for j in served:
            tracer.instant_row(
                "service_start", track, t, _START_KEYS,
                (base + j * stride, model_name, batch, t - self.arrivals[j]),
            )

    def _row_completion(self, w, t, model_name, accuracy, served) -> None:
        tracer = self.row_tracers[w]
        if tracer is None:
            return
        base, stride = self.base, self.stride
        for j in served:
            tracer.instant_row(
                "completion", self.tracks[w], t, _DONE_KEYS,
                (base + j * stride, base + w * stride, model_name,
                 t <= self.deadlines[j], accuracy, t - self.arrivals[j]),
            )

    def _row_terminal(self, w, queries, t, model_name, rejected) -> None:
        tracer = self.row_tracers[w]
        if tracer is None:
            return
        base, stride = self.base, self.stride
        keys = _REJECTED_KEYS if rejected else _DROPPED_KEYS
        for j in queries:
            response_ms = 0.0 if rejected else t - self.arrivals[j]
            values = (base + j * stride, base + w * stride, model_name, False,
                      True, 0.0, response_ms)
            tracer.instant_row(
                "completion", self.tracks[w], t, keys,
                values + (True,) if rejected else values,
            )


class RowLifecycleObserver(_RowWriter, LifecycleObserver):
    """A serving shard's observer, its rows written one call per record.

    Takes the production observer's arguments; the production part gets
    no tracers, so it builds no rows of its own.
    """

    def __init__(
        self,
        kernel: Any,
        tracers: Sequence[Optional[Any]],
        attributor: Optional[Any] = None,
        registry: Optional[Any] = None,
        base: int = 0,
        stride: int = 1,
    ) -> None:
        super().__init__(kernel, [None] * len(tracers), attributor, registry, base, stride)
        self.tracers = self.row_tracers = list(tracers)

    def arrival(self, w, j, t, depth) -> None:
        self._row_arrival(w, j, t)
        super().arrival(w, j, t, depth)

    def dispatch(self, w, t, model_name, batch, queue_len, slack_ms,
                 anticipated, exec_ms, served, depth) -> None:
        super().dispatch(w, t, model_name, batch, queue_len, slack_ms,
                         anticipated, exec_ms, served, depth)
        self._row_dispatch(w, t, model_name, batch, queue_len, slack_ms,
                           anticipated, exec_ms, served)

    def completion(self, w, t, model_name, accuracy, served) -> None:
        super().completion(w, t, model_name, accuracy, served)
        self._row_completion(w, t, model_name, accuracy, served)

    def terminal(self, w, queries, t, model_name, rejected=False) -> None:
        super().terminal(w, queries, t, model_name, rejected)
        self._row_terminal(w, queries, t, model_name, rejected)


class RowSimObserver(_RowWriter, _SimObserver):
    """The simulator's observer, its rows and ``queue_depth`` counters
    written one call per record."""

    def __init__(self, kernel, central, monitor, tracer, cfg) -> None:
        super().__init__(kernel, central, monitor, None, cfg)
        self.row_tracers = [tracer] * len(kernel.in_flight)
        self.row_tracer = tracer

    def _depth(self, w: int, t: float, depth: int) -> None:
        if self.row_tracer is not None:
            track = "central" if self.central else f"worker-{w}"
            self.row_tracer.counter("queue_depth", track, t, depth)

    def arrival(self, w, j, t, depth) -> None:
        super().arrival(w, j, t, depth)
        self._row_arrival(w, j, t)
        self._depth(w, t, depth)

    def dispatch(self, w, t, model_name, batch, queue_len, slack_ms,
                 anticipated, exec_ms, served, depth) -> None:
        super().dispatch(w, t, model_name, batch, queue_len, slack_ms,
                         anticipated, exec_ms, served, depth)
        self._row_dispatch(w, t, model_name, batch, queue_len, slack_ms,
                           anticipated, exec_ms, served)
        self._depth(w, t, depth)

    def completion(self, w, t, model_name, accuracy, served) -> None:
        super().completion(w, t, model_name, accuracy, served)
        self._row_completion(w, t, model_name, accuracy, served)

    def terminal(self, w, queries, t, model_name, rejected=False) -> None:
        super().terminal(w, queries, t, model_name, rejected)
        self._row_terminal(w, queries, t, model_name, rejected)
        self._depth(w, t, 0)
