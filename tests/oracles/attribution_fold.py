"""Attribution one hook call per lifecycle record: the oracle of
:meth:`repro.obs.attribution.LatencyAttributor.fold`.

:class:`HookAttributor` is the attributor with per-record streaming
hooks — ``observe_decision`` per dispatched batch,
``observe_service_start`` / ``observe_completion`` per query — each
folding one record: the phase split of one query
(:func:`exact_phase_split`), one burn-window push and alert check
(:class:`HookBurnWindow`), one reservoir read and one exemplar heap step
per completion.  :func:`hook_fold` drives those hooks over an event
table's lifecycle rows in row order, and
:meth:`repro.obs.attribution.Lifecycle.replay` over a kernel capture's
columns.  The columnar fold reads the same records in bulk; from any
prior attributor state it must leave every table, ring, reservoir,
exemplar, registry series and alert exactly as these hooks do.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.obs.attribution import (
    _COMPLETION,
    _SERVE,
    _SERVICE_START,
    DROPPED_MODEL,
    AttributionRow,
    BurnWindow,
    LatencyAttributor,
    PhaseBreakdown,
    _exemplar_chain,
    _worker_from_track,
)
from repro.obs.columns import INSTANT, MISSING, SPAN, EventTable

__all__ = [
    "HookAttributor",
    "HookBurnWindow",
    "add_to_row",
    "exact_phase_split",
    "hook_fold",
]


def exact_phase_split(response_ms: float, wait_ms: float) -> Tuple[float, float]:
    """Split ``response`` into ``(wait, service)`` with an exact float sum.

    The naive residual ``service = response - wait`` leaves
    ``wait + service != response`` for a few percent of double pairs
    (the subtraction rounds).  Recomputing the wait as the residual of
    the residual moves it by at most one ulp and makes the pair sum back
    exactly — empirically without exception, with a bounded fixpoint
    loop as a guard.  Deterministic in (response, wait), so every replay
    path reproduces the same split.
    """
    service = response_ms - wait_ms
    if wait_ms + service == response_ms:
        return wait_ms, service
    for _ in range(4):
        wait_ms = response_ms - service
        service = response_ms - wait_ms
        if wait_ms + service == response_ms:
            break
    return wait_ms, service


def add_to_row(row: AttributionRow, phases: PhaseBreakdown, excess_ms: float) -> None:
    """Fold one query's breakdown into the row."""
    row.queries += 1
    if phases.satisfied:
        row.satisfied += 1
    else:
        row.violations += 1
    if phases.dropped:
        row.dropped += 1
    row.queue_wait_ms += phases.queue_wait_ms
    row.batch_wait_ms += phases.batch_wait_ms
    row.service_ms += phases.service_ms
    row.drop_ms += phases.drop_ms
    row.response_ms += phases.response_ms
    row.violation_excess_ms += excess_ms


class HookBurnWindow(BurnWindow):
    """The rolling violation window one completion at a time."""

    __slots__ = ()

    def push(self, violation: bool) -> None:
        """Fold one completion outcome into the ring."""
        if self._filled == self.size:
            if self._ring[self._head]:
                self.violations -= 1
        else:
            self._filled += 1
        self._ring[self._head] = violation
        if violation:
            self.violations += 1
        self._head += 1
        if self._head == self.size:
            self._head = 0

    def check_alert(self, burn: float, threshold: float) -> bool:
        """Hysteresis: fire once per excursion above ``threshold``."""
        if not self.full:
            return False
        if burn > threshold:
            if self._armed:
                self._armed = False
                self.alerts += 1
                return True
            return False
        self._armed = True
        return False


class HookAttributor(LatencyAttributor):
    """A :class:`~repro.obs.attribution.LatencyAttributor` fed one record
    at a time through its ``observe_*`` hooks (same constructor).  Being
    a ``LatencyAttributor``, a kernel it is attached to folds it in
    columns; feed it through the hooks (:func:`hook_fold`, the reference
    simulation loop, :meth:`~repro.obs.attribution.Lifecycle.replay`)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._windows = [HookBurnWindow(w.size) for w in self._windows]

    def observe_decision(
        self, worker: int, model: str, batch: int, exec_ms: float
    ) -> None:
        """Fold one serve decision (one batch dispatched)."""
        with self._lock:
            cell = self._decisions.get((worker, model, batch))
            if cell is None:
                self._decisions[(worker, model, batch)] = [1.0, exec_ms]
            else:
                cell[0] += 1.0
                cell[1] += exec_ms

    def observe_service_start(
        self, query_id: int, worker: int, model: str, batch: int, wait_ms: float
    ) -> None:
        """Record a query's dispatch: its queue wait is now known."""
        with self._lock:
            self._pending[(worker, query_id)] = (wait_ms, model, batch)

    def observe_completion(
        self,
        query_id: int,
        worker: int,
        model: str,
        response_ms: float,
        satisfied: bool,
        t_ms: float = 0.0,
        dropped: bool = False,
    ) -> None:
        """Fold one completed (or dropped) query into every aggregate."""
        with self._lock:
            pending = self._pending.pop((worker, query_id), None)
            if dropped:
                model = model or DROPPED_MODEL
                queue_wait = batch_wait = service = 0.0
                drop = response_ms
                batch = 0
            else:
                batch_wait = drop = 0.0
                if pending is not None:
                    wait_ms, p_model, batch = pending
                    if not model:
                        model = p_model
                    queue_wait, service = exact_phase_split(
                        response_ms, wait_ms
                    )
                else:
                    # No service_start seen (schema gap or truncated
                    # shard): the whole latency counts as service.
                    queue_wait = 0.0
                    service = response_ms
                    batch = 0
            phases = PhaseBreakdown(
                query_id=query_id,
                worker=worker,
                model=model,
                queue_wait_ms=queue_wait,
                batch_wait_ms=batch_wait,
                service_ms=service,
                drop_ms=drop,
                response_ms=response_ms,
                satisfied=satisfied,
                dropped=dropped,
                t_ms=t_ms,
            )
            excess = 0.0
            if not satisfied and self.slo_ms is not None:
                excess = max(0.0, response_ms - self.slo_ms)
            key = (model, worker)
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = AttributionRow(
                    slo=self._slo_label(), model=model, worker=worker
                )
            add_to_row(row, phases, excess)
            if self._record_queries:
                self.breakdowns.append(phases)

            self._seq += 1
            self._observe_burn(satisfied, t_ms)
            self._observe_exemplar(phases, batch)

            if self._m_queries is not None:
                self._m_queries.inc()
                if dropped:
                    self._m_drops.inc()
                else:
                    self._m_queue_wait.observe(queue_wait)
                    self._m_service.observe(service)

    def _observe_burn(self, satisfied: bool, t_ms: float) -> None:
        violation = not satisfied
        for window in self._windows:
            window.push(violation)
            burn = self._burn(window)
            gauge = self._m_burn.get(window.size)
            if gauge is not None:
                gauge.set(burn, t_ms=t_ms)
            if window.check_alert(burn, self._burn_threshold):
                counter = self._m_burn_alerts.get(window.size)
                if counter is not None:
                    counter.inc()
                self._alert(
                    self._burn_alert(window.size, burn, window.violations, t_ms)
                )

    def _burn(self, window: BurnWindow) -> float:
        rate = window.rate
        return rate / self._budget if self._budget else rate

    def _observe_exemplar(self, phases: PhaseBreakdown, batch: int) -> None:
        hist = self._response_hist
        threshold = None
        if hist.count >= self._exemplar_warmup:
            threshold = hist.quantile(self._exemplar_quantile)
        hist.observe(phases.response_ms)
        if threshold is None or phases.response_ms < threshold:
            return
        if self._exemplar_capacity < 1:
            return
        chain = _exemplar_chain(phases, batch, threshold)
        entry = (phases.response_ms, self._seq, chain)
        if len(self._exemplars) < self._exemplar_capacity:
            heapq.heappush(self._exemplars, entry)
        elif entry[:2] > self._exemplars[0][:2]:
            heapq.heapreplace(self._exemplars, entry)



def hook_fold(attributor: HookAttributor, table: EventTable) -> HookAttributor:
    """Fold ``table`` into ``attributor`` through its hooks, one record at
    a time, in recorded order; returns the attributor."""
    has_args = table.has_args()
    workers_of: Dict[str, int] = {}

    def track_workers(rows: np.ndarray) -> List[int]:
        out = []
        for track in table.strings_at("track", rows):
            worker = workers_of.get(track)
            if worker is None:
                worker = workers_of[track] = _worker_from_track(track)
            out.append(worker)
        return out

    serves = table.rows(SPAN, _SERVE)
    serves = serves[has_args[serves]]
    for track_worker, worker, model, batch, exec_ms in zip(
        track_workers(serves),
        table.arg("worker", serves),
        table.arg("model", serves),
        table.arg("batch", serves),
        table.columns["dur_ms"][serves].tolist(),
    ):
        attributor.observe_decision(
            int(track_worker if worker is MISSING else worker),
            str("" if model is MISSING else model),
            int(1 if batch is MISSING else batch),
            float(exec_ms),
        )

    query = table.present("query")
    starts = np.zeros(len(table), np.bool_)
    starts[table.rows(INSTANT, _SERVICE_START)] = True
    starts &= query & table.present("wait_ms")
    ends = np.zeros(len(table), np.bool_)
    ends[table.rows(INSTANT, _COMPLETION)] = True
    ends &= query
    rows = np.flatnonzero(starts | ends)
    for (
        is_start, track_worker, query_id, worker, model, batch, wait_ms,
        response_ms, satisfied, dropped, ts_ms,
    ) in zip(
        starts[rows].tolist(),
        track_workers(rows),
        table.arg("query", rows),
        table.arg("worker", rows),
        table.arg("model", rows),
        table.arg("batch", rows),
        table.arg("wait_ms", rows),
        table.arg("response_ms", rows),
        table.arg("satisfied", rows),
        table.arg("dropped", rows),
        table.columns["ts_ms"][rows].tolist(),
    ):
        model = "" if model is MISSING else model
        if is_start:
            attributor.observe_service_start(
                int(query_id),
                track_worker,
                str(model),
                int(1 if batch is MISSING else batch),
                float(wait_ms),
            )
        else:
            attributor.observe_completion(
                int(query_id),
                int(track_worker if worker is MISSING else worker),
                str(model),
                float(0.0 if response_ms is MISSING else response_ms),
                bool(False if satisfied is MISSING else satisfied),
                t_ms=float(ts_ms),
                dropped=bool(False if dropped is MISSING else dropped),
            )
    return attributor
