"""The offline attribution fold as one hook call per record: the oracle of
:meth:`repro.obs.attribution.LatencyAttributor.fold`.

:func:`hook_fold` walks an event table's lifecycle rows in row order and
calls the attributor's streaming hooks (``observe_decision`` per
``serve`` span, ``observe_service_start`` / ``observe_completion`` per
instant) with the arguments each record carries.  The bulk fold reads
the same rows in columns; from any prior attributor state it must leave
every table, ring, reservoir, exemplar, registry series and alert
exactly as this loop does.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.obs.attribution import (
    _COMPLETION,
    _SERVE,
    _SERVICE_START,
    LatencyAttributor,
    _worker_from_track,
)
from repro.obs.columns import INSTANT, MISSING, SPAN, EventTable

__all__ = ["hook_fold"]


def hook_fold(attributor: LatencyAttributor, table: EventTable) -> LatencyAttributor:
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
