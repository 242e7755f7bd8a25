"""Recompute run statistics from a trace alone.

A correct trace is a *sufficient statistic* for the headline numbers:
every query completion (or drop) appears as a ``completion`` instant with
its ``satisfied`` flag, and every MS&S decision appears as a service span
with its batch size.  :func:`reconstruct_metrics` folds those records
back into the same aggregates :class:`~repro.sim.metrics.SimulationMetrics`
reports, which the integration tests compare *exactly* — any divergence
means the instrumentation dropped or duplicated lifecycle events.

:func:`summarize` is the one fold; it runs over a columnar
:class:`~repro.obs.columns.EventTable` (a run dir's ``merged.cols``, or
a live :class:`~repro.obs.trace.RecordingTracer`'s ``table``).  A JSONL
event log written by :func:`repro.obs.exporters.write_events_jsonl` is
encoded to a table first.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import Any, Dict, Iterator, Union

import numpy as np

from repro.obs.columns import INSTANT, SPAN, EventTable
from repro.obs.trace import RecordingTracer

__all__ = [
    "TraceSummary",
    "summarize",
    "reconstruct_metrics",
    "reconstruct_from_jsonl",
]

#: Span name used by all service-span emitters.
SERVICE_SPAN = "serve"
#: Instant name used by all completion emitters (drops included).
COMPLETION_EVENT = "completion"
ARRIVAL_EVENT = "arrival"


@dataclass(frozen=True)
class TraceSummary:
    """Aggregates recomputed from lifecycle records only."""

    total_queries: int
    satisfied_queries: int
    decisions: int
    batch_total: int
    arrivals: int
    #: Sum of per-query model accuracy over satisfied completions, folded
    #: in ``(seq, worker)`` order — the same summation
    #: :func:`~repro.sim.metrics.fold_worker_records` performs, so the
    #: reconstructed accuracy matches the simulator's float-exactly.
    accuracy_sum: float = 0.0

    @property
    def violation_rate(self) -> float:
        """Fraction of completed queries that missed their deadline."""
        if self.total_queries == 0:
            return 0.0
        return 1.0 - self.satisfied_queries / self.total_queries

    @property
    def accuracy_per_satisfied_query(self) -> float:
        """Mean model accuracy over satisfied completions (0.0 if none)."""
        if self.satisfied_queries == 0:
            return 0.0
        return self.accuracy_sum / self.satisfied_queries

    @property
    def mean_batch_size(self) -> float:
        """Mean served-batch size over all MS&S decisions."""
        if self.decisions == 0:
            return 0.0
        return self.batch_total / self.decisions


def summarize(table: EventTable) -> TraceSummary:
    """The lifecycle summary of an event table.

    Completions fold stably sorted on ``(seq, worker)``: per cell, worker
    after worker, each worker's records in row order — the order
    :func:`repro.sim.metrics.fold_worker_records` adds them in.  A merged
    run dir is already in that order; an in-memory simulator trace
    (completions in event order) is regrouped.  Accuracies add left to
    right, one Python float at a time, as that fold does.
    """
    completions = table.rows(INSTANT, COMPLETION_EVENT)
    workers = table.arg_array("worker", completions, int, -1)
    completions = completions[np.lexsort((workers, table.columns["seq"][completions]))]
    satisfied = table.arg_array("satisfied", completions, bool, False)
    accuracy = table.arg_array("accuracy", completions[satisfied], float, 0.0)
    serves = table.rows(SPAN, SERVICE_SPAN)
    return TraceSummary(
        total_queries=len(completions),
        satisfied_queries=int(satisfied.sum()),
        decisions=len(serves),
        batch_total=int(table.arg_array("batch", serves, int, 0).sum()),
        arrivals=len(table.rows(INSTANT, ARRIVAL_EVENT)),
        accuracy_sum=reduce(add, accuracy.tolist(), 0.0),
    )


def reconstruct_metrics(
    source: Union[RecordingTracer, EventTable]
) -> TraceSummary:
    """Recompute the summary from an in-memory tracer or event table."""
    if not isinstance(source, EventTable):
        source = source.table
    return summarize(source)


#: Warning logged for a torn line of an event log (see :func:`_iter_jsonl`).
TORN_RECORD = "skipping unparseable record (truncated write?)"


def _iter_jsonl(path: Path, logger: str, warning: str) -> Iterator[Dict[str, Any]]:
    """Stream one record per parseable line, skipping torn lines.

    A crashed worker truncates its file mid-line; every record before
    the tear is still good, so readers degrade to a ``warning`` (logged
    as ``<path>:<line>: <warning>`` on the ``logger`` channel) instead
    of raising on the torn line.  This is the one JSONL reader, behind
    the reconstruction and attribution folds of event logs.
    """
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                from repro.obs.log import get_logger

                get_logger(logger).warning("%s:%d: %s", path, lineno, warning)


def reconstruct_from_jsonl(path: Union[str, Path]) -> TraceSummary:
    """Recompute the summary from a JSONL event log on disk.

    The log is encoded to an event table line by line, then folded like
    every other input.
    """
    records = _iter_jsonl(Path(path), "obs.reconstruct", TORN_RECORD)
    return summarize(EventTable.from_records(records))
