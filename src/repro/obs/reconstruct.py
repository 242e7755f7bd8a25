"""Recompute run statistics from a trace alone.

A correct trace is a *sufficient statistic* for the headline numbers:
every query completion (or drop) appears as a ``completion`` instant with
its ``satisfied`` flag, and every MS&S decision appears as a service span
with its batch size.  :func:`reconstruct_metrics` folds those records
back into the same aggregates :class:`~repro.sim.metrics.SimulationMetrics`
reports, which the integration tests compare *exactly* — any divergence
means the instrumentation dropped or duplicated lifecycle events.

Works from a live :class:`~repro.obs.trace.RecordingTracer` or from a
JSONL event log written by
:func:`repro.obs.exporters.write_events_jsonl`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, Mapping, Union

from repro.obs.trace import RecordingTracer

__all__ = ["TraceSummary", "reconstruct_metrics", "reconstruct_from_jsonl"]

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
    #: in record order — the same summation
    #: :class:`~repro.sim.metrics.MetricsCollector` performs, so the
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


def _fold(records: Iterable[Mapping]) -> TraceSummary:
    total = satisfied = decisions = batch_total = arrivals = 0
    accuracy_sum = 0.0
    for record in records:
        name = record.get("name")
        kind = record.get("type")
        if kind == "instant":
            if name == COMPLETION_EVENT:
                total += 1
                args = record.get("args", {})
                if args.get("satisfied"):
                    satisfied += 1
                    accuracy_sum += float(args.get("accuracy", 0.0))
            elif name == ARRIVAL_EVENT:
                arrivals += 1
        elif kind == "span" and name == SERVICE_SPAN:
            decisions += 1
            batch_total += int(record.get("args", {}).get("batch", 0))
    return TraceSummary(
        total_queries=total,
        satisfied_queries=satisfied,
        decisions=decisions,
        batch_total=batch_total,
        arrivals=arrivals,
        accuracy_sum=accuracy_sum,
    )


def reconstruct_metrics(tracer: RecordingTracer) -> TraceSummary:
    """Recompute the summary from an in-memory tracer."""
    records = []
    for span in tracer.spans:
        records.append({"type": "span", "name": span.name, "args": span.args})
    for event in tracer.events:
        if not event.is_counter:
            records.append(
                {"type": "instant", "name": event.name, "args": event.args}
            )
    return _fold(records)


#: Warning logged for a torn line of an event log (see :func:`_iter_jsonl`).
TORN_RECORD = "skipping unparseable record (truncated write?)"


def _iter_jsonl(path: Path, logger: str, warning: str) -> Iterator[Dict[str, Any]]:
    """Stream one record per parseable line, skipping torn lines.

    A crashed worker truncates its file mid-line; every record before
    the tear is still good, so readers degrade to a ``warning`` (logged
    as ``<path>:<line>: <warning>`` on the ``logger`` channel) instead
    of raising on the torn line.  This is the one JSONL reader behind
    shard merges, reconstruction, attribution folds and run reports.
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

    The log is streamed line by line — shard files from large parallel
    runs never need to fit in memory.
    """
    return _fold(_iter_jsonl(Path(path), "obs.reconstruct", TORN_RECORD))
