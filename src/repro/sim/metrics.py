"""Online performance metrics (§7 "Performance Metrics").

The paper compares MS&S schemes on:

- **Latency SLO Violation Rate** — the fraction of all serviced queries
  whose latency deadline is missed;
- **Accuracy Per Satisfied Query** — the average profiled accuracy over all
  satisfied queries, given each query's model-selection decision.

:class:`MetricsCollector` accumulates these online (O(1) per completion);
:class:`SimulationMetrics` is the frozen result with the derived statistics.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, List, Mapping, Optional, Sequence

from repro._util import percentile
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MetricsCollector",
    "SimSeries",
    "SimulationMetrics",
    "fold_worker_records",
]


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregate outcome of one simulated (or executed) serving run."""

    total_queries: int
    satisfied_queries: int
    violation_rate: float
    accuracy_per_satisfied_query: float
    mean_response_ms: float
    p50_response_ms: float
    p99_response_ms: float
    mean_batch_size: float
    decisions: int
    model_query_counts: Mapping[str, int]

    @property
    def satisfied_fraction(self) -> float:
        """1 - violation rate."""
        return 1.0 - self.violation_rate

    def model_share(self) -> Dict[str, float]:
        """Fraction of queries served by each model."""
        if self.total_queries == 0:
            return {}
        return {
            name: count / self.total_queries
            for name, count in sorted(self.model_query_counts.items())
        }

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"queries={self.total_queries} "
            f"violations={self.violation_rate * 100:.3f}% "
            f"accuracy={self.accuracy_per_satisfied_query * 100:.2f}% "
            f"p99={self.p99_response_ms:.1f}ms "
            f"mean_batch={self.mean_batch_size:.2f}"
        )


class SimSeries:
    """The ``sim_*`` series a run publishes to a registry.

    Per-model dispatch and query counters, response-latency and
    batch-size histograms, completion and violation counts, all
    registered up front; the dispatch kernel's observer folds its
    lifecycle capture into them in bulk through :meth:`publish`.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry
        self.response = registry.histogram(
            "sim_response_ms", help="per-query response latency"
        )
        self.batch = registry.histogram(
            "sim_batch_size",
            help="served batch size per MS&S decision",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128),
        )
        self.completions = registry.counter(
            "sim_completions_total", help="queries completed"
        )
        self.violations = registry.counter(
            "sim_violations_total", help="queries that missed the SLO"
        )

    def publish(
        self,
        batches: Sequence[int],
        dispatched: Mapping[str, int],
        responses: Sequence[float],
        violations: int,
        completed: Mapping[str, int],
    ) -> None:
        """Many decisions (``batches`` in order, and per-model counts) and
        completions (``responses`` in order, the violation count and
        per-model counts) at once: the registry ends up as one record at
        a time, in the same order, would leave it."""
        registry = self._registry
        self.batch.observe_many(batches)
        for model_name, count in dispatched.items():
            registry.counter(
                "sim_dispatch_total",
                help="MS&S decisions per model",
                labels={"model": model_name},
            ).inc(count)
        self.response.observe_many(responses)
        self.completions.inc(len(responses))
        self.violations.inc(violations)
        for model_name, count in completed.items():
            registry.counter(
                "sim_queries_total",
                help="completed queries per serving model",
                labels={"model": model_name},
            ).inc(count)


class MetricsCollector:
    """Accumulates per-query completions into :class:`SimulationMetrics`."""

    def __init__(self, track_responses: bool = True) -> None:
        self._track_responses = track_responses
        self._total = 0
        self._satisfied = 0
        self._accuracy_sum = 0.0
        self._response_sum = 0.0
        self._responses: List[float] = []
        self._model_counts: Counter = Counter()
        self._decisions = 0
        self._batch_sum = 0

    def record_decision(
        self, batch_size: int, model_name: Optional[str] = None
    ) -> None:
        """Note one MS&S decision serving ``batch_size`` queries."""
        self._decisions += 1
        self._batch_sum += batch_size

    def record_completion(
        self,
        model_name: str,
        model_accuracy: float,
        response_ms: float,
        satisfied: bool,
    ) -> None:
        """Note one query's completion."""
        self._total += 1
        self._response_sum += response_ms
        if self._track_responses:
            self._responses.append(response_ms)
        self._model_counts[model_name] += 1
        if satisfied:
            self._satisfied += 1
            self._accuracy_sum += model_accuracy

    def absorb(
        self,
        *,
        total: int,
        satisfied: int,
        accuracy_sum: float,
        response_sum: float,
        responses: List[float],
        model_counts: Mapping[str, int],
        decisions: int,
        batch_sum: int,
    ) -> None:
        """Bulk-load accumulators gathered outside the collector.

        :func:`fold_worker_records` hands its totals over here, so
        :meth:`finalize` stays the one source of the derived statistics.
        """
        self._total += total
        self._satisfied += satisfied
        self._accuracy_sum += accuracy_sum
        self._response_sum += response_sum
        if self._track_responses:
            self._responses.extend(responses)
        self._model_counts.update(model_counts)
        self._decisions += decisions
        self._batch_sum += batch_sum

    def finalize(self) -> SimulationMetrics:
        """Freeze the accumulated statistics."""
        total = self._total
        satisfied = self._satisfied
        violation = 0.0 if total == 0 else 1.0 - satisfied / total
        accuracy = 0.0 if satisfied == 0 else self._accuracy_sum / satisfied
        mean_resp = 0.0 if total == 0 else self._response_sum / total
        if self._track_responses and self._responses:
            # Pre-sort once: percentile() sorts internally, and sorting an
            # already-sorted list is a linear scan, so the second call is
            # effectively free (result unchanged).
            ordered = sorted(self._responses)
            p50 = percentile(ordered, 50.0)
            p99 = percentile(ordered, 99.0)
        else:
            p50 = p99 = mean_resp
        mean_batch = 0.0 if self._decisions == 0 else self._batch_sum / self._decisions
        return SimulationMetrics(
            total_queries=total,
            satisfied_queries=satisfied,
            violation_rate=violation,
            accuracy_per_satisfied_query=accuracy,
            mean_response_ms=mean_resp,
            p50_response_ms=p50,
            p99_response_ms=p99,
            mean_batch_size=mean_batch,
            decisions=self._decisions,
            model_query_counts=dict(self._model_counts),
        )


def fold_worker_records(
    responses: Sequence[List[float]],
    accuracies: Sequence[List[float]],
    *,
    model_counts: Mapping[str, int],
    decisions: int,
    batch_sum: int,
    track_responses: bool = True,
) -> SimulationMetrics:
    """The one fold of per-worker records into :class:`SimulationMetrics`.

    ``responses[w]`` holds worker ``w``'s terminal response times and
    ``accuracies[w]`` the accuracy of each of its satisfied queries, both
    in event order.  The running sums add worker after worker — the order
    :func:`repro.obs.reconstruct.summarize` folds a trace in — so a
    simulation, a sharded serve of the same arrivals and their trace
    reconstructions agree float-exactly.
    """
    response_sum = 0.0
    accuracy_sum = 0.0
    total = 0
    satisfied = 0
    for worker_responses, worker_accuracies in zip(responses, accuracies):
        response_sum = reduce(add, worker_responses, response_sum)
        accuracy_sum = reduce(add, worker_accuracies, accuracy_sum)
        total += len(worker_responses)
        satisfied += len(worker_accuracies)
    collector = MetricsCollector(track_responses=track_responses)
    collector.absorb(
        total=total,
        satisfied=satisfied,
        accuracy_sum=accuracy_sum,
        response_sum=response_sum,
        responses=(
            [r for worker in responses for r in worker] if track_responses else []
        ),
        model_counts=model_counts,
        decisions=decisions,
        batch_sum=batch_sum,
    )
    return collector.finalize()
