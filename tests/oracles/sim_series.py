"""The ``sim_*`` registry series fed one record at a time: the oracle of the
bulk fold.

:class:`PublishingCollector` is :class:`~repro.sim.metrics.MetricsCollector`
with the per-event registry publishing it had before the dispatch kernel's
observer started folding its lifecycle capture through
:meth:`repro.sim.metrics.SimSeries.publish`.  The reference event loop
(:mod:`tests.oracles.sim_loop`) and the args-dict observer
(:mod:`tests.oracles.lifecycle_observer`) publish through it, so the
equivalence tests require the bulk fold to leave every registry exactly
as these per-event calls do.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.sim.metrics import MetricsCollector

__all__ = ["PublishingCollector"]


class PublishingCollector(MetricsCollector):
    """A collector that also publishes every decision and completion."""

    def __init__(
        self,
        track_responses: bool = True,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(track_responses=track_responses)
        self._registry = registry
        if registry is not None:
            self._h_response = registry.histogram(
                "sim_response_ms", help="per-query response latency"
            )
            self._h_batch = registry.histogram(
                "sim_batch_size",
                help="served batch size per MS&S decision",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            )
            self._c_completions = registry.counter(
                "sim_completions_total", help="queries completed"
            )
            self._c_violations = registry.counter(
                "sim_violations_total", help="queries that missed the SLO"
            )
            self._dispatch_counters: Dict[str, object] = {}
            self._query_counters: Dict[str, object] = {}

    def record_decision(
        self, batch_size: int, model_name: Optional[str] = None
    ) -> None:
        super().record_decision(batch_size, model_name=model_name)
        registry = self._registry
        if registry is not None:
            self._h_batch.observe(batch_size)
            if model_name is not None:
                counter = self._dispatch_counters.get(model_name)
                if counter is None:
                    counter = registry.counter(
                        "sim_dispatch_total",
                        help="MS&S decisions per model",
                        labels={"model": model_name},
                    )
                    self._dispatch_counters[model_name] = counter
                counter.inc()

    def record_completion(
        self,
        model_name: str,
        model_accuracy: float,
        response_ms: float,
        satisfied: bool,
    ) -> None:
        super().record_completion(model_name, model_accuracy, response_ms, satisfied)
        registry = self._registry
        if registry is not None:
            self._h_response.observe(response_ms)
            self._c_completions.inc()
            if not satisfied:
                self._c_violations.inc()
            counter = self._query_counters.get(model_name)
            if counter is None:
                counter = registry.counter(
                    "sim_queries_total",
                    help="completed queries per serving model",
                    labels={"model": model_name},
                )
                self._query_counters[model_name] = counter
            counter.inc()
