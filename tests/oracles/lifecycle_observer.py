"""The dispatch kernel's observer as one args dict per row: the oracle of
the lifecycle capture.

:class:`DictLifecycleObserver` is the kernel observer before the
lifecycle capture: it builds an args dict for every tracer row (which a
:class:`~repro.obs.aggregate.ShardTracer` then encodes) and publishes
every decision and completion to the registry as it happens.  The
production :class:`~repro.sim.kernel.LifecycleObserver` passes constant
key tuples and value tuples instead, and folds its capture into the
registry in bulk; ``tests/test_lifecycle_capture.py`` serves the same
run through both and requires the merged artifacts to be byte-equal.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from tests.oracles.sim_series import PublishingCollector

__all__ = ["DictLifecycleObserver"]


class DictLifecycleObserver:
    """The kernel observer with one args dict per row and a live registry.

    Every query's ``arrival`` / ``service_start`` / ``completion``
    instant and every batch's ``serve`` span reach the worker's tracer
    as an ``instant`` / ``complete`` call with an args dict, and the
    registry's ``sim_*`` series take one decision and one completion at
    a time through a :class:`~tests.oracles.sim_series.PublishingCollector`.  The
    shard's snapshot hooks are no-ops: the registry is already current,
    and the oracle keeps no capture to replay, so serve through it with
    a snapshot interval longer than the serve.  It feeds no attributor:
    a shard's attribution artifacts come from the merged feeds, and the
    attributor's own record stream is pinned by
    ``tests/test_attribution_replay.py`` and
    ``tests/test_attribution_live_fold.py``.  An attached auditor (a
    :class:`~tests.oracles.audit_fold.HookAuditor`) gets its
    ``observe_*`` hooks live, after the tracer.
    """

    def __init__(
        self,
        kernel: Any,
        tracers: Sequence[Optional[Any]],
        attributor: Optional[Any] = None,
        registry: Optional[MetricsRegistry] = None,
        base: int = 0,
        stride: int = 1,
    ) -> None:
        self.arrivals = kernel.arrivals
        self.deadlines = kernel.deadlines
        self.tracers = list(tracers)
        self.auditor: Optional[Any] = None
        self.attributor = attributor
        self.registry = registry
        self.live = (
            None
            if registry is None
            else PublishingCollector(track_responses=False, registry=registry)
        )
        self.base = base
        self.stride = stride
        #: No capture: the serve loop never finds one to fold.
        self.capture = None

    def attach(self, auditor: Any) -> None:
        """Feed ``auditor``'s hooks live."""
        self.auditor = auditor

    def arrival(self, w: int, j: int, t: float, depth: int) -> None:
        """Query ``j`` arrived; ``depth`` is its queue's length after it."""
        tracer = self.tracers[max(w, 0)]
        if tracer is not None:
            args = {"query": self.base + j * self.stride}
            if w >= 0:
                args["worker"] = self.base + w * self.stride
            tracer.instant("arrival", "balancer", t, args=args)
        if self.auditor is not None:
            self.auditor.observe_arrival(t)

    def dispatch(
        self,
        w: int,
        t: float,
        model_name: str,
        batch: int,
        queue_len: int,
        slack_ms: float,
        anticipated: float,
        exec_ms: float,
        served: List[int],
        depth: int,
    ) -> None:
        """Worker ``w`` started ``served``; ``depth`` is the queue left."""
        base, stride = self.base, self.stride
        gid = base + w * stride
        arrivals = self.arrivals
        if self.live is not None:
            self.live.record_decision(batch, model_name=model_name)
        tracer = self.tracers[w]
        if tracer is not None:
            track = f"worker-{gid}"
            tracer.complete(
                "serve",
                track,
                t,
                exec_ms,
                args={
                    "worker": gid,
                    "model": model_name,
                    "batch": batch,
                    "queue_len": queue_len,
                    "slack_ms": slack_ms,
                    "anticipated_qps": anticipated,
                },
            )
            for j in served:
                tracer.instant(
                    "service_start",
                    track,
                    t,
                    args={
                        "query": base + j * stride,
                        "model": model_name,
                        "batch": batch,
                        "wait_ms": t - arrivals[j],
                    },
                )
        if self.auditor is not None:
            self.auditor.observe_decision(queue_len, slack_ms, t + exec_ms)

    def completion(
        self, w: int, t: float, model_name: str, accuracy: float, served: List[int]
    ) -> None:
        """Worker ``w`` finished the batch ``served``."""
        arrivals = self.arrivals
        deadlines = self.deadlines
        for j in served:
            self._end(
                w, j, t, model_name, accuracy, t <= deadlines[j], t - arrivals[j]
            )

    def terminal(
        self,
        w: int,
        queries: Sequence[int],
        t: float,
        model_name: str,
        rejected: bool = False,
    ) -> None:
        """``queries`` ended without inference: dropped (the whole queue)
        or rejected at admission (one query, response 0)."""
        arrivals = self.arrivals
        for j in queries:
            response_ms = 0.0 if rejected else t - arrivals[j]
            self._end(w, j, t, model_name, 0.0, False, response_ms, True, rejected)

    def _end(
        self,
        w: int,
        j: int,
        t: float,
        model_name: str,
        accuracy: float,
        satisfied: bool,
        response_ms: float,
        dropped: bool = False,
        rejected: bool = False,
    ) -> None:
        """One query's terminal record, to every sink."""
        query_id = self.base + j * self.stride
        gid = self.base + w * self.stride
        if self.live is not None:
            self.live.record_completion(
                model_name=model_name,
                model_accuracy=accuracy,
                response_ms=response_ms,
                satisfied=satisfied,
            )
        tracer = self.tracers[w]
        if tracer is not None:
            args = {"query": query_id, "worker": gid, "model": model_name}
            args["satisfied"] = satisfied
            if dropped:
                args["dropped"] = True
            args["accuracy"] = accuracy
            args["response_ms"] = response_ms
            if rejected:
                args["rejected"] = True
            tracer.instant("completion", f"worker-{gid}", t, args=args)
        if self.auditor is not None:
            self.auditor.observe_completion(t, satisfied, accuracy)

    def drain(self) -> List[tuple]:
        """Nothing captured: the registry is fed live."""
        return []

    def fold(self, entries: Sequence[tuple], auditor: Optional[Any] = None) -> None:
        """Nothing to fold: the registry and the auditor are fed live."""

    def emit(self) -> None:
        """Nothing to emit: the tracers are fed live."""
