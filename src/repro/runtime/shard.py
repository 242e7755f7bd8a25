"""Sharded serving tier (ROADMAP "million-user-scale serving").

The runtime is N controller *shards*, each owning a worker group and one
array-backed dispatch kernel that replays the group's discrete-event
timeline in virtual milliseconds:

- **Consistent round-robin.**  Query ``i`` is assigned to global worker
  ``i mod G`` (``G = num_shards * workers_per_shard``) and worker ``g``
  lives on shard ``g mod S``.  Per-worker arrival streams therefore depend
  only on the worker's *global* index, never on the shard layout — an
  ``S x W`` run and a ``1 x S*W`` run give every worker the identical
  stream, which is what preserves the §4.4 per-worker view kernels and the
  §5.1 guarantees per shard.
- **One kernel per shard, in virtual-time order.**  A shard's kernel
  processes its workers' events in virtual-time order (arrival-first
  tie-break, exactly like the simulator's event loop; equal-time
  completions in dispatch order).  Queries are plain indices into the
  arrival list, and every decision, admission verdict and recorded
  timestamp is taken from the virtual timeline, so metrics and per-worker
  event feeds are float-exactly identical across shard layouts, pacing
  modes and repeat runs.
- **Unpaced or paced.**  Unpaced serving runs each kernel to the end of
  its stream in the calling thread — no event loop, no threads.  Paced
  serving sleeps to the next event of any shard on the scaled wall clock
  and then advances every kernel to the clock's current virtual time,
  measuring how far batch completions lag their virtual instants.
- **Admission control and drop-late.**  :class:`AdmissionControl` bounds
  per-worker queues and rejects hopeless queries at (virtual) arrival
  time; ``drop_late=True`` mirrors the simulator's drop-the-queue
  semantics when the selected action is already late.
- **Live policy hot-swap.**  Dispatch reads the shard's ``selector``
  attribute on every decision, so :meth:`ShardedController.hot_swap` can
  atomically install freshly built selectors (e.g. from the persistent
  :class:`~repro.cache.PolicyCache`) without stalling a single batch;
  auditors follow along through ``RamsisSelector.on_policy_change``.
- **Per-shard observability.**  With a ``run_dir``, every worker writes a
  columnar :class:`~repro.obs.aggregate.ShardTracer` feed
  (``shard-<gid>.cols``, headed with the served SLO) in the simulator's
  event schema, and each shard publishes periodic
  atomic metrics/attribution snapshots — so ``ramsis top``, ``ramsis
  report`` and ``ramsis explain`` work unchanged against a sharded run.
  Every observer call sits behind one ``observed`` check: an unobserved
  run builds no per-query object or argument dict.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution
from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.profiles.models import ModelSet
from repro.runtime.clock import VirtualClock
from repro.runtime.workload import WorkloadGenerator
from repro.selectors.base import ModelSelector, SelectorContext
from repro.sim.latency_model import LatencyModel, StochasticLatency
from repro.sim.metrics import MetricsCollector, SimulationMetrics

__all__ = [
    "AdmissionControl",
    "ShardedController",
    "ShardedReport",
    "REJECTED_MODEL",
    "DROPPED_MODEL",
]

#: Sentinel model labels for terminal events that never ran inference.
REJECTED_MODEL = "<rejected>"
DROPPED_MODEL = "<dropped>"

_INF = float("inf")


@dataclass(frozen=True)
class AdmissionControl:
    """Overload policy evaluated at (virtual) arrival time.

    Both checks are deterministic functions of the worker's virtual
    timeline, so admission decisions — like everything else in the
    sharded runtime — are identical across shard layouts and repeat runs.

    Parameters
    ----------
    max_queue_depth:
        Reject when the target worker already holds this many queued
        queries (the in-flight batch does not count).  ``None`` leaves
        the queue unbounded.
    min_slack_ms:
        Slack-aware rejection: estimate the earliest service start as
        ``max(arrival, in-flight completion)`` and reject when the
        query's remaining slack at that point falls below this floor.
        Conservative by construction — queued-but-undispatched work is
        not estimated (the depth bound exists for that).  ``None``
        disables the check.
    """

    max_queue_depth: Optional[int] = None
    min_slack_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 1:
            raise SimulationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )


@dataclass(frozen=True)
class ShardedReport:
    """Outcome of one sharded serving run.

    ``submitted == rejected + dropped + served`` and every query appears
    exactly once in ``metrics`` (rejections and drops under the sentinel
    model labels), so the accounting is closed — the overload tests
    assert these identities exactly.
    """

    metrics: SimulationMetrics
    #: Wall time of the whole :meth:`ShardedController.serve` call,
    #: set-up and the final metrics fold included.
    wall_seconds: float
    submitted: int
    rejected: int
    dropped: int
    served: int
    num_shards: int
    workers_per_shard: int
    #: End-to-end throughput: terminal events per wall second.
    qps: float
    #: Paced mode only: p99 wall-clock lag of batch completions behind
    #: their virtual completion instants (milliseconds of wall time).
    p99_added_latency_ms: float
    #: Hot-swap epochs performed during the run.
    policy_swaps: int = 0

    @property
    def admitted(self) -> int:
        """Queries that passed admission control."""
        return self.submitted - self.rejected


class _Shard:
    """One controller shard: an array-backed kernel over its worker group.

    Shard ``s`` of ``S`` owns the global workers ``gid = s + w * S`` (local
    index ``w < W``) and the global arrivals ``i = s, s + S, s + 2S, ...``.
    Its local arrival ``j`` is query ``s + j * S`` and goes to local worker
    ``j mod W`` — exactly the global round-robin ``i -> i mod G``.  Queries
    are plain indices into the shard's arrival list; each worker has at
    most one batch in flight, and in-flight batches sit on one completion
    heap keyed ``(t_done, dispatch sequence)``.

    Served and terminal records go into per-worker buffers (response
    times, and the accuracy of each satisfied query) that
    :meth:`ShardedController.serve` folds in global worker order.
    """

    def __init__(
        self,
        controller: "ShardedController",
        index: int,
        arrivals: List[float],
        latencies: List[LatencyModel],
        selector: ModelSelector,
        trace: LoadTrace,
    ) -> None:
        self.index = index
        self.selector = selector
        self.auditor = None
        self.attributor = None
        self.registry: Optional[MetricsRegistry] = None
        self.live: Optional[MetricsCollector] = None
        self.clock: Optional[VirtualClock] = None
        # Serving settings, copied so the shard holds no reference back
        # to its controller (which holds the shards).
        self.num_shards = controller._num_shards
        self.admission = controller._admission
        self.drop_late = controller._drop_late
        self.time_scale = controller._time_scale
        self.get_model = controller._model_set.get
        self.accuracy_of = controller._accuracy_of
        self.load_probe = controller._load_probe
        workers = len(latencies)
        self.tracers: List[Optional[object]] = [None] * workers
        self.arrivals = arrivals
        slo_ms = controller._slo_ms
        self.deadlines = [t + slo_ms for t in arrivals]
        self.latencies = latencies
        #: The trace-oracle probe reads it when no ``load_probe`` is set.
        self.trace = trace
        #: Per-worker ``(model, batch) -> exec_ms`` memos (cacheable
        #: latency models only).
        self.memos: List[dict] = [dict() for _ in range(workers)]
        self.ai = 0
        self.queues: List[Deque[int]] = [deque() for _ in range(workers)]
        #: ``(t_done, model_name, accuracy, served indices)`` or ``None``
        #: when idle.
        self.in_flight: List[Optional[tuple]] = [None] * workers
        self.heap: List[Tuple[float, int, int]] = []
        self.sequence = 0
        self.responses: List[List[float]] = [[] for _ in range(workers)]
        self.accuracies: List[List[float]] = [[] for _ in range(workers)]
        self.model_counts: dict = {}
        self.decisions = 0
        self.batch_sum = 0
        self.rejected = 0
        self.dropped = 0
        self.added_wall_ms: List[float] = []

    @property
    def observed(self) -> bool:
        """Whether any observer is attached to this shard."""
        return (
            self.auditor is not None
            or self.attributor is not None
            or self.live is not None
            or any(t is not None for t in self.tracers)
        )

    def next_ms(self) -> float:
        """Virtual time of the shard's next event (``inf`` when drained)."""
        t = self.arrivals[self.ai] if self.ai < len(self.arrivals) else _INF
        if self.heap and self.heap[0][0] < t:
            t = self.heap[0][0]
        return t

    def advance(self, until_ms: float) -> None:
        """Process every event at virtual time ``<= until_ms``, in order.

        Arrivals come before completions at equal times, and equal-time
        completions in dispatch order — so the event sequence never
        depends on how a run is split into ``advance`` calls.
        """
        arrivals = self.arrivals
        deadlines = self.deadlines
        n = len(arrivals)
        heap = self.heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        queues = self.queues
        in_flight = self.in_flight
        responses = self.responses
        accuracies = self.accuracies
        model_counts = self.model_counts
        workers = len(queues)
        admission = self.admission
        drop_late = self.drop_late
        observed = self.observed
        clock = self.clock
        scale = self.time_scale
        added = self.added_wall_ms
        latencies = self.latencies
        memos = self.memos if latencies[0].cacheable else None
        get_model = self.get_model
        accuracy_of = self.accuracy_of
        probe = self.load_probe
        trace_qps = self.trace.qps
        interval_ms = self.trace.interval_ms
        horizon = self.trace.duration_ms - 1e-9
        ai = self.ai
        try:
            while True:
                next_arrival = arrivals[ai] if ai < n else _INF
                next_done = heap[0][0] if heap else _INF
                if next_arrival <= next_done:
                    if next_arrival > until_ms or ai == n:
                        break
                    now = next_arrival
                    j = ai
                    ai += 1
                    w = j % workers
                    if observed:
                        self._observe_arrival(w, j, now)
                    queue = queues[w]
                    if admission is not None and self._rejects(
                        admission, w, len(queue), deadlines[j], now
                    ):
                        self.rejected += 1
                        responses[w].append(0.0)
                        model_counts[REJECTED_MODEL] = (
                            model_counts.get(REJECTED_MODEL, 0) + 1
                        )
                        if observed:
                            self._observe_terminal(
                                w, j, now, REJECTED_MODEL, 0.0, rejected=True
                            )
                        continue
                    queue.append(j)
                    if in_flight[w] is not None:
                        continue
                else:
                    if next_done > until_ms:
                        break
                    now, _seq, w = heappop(heap)
                    _done, model_name, accuracy, served = in_flight[w]
                    in_flight[w] = None
                    resp = responses[w]
                    acc = accuracies[w]
                    for j in served:
                        resp.append(now - arrivals[j])
                        if now <= deadlines[j]:
                            acc.append(accuracy)
                    model_counts[model_name] = (
                        model_counts.get(model_name, 0) + len(served)
                    )
                    if observed:
                        self._observe_completion(w, now, model_name, accuracy, served)
                    if clock is not None:
                        lag_virtual = clock.now_ms() - now
                        added.append(max(0.0, lag_virtual) * scale)
                    queue = queues[w]
                    if not queue:
                        continue

                # ---- dispatch worker w's queue at `now` ----------------
                queue_len = len(queue)
                slack_ms = deadlines[queue[0]] - now
                if probe is None:
                    # Trace oracle: the load in effect at `now`, clamped
                    # into the trace.
                    c = now if now < horizon else horizon
                    if c < 0.0:
                        c = 0.0
                    anticipated = trace_qps[int(c // interval_ms)]
                else:
                    anticipated = probe(now)
                selector = self.selector
                action = selector.select(
                    queue_length=queue_len,
                    earliest_slack_ms=slack_ms,
                    now_ms=now,
                    anticipated_load_qps=anticipated,
                )
                if action.is_late and drop_late:
                    # Drop the whole queue (the (n, T_j) abstraction only
                    # knows the earliest deadline is missed) and stay idle.
                    self.dropped += queue_len
                    resp = responses[w]
                    for j in queue:
                        resp.append(now - arrivals[j])
                    model_counts[DROPPED_MODEL] = (
                        model_counts.get(DROPPED_MODEL, 0) + queue_len
                    )
                    if observed:
                        for j in queue:
                            self._observe_terminal(
                                w, j, now, DROPPED_MODEL, now - arrivals[j]
                            )
                    queue.clear()
                    continue
                batch = action.batch_size
                if batch > queue_len:
                    batch = queue_len
                if batch < 1:
                    raise SimulationError(
                        f"selector {selector.name} returned batch {batch}"
                    )
                if batch == queue_len:
                    served = list(queue)
                    queue.clear()
                else:
                    popleft = queue.popleft
                    served = [popleft() for _ in range(batch)]
                model_name = action.model
                if memos is not None:
                    memo = memos[w]
                    exec_ms = memo.get((model_name, batch))
                    if exec_ms is None:
                        exec_ms = latencies[w].execution_ms(
                            get_model(model_name), batch
                        )
                        memo[(model_name, batch)] = exec_ms
                else:
                    exec_ms = latencies[w].execution_ms(get_model(model_name), batch)
                accuracy = accuracy_of[model_name]
                self.decisions += 1
                self.batch_sum += batch
                done = now + exec_ms
                in_flight[w] = (done, model_name, accuracy, served)
                self.sequence += 1
                heappush(heap, (done, self.sequence, w))
                if observed:
                    self._observe_dispatch(
                        w, now, model_name, batch, queue_len, slack_ms,
                        anticipated, exec_ms, served,
                    )
        finally:
            self.ai = ai

    def _rejects(
        self,
        admission: AdmissionControl,
        w: int,
        queue_len: int,
        deadline_ms: float,
        now: float,
    ) -> bool:
        """Admission verdict for an arrival at worker ``w`` at ``now``."""
        if (
            admission.max_queue_depth is not None
            and queue_len >= admission.max_queue_depth
        ):
            return True
        if admission.min_slack_ms is not None:
            flight = self.in_flight[w]
            start = now if flight is None else max(now, flight[0])
            return deadline_ms - start < admission.min_slack_ms
        return False

    # ------------------------------------------------------------------
    # Observer taps (only called when the shard is observed)
    # ------------------------------------------------------------------
    def _gid(self, w: int) -> int:
        return self.index + w * self.num_shards

    def _query_id(self, j: int) -> int:
        return self.index + j * self.num_shards

    def _observe_arrival(self, w: int, j: int, t: float) -> None:
        query_id, gid = self._query_id(j), self._gid(w)
        tracer = self.tracers[w]
        if tracer is not None:
            tracer.instant(
                "arrival", "balancer", t, args={"query": query_id, "worker": gid}
            )
        if self.auditor is not None:
            self.auditor.instant(
                "arrival", "balancer", t, args={"query": query_id, "worker": gid}
            )

    def _observe_dispatch(
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
    ) -> None:
        gid = self._gid(w)
        arrivals = self.arrivals
        if self.live is not None:
            self.live.record_decision(batch, model_name=model_name)
        tracer = self.tracers[w]
        auditor = self.auditor
        if tracer is not None or auditor is not None:
            track = f"worker-{gid}"
            serve_args = {
                "worker": gid,
                "model": model_name,
                "batch": batch,
                "queue_len": queue_len,
                "slack_ms": slack_ms,
                "anticipated_qps": anticipated,
            }
            if tracer is not None:
                tracer.complete("serve", track, t, exec_ms, args=serve_args)
                for j in served:
                    tracer.instant(
                        "service_start",
                        track,
                        t,
                        args={
                            "query": self._query_id(j),
                            "model": model_name,
                            "batch": batch,
                            "wait_ms": t - arrivals[j],
                        },
                    )
            if auditor is not None:
                auditor.complete("serve", track, t, exec_ms, args=serve_args)
        if self.attributor is not None:
            self.attributor.observe_decision(gid, model_name, batch, exec_ms)
            for j in served:
                self.attributor.observe_service_start(
                    self._query_id(j), gid, model_name, batch, t - arrivals[j]
                )

    def _observe_completion(
        self, w: int, t: float, model_name: str, accuracy: float, served: List[int]
    ) -> None:
        gid = self._gid(w)
        track = f"worker-{gid}"
        tracer = self.tracers[w]
        for j in served:
            query_id = self._query_id(j)
            satisfied = t <= self.deadlines[j]
            response_ms = t - self.arrivals[j]
            if self.live is not None:
                self.live.record_completion(
                    model_name=model_name,
                    model_accuracy=accuracy,
                    response_ms=response_ms,
                    satisfied=satisfied,
                )
            args = {
                "query": query_id,
                "worker": gid,
                "model": model_name,
                "satisfied": satisfied,
                "accuracy": accuracy,
                "response_ms": response_ms,
            }
            if tracer is not None:
                tracer.instant("completion", track, t, args=args)
            if self.auditor is not None:
                self.auditor.instant("completion", track, t, args=args)
            if self.attributor is not None:
                self.attributor.observe_completion(
                    query_id, gid, model_name, response_ms, satisfied, t_ms=t,
                )

    def _observe_terminal(
        self,
        w: int,
        j: int,
        t: float,
        model_name: str,
        response_ms: float,
        rejected: bool = False,
    ) -> None:
        """Observer taps for a query that never ran inference."""
        query_id, gid = self._query_id(j), self._gid(w)
        if self.live is not None:
            self.live.record_completion(
                model_name=model_name,
                model_accuracy=0.0,
                response_ms=response_ms,
                satisfied=False,
            )
        args = {
            "query": query_id,
            "worker": gid,
            "model": model_name,
            "satisfied": False,
            "dropped": True,
            "accuracy": 0.0,
            "response_ms": response_ms,
        }
        if rejected:
            args["rejected"] = True
        tracer = self.tracers[w]
        if tracer is not None:
            tracer.instant("completion", f"worker-{gid}", t, args=args)
        if self.auditor is not None:
            self.auditor.instant("completion", f"worker-{gid}", t, args=args)
        if self.attributor is not None:
            self.attributor.observe_completion(
                query_id, gid, model_name, response_ms, False,
                t_ms=t, dropped=True,
            )


class ShardedController:
    """N controller shards serving one trace deterministically.

    Parameters
    ----------
    model_set, slo_ms, max_batch_size:
        The served models, the latency SLO and the batch-size cap.
    latency_model:
        Execution latency model (default: stochastic, seeded
        ``seed + 1``).  Worker ``g`` clones it with ``seed + 17 * g`` —
        the same per-global-worker seeding regardless of shard layout.
    time_scale:
        Wall seconds per virtual second in paced mode (``0.05`` serves
        20x faster than real time).
    seed:
        Seeds arrival sampling and the per-worker latency clones.
    num_shards, workers_per_shard:
        The shard topology; ``G = num_shards * workers_per_shard`` global
        workers in total.
    admission:
        Optional :class:`AdmissionControl` applied at arrival.
    drop_late:
        Drop the whole worker queue when the selected action is already
        late (the simulator's ``drop_late`` semantics).
    paced:
        ``True`` replays events on the scaled wall clock and measures
        added latency; ``False`` runs the same kernels flat out — the
        sustained-throughput stress mode.
    run_dir:
        With a directory, every worker writes a ``shard-<gid>.cols``
        event feed and every shard publishes periodic live
        metrics/attribution snapshots there;
        :func:`repro.obs.aggregate.merge_run_dir` folds the feeds back
        into one run — float-exactly, in any shard layout.
    load_probe:
        Deterministic anticipated-load function of virtual time;
        defaults to the trace oracle (§7.2's monitor setting, and the
        only choice that keeps decisions layout-independent).
    """

    def __init__(
        self,
        model_set: ModelSet,
        slo_ms: float,
        num_shards: int,
        workers_per_shard: int,
        max_batch_size: int = 32,
        latency_model: Optional[LatencyModel] = None,
        time_scale: float = 0.05,
        seed: int = 0,
        admission: Optional[AdmissionControl] = None,
        drop_late: bool = False,
        paced: bool = True,
        run_dir: Optional[str] = None,
        snapshot_interval_s: float = 0.5,
        load_probe: Optional[Callable[[float], float]] = None,
    ) -> None:
        if num_shards < 1:
            raise SimulationError(f"num_shards must be >= 1, got {num_shards}")
        if workers_per_shard < 1:
            raise SimulationError(
                f"workers_per_shard must be >= 1, got {workers_per_shard}"
            )
        self._model_set = model_set
        self._accuracy_of = {m.name: m.accuracy for m in model_set}
        self._slo_ms = slo_ms
        self._num_shards = num_shards
        self._workers_per_shard = workers_per_shard
        self._total_workers = num_shards * workers_per_shard
        self._max_batch_size = max_batch_size
        self._latency_model = latency_model or StochasticLatency(seed=seed + 1)
        self._time_scale = time_scale
        self._seed = seed
        self._admission = admission
        self._drop_late = drop_late
        self._paced = paced
        self._run_dir = run_dir
        self._snapshot_interval_s = snapshot_interval_s
        self._load_probe = load_probe
        self._shards: List[_Shard] = []
        self._policy_swaps = 0

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def hot_swap(self, selector_factory: Callable[[int], ModelSelector]) -> None:
        """Atomically install fresh selectors on every shard, mid-run.

        Builds and binds the new selector per shard *before* publishing
        it, then swaps the shard's ``selector`` reference — a single
        atomic store the kernel picks up on its next decision, so no
        batch is ever stalled or served by a half-initialized selector.
        A :class:`~repro.selectors.ramsis.RamsisSelector` built with
        ``on_policy_change`` re-arms the shard's auditor as a side effect
        of its first post-swap decision.
        """
        if not self._shards:
            raise SimulationError("hot_swap() requires an active or completed run")
        context = SelectorContext(
            model_set=self._model_set,
            slo_ms=self._slo_ms,
            num_workers=self._total_workers,
            max_batch_size=self._max_batch_size,
        )
        fresh = []
        for shard in self._shards:
            selector = selector_factory(shard.index)
            selector.bind(context)
            fresh.append(selector)
        for shard, selector in zip(self._shards, fresh):
            shard.selector = selector
        self._policy_swaps += 1

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve(
        self,
        selector_factory: Callable[[int], ModelSelector],
        trace: LoadTrace,
        pattern: Optional[ArrivalDistribution] = None,
        arrivals: Optional[np.ndarray] = None,
        auditors: Optional[Sequence[object]] = None,
        attributors: Optional[Sequence[object]] = None,
    ) -> ShardedReport:
        """Serve one trace across the shards; blocks until drained.

        ``selector_factory(shard_index)`` builds each shard's selector.
        ``auditors`` / ``attributors`` optionally attach one
        :class:`~repro.obs.audit.GuaranteeAuditor` /
        :class:`~repro.obs.attribution.LatencyAttributor` per shard —
        they receive the shard's lifecycle events (virtual timestamps, in
        virtual-time order) as a direct tap.
        """
        start_wall = time.monotonic()
        if auditors is not None and len(auditors) != self._num_shards:
            raise SimulationError("need one auditor entry per shard")
        if attributors is not None and len(attributors) != self._num_shards:
            raise SimulationError("need one attributor entry per shard")

        if arrivals is None:
            arrivals = WorkloadGenerator(
                trace, self._slo_ms, pattern, seed=self._seed
            ).sample()
        submitted = int(arrivals.shape[0])

        context = SelectorContext(
            model_set=self._model_set,
            slo_ms=self._slo_ms,
            num_workers=self._total_workers,
            max_batch_size=self._max_batch_size,
        )
        latencies = [
            self._latency_model.clone(self._seed + 17 * gid)
            for gid in range(self._total_workers)
        ]
        shards: List[_Shard] = []
        for s in range(self._num_shards):
            selector = selector_factory(s)
            selector.bind(context)
            shard = _Shard(
                self,
                s,
                arrivals[s::self._num_shards].tolist(),
                latencies[s::self._num_shards],
                selector,
                trace,
            )
            if auditors is not None:
                shard.auditor = auditors[s]
            if attributors is not None:
                shard.attributor = attributors[s]
            shards.append(shard)
        self._shards = shards
        self._policy_swaps = 0

        run_path = None
        if self._run_dir is not None:
            from pathlib import Path

            from repro.obs.aggregate import ShardTracer
            from repro.obs.attribution import LatencyAttributor

            run_path = Path(self._run_dir)
            run_path.mkdir(parents=True, exist_ok=True)
            for shard in shards:
                shard.tracers = [
                    ShardTracer(
                        run_path / f"shard-{gid}.cols",
                        pid=gid,
                        slo_ms=self._slo_ms,
                    )
                    for gid in range(
                        shard.index, self._total_workers, self._num_shards
                    )
                ]
                shard.registry = MetricsRegistry()
                shard.live = MetricsCollector(
                    track_responses=False, registry=shard.registry
                )
                if shard.attributor is None:
                    shard.attributor = LatencyAttributor(slo_ms=self._slo_ms)

        snapshot_stop: Optional[threading.Event] = None
        snapshot_thread: Optional[threading.Thread] = None
        if run_path is not None:
            snapshot_stop = threading.Event()

            def _publish() -> None:
                while not snapshot_stop.wait(self._snapshot_interval_s):
                    self._write_snapshots(run_path)

            snapshot_thread = threading.Thread(
                target=_publish, name="shard-snapshot", daemon=True
            )
            snapshot_thread.start()

        try:
            if self._paced:
                self._pace(shards)
            else:
                for shard in shards:
                    shard.advance(_INF)
        finally:
            if snapshot_stop is not None:
                snapshot_stop.set()
                snapshot_thread.join(timeout=5.0)
            for shard in shards:
                for tracer in shard.tracers:
                    if tracer is not None:
                        tracer.close()
        if run_path is not None:
            self._write_snapshots(run_path)

        metrics = self._fold(shards)
        rejected = sum(shard.rejected for shard in shards)
        dropped = sum(shard.dropped for shard in shards)
        added = [lag for shard in shards for lag in shard.added_wall_ms]
        if added:
            from repro._util import percentile

            p99_added = percentile(sorted(added), 99.0)
        else:
            p99_added = 0.0
        wall = time.monotonic() - start_wall
        return ShardedReport(
            metrics=metrics,
            wall_seconds=wall,
            submitted=submitted,
            rejected=rejected,
            dropped=dropped,
            served=submitted - rejected - dropped,
            num_shards=self._num_shards,
            workers_per_shard=self._workers_per_shard,
            qps=(metrics.total_queries / wall) if wall > 0 else 0.0,
            p99_added_latency_ms=p99_added,
            policy_swaps=self._policy_swaps,
        )

    def _pace(self, shards: List[_Shard]) -> None:
        """Advance every kernel on the scaled wall clock.

        Sleeps to the earliest next event of any shard (absolute-deadline
        pacing, so waits never accumulate drift), then advances each
        kernel to the clock's current virtual time.  The clock starts
        here, so set-up time is not charged to the first arrivals as
        added latency.
        """
        clock = VirtualClock(self._time_scale)
        for shard in shards:
            shard.clock = clock
        while True:
            next_ms = min(shard.next_ms() for shard in shards)
            if next_ms == _INF:
                return
            clock.sleep_until_ms(next_ms)
            now = clock.now_ms()
            for shard in shards:
                shard.advance(now)

    def _fold(self, shards: List[_Shard]) -> SimulationMetrics:
        """Float-exact fold of every worker's buffers, in global worker order.

        The running sums add each worker's records in its own event order,
        worker after worker — the same sequence of additions as one
        ``record_completion`` per record, and the same flat fold
        ``reconstruct_metrics`` performs on the merged feed, so trace
        reconstruction matches these metrics exactly.
        """
        num_shards = self._num_shards
        response_sum = 0.0
        accuracy_sum = 0.0
        satisfied = 0
        responses: List[float] = []
        for gid in range(self._total_workers):
            shard = shards[gid % num_shards]
            w = gid // num_shards
            worker_responses = shard.responses[w]
            worker_accuracies = shard.accuracies[w]
            response_sum = reduce(add, worker_responses, response_sum)
            accuracy_sum = reduce(add, worker_accuracies, accuracy_sum)
            satisfied += len(worker_accuracies)
            responses.extend(worker_responses)
        model_counts: Counter = Counter()
        for shard in shards:
            model_counts.update(shard.model_counts)
        collector = MetricsCollector()
        collector.absorb(
            total=len(responses),
            satisfied=satisfied,
            accuracy_sum=accuracy_sum,
            response_sum=response_sum,
            responses=responses,
            model_counts=model_counts,
            decisions=sum(shard.decisions for shard in shards),
            batch_sum=sum(shard.batch_sum for shard in shards),
        )
        return collector.finalize()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _write_snapshots(self, run_path) -> None:
        from repro.obs.aggregate import write_live_snapshot

        for shard in self._shards:
            if shard.registry is None and shard.attributor is None:
                continue
            write_live_snapshot(
                run_path,
                registry=shard.registry,
                attributor=shard.attributor,
                pid=self._total_workers + shard.index,
            )
