"""Sharded serving tier (ROADMAP "million-user-scale serving").

The runtime is N controller *shards*, each owning a worker group and one
:class:`~repro.sim.kernel.DispatchKernel` — the simulator's own event
kernel — that replays the group's discrete-event timeline in virtual
milliseconds:

- **Consistent round-robin.**  Query ``i`` is assigned to global worker
  ``i mod G`` (``G = num_shards * workers_per_shard``) and worker ``g``
  lives on shard ``g mod S``.  Per-worker arrival streams therefore depend
  only on the worker's *global* index, never on the shard layout — an
  ``S x W`` run and a ``1 x S*W`` run give every worker the identical
  stream, which is what preserves the §4.4 per-worker view kernels and the
  §5.1 guarantees per shard.
- **One kernel per shard, in virtual-time order.**  A shard's kernel
  processes its workers' events in virtual-time order (arrival-first
  tie-break; equal-time completions in dispatch order).  Every decision,
  admission verdict and recorded timestamp is taken from the virtual
  timeline, and :func:`~repro.sim.kernel.fold_kernels` folds the records
  in global worker order, so metrics and per-worker event feeds are
  float-exactly identical across shard layouts, pacing modes and repeat
  runs — and to a :class:`~repro.sim.simulator.Simulation` of the same
  arrivals with the trace-oracle monitor.
- **Unpaced or paced, on one thread.**  One serve loop in the calling
  thread drives every kernel.  Unpaced, it advances them flat out in
  slices of arrivals; paced, it sleeps to the next event of any shard on
  the scaled wall clock and then advances every kernel to the clock's
  current virtual time, measuring how far batch completions lag their
  virtual instants.  Between slices or wake-ups it takes the snapshot
  ticks.
- **Admission control and drop-late.**  :class:`AdmissionControl` bounds
  per-worker queues and rejects hopeless queries at (virtual) arrival
  time; ``drop_late=True`` mirrors the simulator's drop-the-queue
  semantics when the selected action is already late.
- **Live policy hot-swap.**  Dispatch reads the kernel's selector list
  on every decision, so :meth:`ShardedController.hot_swap` can
  atomically install freshly built selectors (e.g. from the persistent
  :class:`~repro.cache.PolicyCache`) without stalling a single batch;
  auditors follow along through ``RamsisSelector.on_policy_change``.
- **Per-shard observability.**  With a ``run_dir``, every worker writes a
  columnar :class:`~repro.obs.aggregate.ShardTracer` feed
  (``shard-<gid>.cols``, headed with the served SLO) in the simulator's
  event schema, and each shard publishes periodic
  atomic metrics/attribution snapshots, folded between dispatches by
  the serve loop from the shard's lifecycle capture (the one source of every
  attributor's records) — so ``ramsis top``, ``ramsis
  report`` and ``ramsis explain`` work unchanged against a sharded run.
  All of a shard's taps sit in one kernel observer: an unobserved run
  builds no per-query object or argument dict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution
from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.profiles.models import ModelSet
from repro.runtime.clock import VirtualClock
from repro.runtime.workload import WorkloadGenerator
from repro.selectors.base import ModelSelector, SelectorContext
from repro.sim.kernel import (
    DROPPED_MODEL,
    REJECTED_MODEL,
    DispatchKernel,
    LifecycleObserver,
    fold_kernels,
    normalize_arrivals,
)
from repro.sim.latency_model import LatencyModel, StochasticLatency
from repro.sim.metrics import SimulationMetrics

__all__ = [
    "AdmissionControl",
    "ShardedController",
    "ShardedReport",
    "REJECTED_MODEL",
    "DROPPED_MODEL",
]

_INF = float("inf")
#: Global arrivals one step of an unpaced serve advances.
_SLICE = 4096
#: Capture entries that make the serve loop fold a shard's capture
#: between ticks: few enough that a paced fold stays a stall of about a
#: millisecond (a columnar fold's fixed cost is about half that); an
#: unpaced step appends far more, so unpaced serves fold every step.
_FOLD = 32


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
        metrics/attribution snapshots there (see :meth:`serve`);
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
        self._kernels: List[DispatchKernel] = []
        self._observers: List[Optional[LifecycleObserver]] = []
        self._auditors: List[Optional[object]] = []
        self._policy_swaps = 0

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------
    def hot_swap(self, selector_factory: Callable[[int], ModelSelector]) -> None:
        """Atomically install fresh selectors on every shard, mid-run.

        Builds and binds the new selector per shard *before* publishing
        it, then swaps the kernel's per-worker selector list — a single
        atomic store the kernel picks up on its next decision, so no
        batch is ever stalled or served by a half-initialized selector.
        A :class:`~repro.selectors.ramsis.RamsisSelector` built with
        ``on_policy_change`` re-arms the shard's auditor as a side effect
        of its first post-swap decision.
        """
        if not self._kernels:
            raise SimulationError("hot_swap() requires an active or completed run")
        fresh = self._selectors(selector_factory)
        for kernel, selectors in zip(self._kernels, fresh):
            kernel.selectors = selectors
        self._policy_swaps += 1

    def _selectors(
        self, selector_factory: Callable[[int], ModelSelector]
    ) -> List[List[ModelSelector]]:
        """Each shard's bound selector, once per local worker."""
        context = SelectorContext(
            model_set=self._model_set,
            slo_ms=self._slo_ms,
            num_workers=self._total_workers,
            max_batch_size=self._max_batch_size,
        )
        fresh = []
        for s in range(self._num_shards):
            selector = selector_factory(s)
            selector.bind(context)
            fresh.append([selector] * self._workers_per_shard)
        return fresh

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
        :class:`~repro.obs.attribution.LatencyAttributor` per shard, as a
        simulation's ``SimulationConfig.auditor`` / ``attributor`` slots
        do: both are folded from the shard's ordered lifecycle capture
        (virtual timestamps, in virtual-time order), off the dispatch
        path — an auditor and a ``LatencyAttributor`` in columns, any
        other hook-shaped attributor has its ``observe_*`` hooks called in
        event order.  A caller's auditor and attributor have folded every
        query when the serve returns.

        The serve loop folds each observed shard's capture into the
        shard's registry, attributor and auditor between its steps once the
        capture holds :data:`_FOLD` entries (every slice of arrivals
        unpaced), so a capture holds no more than one step of the serve.
        With a ``run_dir``, a shard without a caller's attributor gets a
        fresh one as its view, and the loop takes a snapshot tick of each
        shard every ``snapshot_interval_s`` of wall time (the shards'
        ticks spread over the interval) that folds and publishes its
        ``metrics-<pid>.json`` / ``attribution-<pid>.json`` (``pid = G +
        shard``); an unpaced run-dir serve folds nothing before its first
        tick, so a serve shorter than one interval never pays for its
        view.  A view's snapshot lags the serve by at most one interval
        and is not rewritten when the serve ends (the run's attribution
        is the merged ``attribution.json``): the end of the serve folds
        the rest of the capture into the registry, a caller's attributor
        and the auditor only, then publishes once more.
        """
        start_wall = time.monotonic()
        num_shards = self._num_shards
        if auditors is not None and len(auditors) != num_shards:
            raise SimulationError("need one auditor entry per shard")
        if attributors is not None and len(attributors) != num_shards:
            raise SimulationError("need one attributor entry per shard")

        if arrivals is None:
            arrivals = WorkloadGenerator(
                trace, self._slo_ms, pattern, seed=self._seed
            ).sample()
        arrivals = normalize_arrivals(arrivals)
        submitted = int(arrivals.shape[0])

        latencies = [
            self._latency_model.clone(self._seed + 17 * gid)
            for gid in range(self._total_workers)
        ]
        kernels = [
            DispatchKernel(
                arrivals[s::num_shards].tolist(),
                self._slo_ms,
                selectors,
                latencies[s::num_shards],
                # Per-worker clones: speed 1.0 is exact.
                (1.0,) * self._workers_per_shard,
                self._model_set,
                trace=trace,
                probe=self._load_probe,
                admission=self._admission,
                drop_late=self._drop_late,
            )
            for s, selectors in enumerate(self._selectors(selector_factory))
        ]
        observers: List[Optional[LifecycleObserver]] = [None] * num_shards
        run_path = None
        if self._run_dir is not None:
            from pathlib import Path

            from repro.obs.aggregate import ShardTracer
            from repro.obs.attribution import LatencyAttributor

            run_path = Path(self._run_dir)
            run_path.mkdir(parents=True, exist_ok=True)
        for s, kernel in enumerate(kernels):
            tracers: List[Optional[object]] = [None] * self._workers_per_shard
            auditor = None if auditors is None else auditors[s]
            attributor = None if attributors is None else attributors[s]
            registry = None
            if run_path is not None:
                # Per-worker feeds, and a registry whose sim_* series the
                # snapshots fold from the shard's lifecycle capture.
                tracers = [
                    ShardTracer(
                        run_path / f"shard-{gid}.cols", pid=gid, slo_ms=self._slo_ms
                    )
                    for gid in range(s, self._total_workers, num_shards)
                ]
                registry = MetricsRegistry()
                if attributor is None:
                    # The ``ramsis top`` / ``explain`` view.
                    attributor = LatencyAttributor(slo_ms=self._slo_ms)
            elif auditor is None and attributor is None:
                continue
            observers[s] = kernel.observer = LifecycleObserver(
                kernel, tracers, attributor, registry, base=s, stride=num_shards
            )
            if auditor is not None:
                observers[s].attach(auditor)
        self._kernels = kernels
        self._observers = observers
        self._auditors = list(auditors or [None] * num_shards)
        self._policy_swaps = 0

        try:
            self._run(kernels, arrivals, run_path)
        finally:
            for observer in observers:
                if observer is not None:
                    for tracer in observer.tracers:
                        if tracer is not None:
                            tracer.close()
        for s, observer in enumerate(observers):
            if observer is not None and (
                attributors is None or attributors[s] is None
            ):
                # Only a caller's attributor is owed the rest: a view's
                # run-wide fold is the merged attribution.json.
                observer.attributor = None
        for s in range(num_shards):
            self._fold_capture(s, run_path)

        metrics = fold_kernels(kernels)
        rejected = sum(kernel.rejected for kernel in kernels)
        dropped = sum(kernel.dropped for kernel in kernels)
        added = [lag for kernel in kernels for lag in kernel.added_wall_ms]
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
            num_shards=num_shards,
            workers_per_shard=self._workers_per_shard,
            qps=(metrics.total_queries / wall) if wall > 0 else 0.0,
            p99_added_latency_ms=p99_added,
            policy_swaps=self._policy_swaps,
        )

    def _run(
        self, kernels: List[DispatchKernel], arrivals: np.ndarray, run_path
    ) -> None:
        """Advance every kernel to the end of its stream, folding the
        captures on the way.

        Paced, the loop sleeps until the earlier of any shard's next event
        (absolute-deadline pacing on the scaled wall clock, so waits never
        accumulate drift) and, with a run dir, the next snapshot tick, then
        advances each kernel to the clock's current virtual time; the
        clock starts here, so set-up time is not charged to the first
        arrivals as added latency.  Unpaced, it advances every kernel in
        slices of :data:`_SLICE` global arrivals.  Kernel event order does
        not depend on how ``advance`` is split, so neither the pacing mode
        nor the folds change what is served.

        Between steps, while events remain, the loop folds the observed
        shards' captures (:meth:`_fold_capture`): with a run dir, each
        shard's tick folds its capture and publishes once
        ``snapshot_interval_s`` of wall time has passed since its last;
        the shards' ticks are spread over the interval, so one tick's
        fold and publish stall the loop for one shard, not all of them.
        Any other step folds only the captures holding at least
        :data:`_FOLD` entries — every step unpaced, where a step appends
        far more — so a capture never holds more than one step.  An
        unpaced run-dir serve folds nothing before its first tick: its
        views are read only on ticks, so a serve shorter than one
        interval never pays for them.
        """
        ticking = run_path is not None
        folding = self._paced or not ticking
        interval = self._snapshot_interval_s
        clock = None
        if self._paced:
            clock = VirtualClock(self._time_scale)
            for kernel in kernels:
                kernel.clock = clock
        # Unpaced slice ends: every _SLICE-th arrival, then the rest.
        bounds = iter(arrivals[_SLICE - 1 : -1 : _SLICE].tolist())
        start = time.monotonic()
        ticks = [start + interval * (1 + s / len(kernels)) for s in range(len(kernels))]
        while True:
            next_ms = min(kernel.next_ms() for kernel in kernels)
            if next_ms == _INF:
                return
            now = time.monotonic()
            due = [s for s, tick in enumerate(ticks) if ticking and now >= tick]
            for s in due:
                self._fold_capture(s, run_path)
                ticks[s] = time.monotonic() + interval
            if due:
                folding = True
            elif folding:
                for s, observer in enumerate(self._observers):
                    if observer is not None and len(observer.capture or ()) >= _FOLD:
                        self._fold_capture(s)
            if clock is None:
                until_ms = next(bounds, _INF)
            else:
                tick_s = min(ticks) - time.monotonic()
                if ticking and tick_s < clock.wall_s_until(next_ms):
                    time.sleep(max(tick_s, 0.0))
                    continue
                clock.sleep_until_ms(next_ms)
                until_ms = clock.now_ms()
            for kernel in kernels:
                kernel.advance(until_ms)

    def _fold_capture(self, s: int, run_path=None) -> None:
        """Fold shard ``s``'s drained capture into its registry,
        attributor and auditor; with a run dir, publish its
        ``metrics-<pid>.json`` and ``attribution-<pid>.json``
        (``pid = G + s``)."""
        from repro.obs.aggregate import write_live_snapshot

        observer = self._observers[s]
        if observer is None:
            return
        observer.fold(observer.drain(), self._auditors[s])
        if run_path is not None:
            write_live_snapshot(
                run_path,
                registry=observer.registry,
                attributor=observer.attributor,
                pid=self._total_workers + s,
            )
