"""The simulator's reference event loop: the dispatch kernel's oracle.

:func:`reference_event_loop` is the simulator's original loop — one
:class:`Query` object per query, a closure per
dispatch, every observability hook inline.  :func:`run_reference` runs it
with exactly the input handling of :meth:`Simulation.run
<repro.sim.simulator.Simulation.run>`, so
``tests/test_sim_equivalence.py`` can require the production kernel to
return ``==`` metrics in every configuration.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution
from repro.arrivals.traces import LoadTrace
from repro.errors import SimulationError
from repro.obs.trace import NULL_TRACER
from repro.selectors.base import ModelSelector
from repro.sim.metrics import SimulationMetrics, fold_worker_records
from repro.sim.monitor import LoadMonitor
from repro.sim.simulator import QueueDiscipline, Simulation, SimulationConfig
from tests.oracles.sim_series import PublishingCollector

__all__ = ["Query", "reference_event_loop", "run_reference"]


@dataclass(frozen=True, order=True)
class Query:
    """One inference request.

    Ordered by ``(deadline_ms, query_id)`` so heaps and sorts are
    deterministic.
    """

    deadline_ms: float
    query_id: int
    arrival_ms: float = field(compare=False)

    @staticmethod
    def create(query_id: int, arrival_ms: float, slo_ms: float) -> "Query":
        """Assign the §3.2.1 deadline: arrival time plus the latency SLO."""
        return Query(
            deadline_ms=arrival_ms + slo_ms,
            query_id=query_id,
            arrival_ms=arrival_ms,
        )

    def slack_at(self, now_ms: float) -> float:
        """Remaining time before the deadline (negative when missed)."""
        return self.deadline_ms - now_ms


def run_reference(
    config: SimulationConfig,
    selector: Union[ModelSelector, Sequence[ModelSelector]],
    trace: LoadTrace,
    pattern: Optional[ArrivalDistribution] = None,
    arrival_times: Optional[np.ndarray] = None,
) -> SimulationMetrics:
    """:meth:`Simulation.run`, served by the reference loop."""
    selectors, arrivals, discipline = Simulation(config)._prepare(
        selector, trace, pattern, arrival_times
    )
    return reference_event_loop(config, selectors, arrivals, discipline)


def reference_event_loop(
    cfg: SimulationConfig,
    selectors: List[ModelSelector],
    arrivals: np.ndarray,
    discipline: QueueDiscipline,
) -> SimulationMetrics:
    """The golden event loop: per-query objects, inline obs hooks.

    This is the simulator's original implementation, kept verbatim but
    for its final accounting: terminal records also go into per-worker
    buffers, folded by :func:`repro.sim.metrics.fold_worker_records` in
    worker-index order (the registry-publishing collector still sees
    every record in event order).
    """
    monitor = cfg.monitor if cfg.monitor is not None else LoadMonitor()
    monitor.reset()
    monitor.attach_registry(cfg.registry)
    balancer = cfg.balancer
    balancer.reset()
    latency_model = cfg.latency_model.clone(cfg.seed + 1)
    registry = cfg.registry
    metrics = PublishingCollector(
        track_responses=cfg.track_responses, registry=registry
    )
    model_set = cfg.model_set

    # Observability is opt-in; `tracing` guards every hook so the
    # default run pays only a boolean check per event.
    tracer = cfg.tracer if cfg.tracer is not None else NULL_TRACER
    tracing = tracer.enabled
    attributor = cfg.attributor
    attributing = attributor is not None
    if registry is not None:
        gauge_anticipated = registry.gauge(
            "sim_anticipated_load_qps",
            help="load the monitor reports to selectors",
        )
        gauge_realized = registry.gauge(
            "sim_realized_load_qps",
            help="trailing moving-average arrival rate",
        )
    else:
        gauge_anticipated = gauge_realized = None

    num_workers = cfg.num_workers
    per_worker = discipline is QueueDiscipline.PER_WORKER
    queues: List[Deque[Query]] = [
        deque() for _ in range(num_workers if per_worker else 1)
    ]
    if registry is not None:
        # One depth gauge per queue: worker-indexed under the
        # per-worker discipline, a single shared one under central.
        queue_gauges: List[Optional[object]] = [
            registry.gauge(
                "sim_queue_depth",
                help="pending queries per queue",
                labels={"worker": str(i) if per_worker else "central"},
            )
            for i in range(len(queues))
        ]
    else:
        queue_gauges = [None] * len(queues)
    busy = [False] * num_workers
    idle_workers: List[int] = list(range(num_workers - 1, -1, -1))

    # Completion heap entries: (time, sequence, worker, model_name, batch)
    completions: List[Tuple[float, int, int, str, List[Query]]] = []
    sequence = 0
    responses: List[List[float]] = [[] for _ in range(num_workers)]
    accuracies: List[List[float]] = [[] for _ in range(num_workers)]
    batch_sum = 0

    speed = (
        cfg.worker_speed_factors
        if cfg.worker_speed_factors is not None
        else (1.0,) * num_workers
    )

    def dispatch(worker: int, queue: Deque[Query], now: float) -> bool:
        """Consult the worker's selector and start service; False when
        the decision dropped the queue and the worker stays idle."""
        nonlocal sequence, batch_sum
        head = queue[0]
        queue_len = len(queue)
        earliest_slack_ms = head.slack_at(now)
        anticipated = monitor.anticipated_load_qps(now)
        action = selectors[worker].select(
            queue_length=queue_len,
            earliest_slack_ms=earliest_slack_ms,
            now_ms=now,
            anticipated_load_qps=anticipated,
        )
        batch = min(action.batch_size, queue_len)
        if batch < 1:
            raise SimulationError(
                f"selector {selectors[worker].name} returned batch {batch}"
            )
        if action.is_late and cfg.drop_late:
            # Drop the whole queue (the (n, T_j) abstraction knows only
            # the earliest deadline is missed; see DESIGN.md §3) and
            # leave the worker idle.
            while queue:
                dropped = queue.popleft()
                metrics.record_completion(
                    model_name="<dropped>",
                    model_accuracy=0.0,
                    response_ms=now - dropped.arrival_ms,
                    satisfied=False,
                )
                responses[worker].append(now - dropped.arrival_ms)
                if attributing:
                    attributor.observe_completion(
                        dropped.query_id,
                        worker,
                        "<dropped>",
                        now - dropped.arrival_ms,
                        False,
                        t_ms=now,
                        dropped=True,
                    )
                if tracing:
                    tracer.instant(
                        "completion",
                        f"worker-{worker}",
                        now,
                        args={
                            "query": dropped.query_id,
                            "worker": worker,
                            "model": "<dropped>",
                            "satisfied": False,
                            "dropped": True,
                            "accuracy": 0.0,
                            "response_ms": now - dropped.arrival_ms,
                        },
                    )
            if tracing:
                tracer.counter(
                    "queue_depth",
                    f"worker-{worker}" if per_worker else "central",
                    now,
                    0,
                )
            return False
        served = [queue.popleft() for _ in range(batch)]
        model = model_set.get(action.model)
        exec_ms = latency_model.execution_ms(model, batch) * speed[worker]
        metrics.record_decision(batch, model_name=model.name)
        batch_sum += batch
        busy[worker] = True
        sequence += 1
        heapq.heappush(
            completions, (now + exec_ms, sequence, worker, model.name, served)
        )
        if attributing:
            attributor.observe_decision(worker, model.name, batch, exec_ms)
            for query in served:
                attributor.observe_service_start(
                    query.query_id,
                    worker,
                    model.name,
                    batch,
                    now - query.arrival_ms,
                )
        if tracing:
            track = f"worker-{worker}"
            tracer.complete(
                "serve",
                track,
                now,
                exec_ms,
                args={
                    "worker": worker,
                    "model": model.name,
                    "batch": batch,
                    "queue_len": queue_len,
                    "slack_ms": earliest_slack_ms,
                    "anticipated_qps": anticipated,
                },
            )
            for query in served:
                tracer.instant(
                    "service_start",
                    track,
                    now,
                    args={
                        "query": query.query_id,
                        "model": model.name,
                        "batch": batch,
                        "wait_ms": now - query.arrival_ms,
                    },
                )
            tracer.counter(
                "queue_depth",
                track if per_worker else "central",
                now,
                len(queue),
            )
        if registry is not None:
            gauge_anticipated.set(anticipated, t_ms=now)
            gauge_realized.set(monitor.realized_load_qps(now), t_ms=now)
            queue_gauges[worker if per_worker else 0].set(
                len(queue), t_ms=now
            )
        return True

    arrival_index = 0
    total_arrivals = arrivals.shape[0]
    next_query_id = 0

    while arrival_index < total_arrivals or completions:
        next_arrival = (
            arrivals[arrival_index]
            if arrival_index < total_arrivals
            else float("inf")
        )
        next_done = completions[0][0] if completions else float("inf")

        if next_arrival <= next_done:
            now = float(next_arrival)
            arrival_index += 1
            monitor.record_arrival(now)
            query = Query.create(next_query_id, now, cfg.slo_ms)
            next_query_id += 1
            if per_worker:
                worker = balancer.assign([len(q) for q in queues])
                queues[worker].append(query)
                if tracing:
                    tracer.instant(
                        "arrival",
                        "balancer",
                        now,
                        args={"query": query.query_id, "worker": worker},
                    )
                    tracer.counter(
                        "queue_depth",
                        f"worker-{worker}",
                        now,
                        len(queues[worker]),
                    )
                if registry is not None:
                    queue_gauges[worker].set(len(queues[worker]), t_ms=now)
                if not busy[worker]:
                    dispatch(worker, queues[worker], now)
            else:
                queues[0].append(query)
                if tracing:
                    tracer.instant(
                        "arrival",
                        "balancer",
                        now,
                        args={"query": query.query_id},
                    )
                    tracer.counter(
                        "queue_depth", "central", now, len(queues[0])
                    )
                if registry is not None:
                    queue_gauges[0].set(len(queues[0]), t_ms=now)
                if idle_workers:
                    worker = idle_workers.pop()
                    if not dispatch(worker, queues[0], now):
                        idle_workers.append(worker)
        else:
            now, _, worker, model_name, served = heapq.heappop(completions)
            model = model_set.get(model_name)
            for query in served:
                satisfied = now <= query.deadline_ms
                metrics.record_completion(
                    model_name=model_name,
                    model_accuracy=model.accuracy,
                    response_ms=now - query.arrival_ms,
                    satisfied=satisfied,
                )
                responses[worker].append(now - query.arrival_ms)
                if satisfied:
                    accuracies[worker].append(model.accuracy)
                if attributing:
                    attributor.observe_completion(
                        query.query_id,
                        worker,
                        model_name,
                        now - query.arrival_ms,
                        satisfied,
                        t_ms=now,
                    )
                if tracing:
                    tracer.instant(
                        "completion",
                        f"worker-{worker}",
                        now,
                        args={
                            "query": query.query_id,
                            "worker": worker,
                            "model": model_name,
                            "satisfied": satisfied,
                            "accuracy": model.accuracy,
                            "response_ms": now - query.arrival_ms,
                        },
                    )
            busy[worker] = False
            if per_worker:
                if queues[worker]:
                    dispatch(worker, queues[worker], now)
            else:
                if not queues[0] or not dispatch(worker, queues[0], now):
                    idle_workers.append(worker)

    counts = metrics.finalize()
    return fold_worker_records(
        responses,
        accuracies,
        model_counts=counts.model_query_counts,
        decisions=counts.decisions,
        batch_sum=batch_sum,
        track_responses=cfg.track_responses,
    )
