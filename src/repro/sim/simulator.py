"""The discrete-event ISS simulator (§6).

Replays a trace of query arrivals against a cluster of ``K`` workers and a
model selector, tracking queue states, worker busy periods, and per-query
outcomes.  Two scheduling disciplines are supported, matching how the paper
runs RAMSIS and its baselines in the same framework:

- **per-worker queues** (RAMSIS, §3.2): the load balancer assigns each
  arriving query to a worker queue; each worker's model selector serves its
  own queue in deadline order;
- **central queue** (Jellyfish+/ModelSwitching, §7): idle workers eagerly
  grab batches from the shared queue, batch size capped by the baseline's
  adaptive-batching rule.

Every run drives one :class:`~repro.sim.kernel.DispatchKernel` over all
``K`` workers — the same kernel each serving shard of
:class:`~repro.runtime.shard.ShardedController` drives — which merges the
(pre-sampled, sorted) arrival stream with a heap of service completions,
so the run cost is O((arrivals + decisions) log K).  By default queries
are never dropped — like the paper's evaluation, late queries are "better
served late than never" (§4.3.1); ``drop_late`` opts into dropping.

Observability attaches through one observer, :class:`_SimObserver`, on
the same kernel: ``tracer`` records the lifecycle stream; ``registry``
receives the ``sim_*`` series, ``attributor`` and ``auditor`` the
lifecycle records, all folded in columns from the observer's lifecycle
capture when the run ends — exactly as a serving shard's
``auditors=`` / ``attributors=`` are fed.  An observed run returns the
same metrics as an unobserved one.  The original
per-query-object loop lives on as the kernel's oracle in
``tests/oracles/sim_loop.py``; ``tests/test_sim_equivalence.py`` pins the
kernel to it float-exactly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution, PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.balancers import LoadBalancer, RoundRobinBalancer
from repro.errors import SimulationError
from repro.obs.attribution import LatencyAttributor
from repro.obs.audit import GuaranteeAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.profiles.models import ModelSet
from repro.sim.kernel import (
    DispatchKernel,
    LifecycleObserver,
    fold_kernels,
    normalize_arrivals,
)
from repro.sim.latency_model import DeterministicLatency, LatencyModel
from repro.sim.metrics import SimulationMetrics
from repro.sim.monitor import LoadMonitor
from repro.selectors.base import ModelSelector, QueueScope, SelectorContext

__all__ = ["QueueDiscipline", "SimulationConfig", "Simulation"]


class QueueDiscipline(enum.Enum):
    """Where pending queries wait (see module docstring)."""

    PER_WORKER = "per_worker"
    CENTRAL = "central"


@dataclass
class SimulationConfig:
    """Cluster and instrumentation configuration for one simulation."""

    model_set: ModelSet
    slo_ms: float
    num_workers: int
    max_batch_size: int = 32
    latency_model: LatencyModel = field(default_factory=DeterministicLatency)
    balancer: LoadBalancer = field(default_factory=RoundRobinBalancer)
    monitor: Optional[LoadMonitor] = None
    seed: int = 0
    track_responses: bool = True
    #: §4.3.1 alternative: when the selector returns a late (unsatisfiable)
    #: action, drop the queued queries instead of serving them late.
    #: Dropped queries count as SLO violations.  Default off, as in the
    #: paper's evaluation.
    drop_late: bool = False
    #: Heterogeneous clusters (§7: homogeneity is not fundamental): worker
    #: ``i``'s execution latencies are multiplied by ``factors[i]``.
    #: ``None`` means a homogeneous cluster (all 1.0).
    worker_speed_factors: Optional[Tuple[float, ...]] = None
    #: Opt-in observability (repro.obs).  ``tracer`` records per-query
    #: lifecycle events and per-batch service spans; ``registry`` receives
    #: counters/gauges/histograms (queue depth, anticipated vs. realized
    #: load, batch sizes, per-model dispatch counts).  Both default off.
    tracer: Optional[Tracer] = None
    registry: Optional[MetricsRegistry] = None
    #: §5.1 guarantee auditing (repro.obs.audit) and tail-latency
    #: attribution (repro.obs.attribution): folded from the run's
    #: lifecycle capture when the run ends (in columns; a hook-shaped
    #: attributor has its ``observe_*`` hooks called in event order), so
    #: their alerts fire and the auditor's ``audit_*`` records reach its
    #: ``inner`` tracer then (with the events' virtual ``t_ms``).
    auditor: Optional[GuaranteeAuditor] = None
    attributor: Optional[LatencyAttributor] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise SimulationError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        if self.slo_ms <= 0:
            raise SimulationError(f"slo_ms must be > 0, got {self.slo_ms}")
        if self.max_batch_size < 1:
            raise SimulationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.worker_speed_factors is not None:
            if len(self.worker_speed_factors) != self.num_workers:
                raise SimulationError(
                    f"worker_speed_factors has {len(self.worker_speed_factors)} "
                    f"entries for {self.num_workers} workers"
                )
            if any(f <= 0 for f in self.worker_speed_factors):
                raise SimulationError("worker speed factors must be > 0")


class Simulation:
    """One reusable simulation driver.

    Each :meth:`run` is independent: queues, monitor, balancer, and the
    latency model's randomness are reset from the configured seed.
    """

    def __init__(self, config: SimulationConfig) -> None:
        self._config = config

    @property
    def config(self) -> SimulationConfig:
        """The cluster configuration."""
        return self._config

    def run(
        self,
        selector: Union[ModelSelector, Sequence[ModelSelector]],
        trace: LoadTrace,
        pattern: Optional[ArrivalDistribution] = None,
        arrival_times: Optional[np.ndarray] = None,
        engine: str = "fast",
    ) -> SimulationMetrics:
        """Serve one realization of ``trace`` with ``selector``.

        ``pattern`` defaults to Poisson (the paper's inter-arrival model);
        pass ``arrival_times`` to replay an explicit timestamp array
        instead of sampling.  ``selector`` may be a sequence of
        ``num_workers`` selectors — one per worker, the heterogeneous-
        cluster setting where each worker type runs its own policy.
        ``engine`` accepts only ``"fast"`` (the one dispatch kernel).
        """
        if engine != "fast":
            raise SimulationError(f"unknown engine {engine!r} (expected 'fast')")
        cfg = self._config
        selectors, arrivals, discipline = self._prepare(
            selector, trace, pattern, arrival_times
        )
        tracer = cfg.tracer
        if tracer is not None and tracer.enabled:
            # Wall-clock phase around the whole event loop — the phase
            # profiler's per-run unit for engine time.
            with tracer.span(
                "event_loop", track="engine", args={"queries": int(arrivals.size)}
            ):
                return self._serve(selectors, arrivals, discipline, trace)
        return self._serve(selectors, arrivals, discipline, trace)

    def _prepare(
        self,
        selector: Union[ModelSelector, Sequence[ModelSelector]],
        trace: LoadTrace,
        pattern: Optional[ArrivalDistribution],
        arrival_times: Optional[np.ndarray],
    ) -> Tuple[List[ModelSelector], np.ndarray, QueueDiscipline]:
        """Bound per-worker selectors, sorted arrivals and the discipline."""
        cfg = self._config
        if arrival_times is None:
            rng = np.random.default_rng(cfg.seed)
            if pattern is None:
                pattern = PoissonArrivals(max(trace.mean_qps, 1e-9))
            arrival_times = sample_arrival_times(trace, pattern, rng)
        arrivals = normalize_arrivals(arrival_times)

        if isinstance(selector, ModelSelector):
            selectors: List[ModelSelector] = [selector] * cfg.num_workers
        else:
            selectors = list(selector)
            if len(selectors) != cfg.num_workers:
                raise SimulationError(
                    f"{len(selectors)} selectors for {cfg.num_workers} workers"
                )
            if len({s.queue_scope for s in selectors}) != 1:
                raise SimulationError(
                    "per-worker selectors must share one queue scope"
                )
        context = SelectorContext(
            model_set=cfg.model_set,
            slo_ms=cfg.slo_ms,
            num_workers=cfg.num_workers,
            max_batch_size=cfg.max_batch_size,
        )
        for s in dict.fromkeys(selectors):  # bind each distinct selector once
            s.bind(context)
        discipline = (
            QueueDiscipline.PER_WORKER
            if selectors[0].queue_scope is QueueScope.PER_WORKER
            else QueueDiscipline.CENTRAL
        )
        return selectors, arrivals, discipline

    def _serve(
        self,
        selectors: List[ModelSelector],
        arrivals: np.ndarray,
        discipline: QueueDiscipline,
        trace: LoadTrace,
    ) -> SimulationMetrics:
        """One kernel over all workers, advanced to the end and folded."""
        cfg = self._config
        monitor = cfg.monitor if cfg.monitor is not None else LoadMonitor()
        monitor.reset()
        monitor.attach_registry(cfg.registry)
        cfg.balancer.reset()
        central = discipline is QueueDiscipline.CENTRAL
        # One shared latency clone: stochastic draws follow global
        # dispatch order.
        latency = cfg.latency_model.clone(cfg.seed + 1)
        kernel = DispatchKernel(
            arrivals.tolist(),
            cfg.slo_ms,
            selectors,
            [latency] * cfg.num_workers,
            cfg.worker_speed_factors or (1.0,) * cfg.num_workers,
            cfg.model_set,
            central=central,
            balancer=cfg.balancer,
            monitor=monitor,
            trace=trace,
            drop_late=cfg.drop_late,
        )
        tracer = cfg.tracer if cfg.tracer is not None and cfg.tracer.enabled else None
        sinks = (tracer, cfg.registry, cfg.auditor, cfg.attributor)
        observer = None
        if any(sink is not None for sink in sinks):
            observer = kernel.observer = _SimObserver(
                kernel, central, monitor, tracer, cfg
            )
            if cfg.auditor is not None:
                observer.attach(cfg.auditor)
        kernel.advance()
        if observer is not None:
            # The registry's sim_* series, the attributor and the
            # auditor, folded from the run's capture.
            observer.fold(observer.drain(), cfg.auditor)
        return fold_kernels([kernel], track_responses=cfg.track_responses)


class _SimObserver(LifecycleObserver):
    """The simulator's taps: one tracer, registry and attributor.

    On top of the shared lifecycle records, keeps every series the
    simulator has always emitted: ``queue_depth`` counters on the tracer
    (per worker queue, or ``central``) after each arrival, dispatch and
    drop, and the anticipated/realized load and per-queue depth gauges on
    the registry.
    """

    def __init__(
        self,
        kernel: DispatchKernel,
        central: bool,
        monitor: LoadMonitor,
        tracer: Optional[Tracer],
        cfg: SimulationConfig,
    ) -> None:
        workers = len(kernel.in_flight)
        registry = cfg.registry
        super().__init__(kernel, [tracer] * workers, cfg.attributor, registry)
        self.tracer = tracer
        self.central = central
        self.monitor = monitor
        if registry is not None:
            self.gauge_anticipated = registry.gauge(
                "sim_anticipated_load_qps",
                help="load the monitor reports to selectors",
            )
            self.gauge_realized = registry.gauge(
                "sim_realized_load_qps",
                help="trailing moving-average arrival rate",
            )
            self.queue_gauges = [
                registry.gauge(
                    "sim_queue_depth",
                    help="pending queries per queue",
                    labels={"worker": "central" if central else str(i)},
                )
                for i in range(1 if central else workers)
            ]

    def _depth(self, w: int, t: float, depth: int, gauge: bool = True) -> None:
        if self.tracer is not None:
            track = "central" if self.central else f"worker-{w}"
            self.tracer.counter("queue_depth", track, t, depth)
        if gauge and self.registry is not None:
            self.queue_gauges[0 if self.central else w].set(depth, t_ms=t)

    def arrival(self, w: int, j: int, t: float, depth: int) -> None:
        super().arrival(w, j, t, depth)
        self._depth(w, t, depth)

    def dispatch(self, w, t, model_name, batch, queue_len, slack_ms,
                 anticipated, exec_ms, served, depth) -> None:
        super().dispatch(w, t, model_name, batch, queue_len, slack_ms,
                         anticipated, exec_ms, served, depth)
        self._depth(w, t, depth)
        if self.registry is not None:
            self.gauge_anticipated.set(anticipated, t_ms=t)
            self.gauge_realized.set(self.monitor.realized_load_qps(t), t_ms=t)

    def terminal(self, w, queries, t, model_name, rejected=False) -> None:
        super().terminal(w, queries, t, model_name, rejected)
        self._depth(w, t, 0, gauge=False)
