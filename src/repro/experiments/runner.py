"""Shared experiment machinery.

Everything the per-figure drivers need: cached policy generation, cached
ModelSwitching offline profiling, shared arrival realizations (all methods
see the same query timestamps, as in the paper's framework), and the method
runner that turns one (method, task, SLO, workers, workload) cell into a
:class:`MethodPoint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.core.config import WorkerMDPConfig
from repro.core.generator import PolicyGenerator
from repro.core.guarantees import PolicyGuarantees
from repro.core.policy import Policy
from repro.core.policy_set import PolicySet
from repro.errors import ConfigurationError
from repro.experiments.scale import ExperimentScale
from repro.obs.audit import AuditConfig, AuditReport, GuaranteeAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.experiments.tasks import TaskSpec
from repro.profiles.models import ModelSet
from repro.selectors import (
    GreedyDeadlineSelector,
    InfaasAdaptedSelector,
    JellyfishPlusSelector,
    ModelSelector,
    ModelSwitchingSelector,
    RamsisSelector,
    ResponseLatencyTable,
    profile_response_latency,
)
from repro.sim.latency_model import DeterministicLatency, LatencyModel
from repro.sim.monitor import LoadMonitor, OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.cache import PolicyCache
    from repro.core.bank import GenerationResult
    from repro.obs.attribution import LatencyAttributor

__all__ = [
    "MethodPoint",
    "AuditedRun",
    "METHODS",
    "build_ramsis_result",
    "build_ramsis_policy",
    "build_policy_set",
    "build_audit_references",
    "modelswitching_table",
    "make_selector",
    "run_method",
    "run_audited",
    "shared_arrivals",
    "clear_caches",
]

#: Canonical method identifiers used across figures and the CLI
#: (the artifact's names: RAMSIS, JF = Jellyfish+, MS = ModelSwitching).
METHODS = ("RAMSIS", "JF", "MS")

#: Solver tolerance the experiment drivers generate policies at; the
#: persistent-cache key includes it, so every layer must agree.
_TOLERANCE = 1e-7


@dataclass(frozen=True)
class MethodPoint:
    """One (method, configuration) cell of an evaluation figure."""

    task: str
    method: str
    slo_ms: float
    num_workers: int
    load_qps: Optional[float]  # None for trace-driven workloads
    accuracy: float
    violation_rate: float
    queries: int

    @property
    def plottable(self) -> bool:
        """The paper only plots cells with violation rate < 5%."""
        return self.violation_rate < 0.05


# ----------------------------------------------------------------------
# Caches (in-memory, per process).  Benchmarks re-use cells heavily.
# ----------------------------------------------------------------------
_RESULT_CACHE: Dict[Tuple, "GenerationResult"] = {}
_POLICY_SET_CACHE: Dict[Tuple, PolicySet] = {}
_MS_TABLE_CACHE: Dict[Tuple, ResponseLatencyTable] = {}
_ARRIVAL_CACHE: Dict[Tuple, np.ndarray] = {}
_AUDIT_REF_CACHE: Dict[
    Tuple, Tuple[Policy, PolicyGuarantees, Dict[str, float]]
] = {}


def clear_caches() -> None:
    """Drop all cached policies, tables, and arrival realizations."""
    _RESULT_CACHE.clear()
    _POLICY_SET_CACHE.clear()
    _MS_TABLE_CACHE.clear()
    _ARRIVAL_CACHE.clear()
    _AUDIT_REF_CACHE.clear()


def _base_config(
    model_set: ModelSet,
    slo_ms: float,
    load_qps: float,
    num_workers: int,
    scale: ExperimentScale,
    **overrides,
) -> WorkerMDPConfig:
    return WorkerMDPConfig.default_poisson(
        model_set,
        slo_ms=slo_ms,
        load_qps=load_qps,
        num_workers=num_workers,
        fld_resolution=overrides.pop("fld_resolution", scale.fld_resolution),
        max_batch_size=overrides.pop("max_batch_size", scale.max_batch_size),
        **overrides,
    )


def build_ramsis_result(
    model_set: ModelSet,
    slo_ms: float,
    load_qps: float,
    num_workers: int,
    scale: ExperimentScale,
    cache: Optional["PolicyCache"] = None,
    **overrides,
) -> "GenerationResult":
    """One cached RAMSIS generation result for a (load, workers, SLO) cell.

    Resolution order: in-memory memo, then the persistent disk ``cache``
    (when given), then a fresh solve — whose result is committed to both
    layers.  The disk layer is what lets parallel sweep workers share
    solved policies across processes: the first process to solve a cell
    publishes it, every later process restores it.
    """
    key = (
        "policy",
        model_set.task,
        len(model_set),
        slo_ms,
        round(load_qps, 6),
        num_workers,
        scale.fld_resolution,
        scale.max_batch_size,
        tuple(sorted(overrides.items())),
    )
    cached = _RESULT_CACHE.get(key)
    if cached is not None:
        return cached
    config = _base_config(model_set, slo_ms, load_qps, num_workers, scale, **overrides)
    from repro.core.generator import generate_policy

    if cache is not None:
        restored = cache.get(config, _TOLERANCE)
        if restored is not None:
            _RESULT_CACHE[key] = restored
            return restored
    result = generate_policy(config, tolerance=_TOLERANCE)
    if cache is not None:
        cache.put(config, _TOLERANCE, result)
    _RESULT_CACHE[key] = result
    return result


def build_ramsis_policy(
    model_set: ModelSet,
    slo_ms: float,
    load_qps: float,
    num_workers: int,
    scale: ExperimentScale,
    cache: Optional["PolicyCache"] = None,
    **overrides,
) -> Policy:
    """One cached RAMSIS policy for a fixed (load, workers, SLO) cell."""
    return build_ramsis_result(
        model_set, slo_ms, load_qps, num_workers, scale, cache=cache, **overrides
    ).policy


def build_audit_references(
    model_set: ModelSet,
    slo_ms: float,
    load_qps: float,
    num_workers: int,
    scale: ExperimentScale,
    **overrides,
) -> Tuple[Policy, PolicyGuarantees, Dict[str, float]]:
    """Everything the live auditor needs for a pinned-policy cell.

    Returns the cached ``(policy, guarantees, expected_occupancy)``
    triple, where ``expected_occupancy`` is the §5.1 stationary
    distribution conditioned on decision states (what decision epochs
    empirically sample).
    """
    key = (
        "audit",
        model_set.task,
        len(model_set),
        slo_ms,
        round(load_qps, 6),
        num_workers,
        scale.fld_resolution,
        scale.max_batch_size,
        tuple(sorted(overrides.items())),
    )
    cached = _AUDIT_REF_CACHE.get(key)
    if cached is not None:
        return cached
    from repro.core.guarantees import stationary_occupancy
    from repro.core.mdp import build_worker_mdp

    result = build_ramsis_result(
        model_set, slo_ms, load_qps, num_workers, scale, **overrides
    )
    mdp = build_worker_mdp(
        _base_config(model_set, slo_ms, load_qps, num_workers, scale, **overrides)
    )
    occupancy = stationary_occupancy(mdp, result.policy).decision_conditional()
    triple = (result.policy, result.guarantees, occupancy)
    _AUDIT_REF_CACHE[key] = triple
    return triple


def build_policy_set(
    model_set: ModelSet,
    slo_ms: float,
    num_workers: int,
    min_load_qps: float,
    max_load_qps: float,
    scale: ExperimentScale,
    cache: Optional["PolicyCache"] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> PolicySet:
    """A cached load-refined policy set covering ``[min, max]`` QPS.

    The grid, then each refinement round's midpoints, solves as one
    stacked bank; ``cache`` adds a persistent disk layer
    (:class:`repro.cache.PolicyCache`) so separate invocations share solved
    policies.
    """
    key = (
        "set",
        model_set.task,
        len(model_set),
        slo_ms,
        num_workers,
        round(min_load_qps, 3),
        round(max_load_qps, 3),
        scale.name,
        scale.fld_resolution,
    )
    cached = _POLICY_SET_CACHE.get(key)
    if cached is not None:
        return cached
    if max_load_qps <= min_load_qps:
        raise ConfigurationError("max_load_qps must exceed min_load_qps")
    grid = np.linspace(min_load_qps, max_load_qps, scale.policy_grid_points)
    generator = PolicyGenerator(
        _base_config(model_set, slo_ms, max_load_qps, num_workers, scale),
        cache=cache,
        tracer=tracer,
        registry=registry,
    )
    policy_set = PolicySet.generate(
        generator,
        load_grid_qps=[float(q) for q in grid],
        accuracy_gap_threshold=scale.policy_accuracy_gap,
        max_policies=max(scale.policy_grid_points * 2, 8),
    )
    _POLICY_SET_CACHE[key] = policy_set
    return policy_set


def modelswitching_table(
    model_set: ModelSet,
    slo_ms: float,
    num_workers: int,
    max_load_qps: float,
    scale: ExperimentScale,
) -> ResponseLatencyTable:
    """Cached ModelSwitching offline response-latency profile."""
    key = (
        "ms",
        model_set.task,
        len(model_set),
        slo_ms,
        num_workers,
        round(max_load_qps, 3),
        scale.name,
    )
    cached = _MS_TABLE_CACHE.get(key)
    if cached is not None:
        return cached
    grid = np.linspace(
        max_load_qps / scale.ms_profile_grid_points,
        max_load_qps,
        scale.ms_profile_grid_points,
    )
    table = profile_response_latency(
        model_set,
        loads_qps=[float(q) for q in grid],
        num_workers=num_workers,
        slo_ms=slo_ms,
        max_batch_size=scale.max_batch_size,
        duration_ms=scale.ms_profile_duration_s * 1000.0,
    )
    _MS_TABLE_CACHE[key] = table
    return table


def shared_arrivals(trace: LoadTrace, seed: int) -> np.ndarray:
    """One Poisson arrival realization per (trace, seed) — shared across
    methods so comparisons see identical query streams."""
    key = (trace.name, trace.interval_ms, trace.qps, seed)
    cached = _ARRIVAL_CACHE.get(key)
    if cached is not None:
        return cached
    rng = np.random.default_rng(seed)
    arrivals = np.sort(
        sample_arrival_times(trace, PoissonArrivals(max(trace.mean_qps, 1e-9)), rng)
    )
    _ARRIVAL_CACHE[key] = arrivals
    return arrivals


def make_selector(
    method: str,
    task: TaskSpec,
    slo_ms: float,
    num_workers: int,
    trace: LoadTrace,
    scale: ExperimentScale,
    pinned_load_qps: Optional[float] = None,
    model_set: Optional[ModelSet] = None,
    cache: Optional["PolicyCache"] = None,
) -> ModelSelector:
    """Instantiate the selector for a canonical method name.

    ``cache`` adds a persistent disk layer under RAMSIS policy
    construction (pinned policies and policy sets alike); other methods
    ignore it.
    """
    models = model_set if model_set is not None else task.model_set
    peak = trace.peak_qps * 1.05
    if method == "RAMSIS":
        if pinned_load_qps is not None:
            policy = build_ramsis_policy(
                models, slo_ms, pinned_load_qps, num_workers, scale, cache=cache
            )
            return RamsisSelector(policy)
        policy_set = build_policy_set(
            models,
            slo_ms,
            num_workers,
            min_load_qps=trace.min_qps * 0.9,
            max_load_qps=peak,
            scale=scale,
            cache=cache,
        )
        return RamsisSelector(policy_set)
    if method == "JF":
        return JellyfishPlusSelector()
    if method == "MS":
        table = modelswitching_table(models, slo_ms, num_workers, peak, scale)
        return ModelSwitchingSelector(table)
    if method == "Greedy":
        return GreedyDeadlineSelector()
    if method.startswith("INFaaS"):
        # "INFaaS@0.78" pins the accuracy target.
        target = float(method.split("@", 1)[1]) if "@" in method else 0.0
        return InfaasAdaptedSelector(target)
    raise ConfigurationError(f"unknown method {method!r}")


def run_method(
    method: str,
    task: TaskSpec,
    slo_ms: float,
    num_workers: int,
    trace: LoadTrace,
    scale: ExperimentScale,
    seed: int = 11,
    oracle_load: bool = False,
    latency_model: Optional[LatencyModel] = None,
    model_set: Optional[ModelSet] = None,
    selector: Optional[ModelSelector] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
    cache: Optional["PolicyCache"] = None,
    attributor: Optional["LatencyAttributor"] = None,
    auditor: Optional[GuaranteeAuditor] = None,
) -> MethodPoint:
    """Execute one evaluation cell and collect its metrics.

    ``oracle_load`` switches the monitor to the trace's true load (the §7.2
    constant-load setting); otherwise the shared 500 ms moving-average
    monitor is used.  Constant (single-interval) traces pin RAMSIS to the
    policy for that exact load, like the artifact does.  ``tracer`` and
    ``registry`` (see :mod:`repro.obs`) opt the underlying simulation into
    per-query tracing and time-series metrics; ``attributor`` attaches
    streaming tail-latency attribution
    (:class:`repro.obs.attribution.LatencyAttributor`) and ``auditor``
    live §5.1 auditing (:class:`repro.obs.audit.GuaranteeAuditor`);
    every variant runs on the one dispatch kernel.  ``cache`` layers a persistent
    :class:`repro.cache.PolicyCache` under policy construction so
    concurrent sweep processes share solved policies.
    """
    models = model_set if model_set is not None else task.model_set
    pinned = trace.qps[0] if len(trace.qps) == 1 else None
    if selector is None:
        selector = make_selector(
            method,
            task,
            slo_ms,
            num_workers,
            trace,
            scale,
            pinned_load_qps=pinned if method == "RAMSIS" else None,
            model_set=models,
            cache=cache,
        )
    monitor: LoadMonitor = (
        OracleLoadMonitor(trace) if oracle_load else LoadMonitor(window_ms=500.0)
    )
    sim = Simulation(
        SimulationConfig(
            model_set=models,
            slo_ms=slo_ms,
            num_workers=num_workers,
            max_batch_size=scale.max_batch_size,
            latency_model=latency_model or DeterministicLatency(),
            monitor=monitor,
            seed=seed,
            track_responses=False,
            tracer=tracer,
            registry=registry,
            auditor=auditor,
            attributor=attributor,
        )
    )
    metrics = sim.run(selector, trace, arrival_times=shared_arrivals(trace, seed))
    return MethodPoint(
        task=task.name,
        method=method,
        slo_ms=slo_ms,
        num_workers=num_workers,
        load_qps=pinned,
        accuracy=metrics.accuracy_per_satisfied_query,
        violation_rate=metrics.violation_rate,
        queries=metrics.total_queries,
    )


@dataclass(frozen=True)
class AuditedRun:
    """A RAMSIS evaluation cell plus its live audit outcome."""

    point: MethodPoint
    report: AuditReport
    guarantees: PolicyGuarantees


def run_audited(
    task: TaskSpec,
    slo_ms: float,
    num_workers: int,
    trace: LoadTrace,
    scale: ExperimentScale,
    seed: int = 11,
    oracle_load: bool = True,
    policy_load_qps: Optional[float] = None,
    audit_config: Optional[AuditConfig] = None,
    latency_model: Optional[LatencyModel] = None,
    model_set: Optional[ModelSet] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> AuditedRun:
    """Run a RAMSIS pinned-policy cell under the live guarantee auditor.

    The policy (and the §5.1 references the auditor checks against) is
    generated for ``policy_load_qps`` when given, else the trace's mean
    load.  Passing a ``policy_load_qps`` below the trace's actual load
    deliberately audits a *stale* policy — the adversarial case where the
    auditor must flag bound breaches and load drift.  ``tracer`` records
    the run and is also the auditor's inner tracer, so a
    :class:`~repro.obs.RecordingTracer` here captures the emitted
    ``audit_*`` events too.
    """
    models = model_set if model_set is not None else task.model_set
    actual_load = trace.qps[0] if len(trace.qps) == 1 else trace.mean_qps
    policy_load = policy_load_qps if policy_load_qps is not None else actual_load
    policy, guarantees, occupancy = build_audit_references(
        models, slo_ms, policy_load, num_workers, scale
    )
    auditor = GuaranteeAuditor(
        guarantees,
        policy=policy,
        expected_occupancy=occupancy,
        config=audit_config,
        inner=tracer,
        registry=registry,
    )
    selector = RamsisSelector(policy, on_policy_change=auditor.note_policy)
    point = run_method(
        "RAMSIS",
        task,
        slo_ms,
        num_workers,
        trace,
        scale,
        seed=seed,
        oracle_load=oracle_load,
        latency_model=latency_model,
        model_set=models,
        selector=selector,
        tracer=tracer,
        registry=registry,
        auditor=auditor,
    )
    report = auditor.finalize(trace.duration_ms)
    return AuditedRun(point=point, report=report, guarantees=guarantees)
