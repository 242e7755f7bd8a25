"""High-level offline policy generation (§3.1).

:func:`generate_policy` is the one-call entry point: configuration in,
solved and annotated :class:`~repro.core.policy.Policy` out.
:class:`PolicyGenerator` layers three caches and a parallel fan-out on top:

- an **in-memory** cache keyed by ``(load, workers, tolerance)`` so sweeps
  within one process never solve the same MDP twice;
- an optional **persistent disk** cache (:class:`repro.cache.PolicyCache`)
  keyed by a content hash of the canonicalized config, so experiment
  invocations share solved policies across processes and runs;
- :meth:`PolicyGenerator.generate_many`, which solves cache misses either
  in-process as one stacked bank (:func:`repro.core.bank.solve_stacked_bank`)
  or across a ``ProcessPoolExecutor`` running :func:`generate_policy` per
  cell, with deterministic result ordering — both are byte-identical to
  per-load :func:`generate_policy` calls.
"""

from __future__ import annotations

import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.config import WorkerMDPConfig
from repro.core.guarantees import PolicyGuarantees, evaluate_policy
from repro.core.mdp import build_worker_mdp
from repro.core.policy import Policy, PolicyMetadata
from repro.core.solvers import value_iteration
from repro.obs.aggregate import (
    init_worker_obs,
    merge_run_dir,
    new_run_dir,
    worker_obs,
    write_merged_artifacts,
)
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache uses results)
    from repro.cache import PolicyCache
    from repro.obs.metrics import MetricsRegistry

__all__ = ["GenerationResult", "PolicyGenerator", "generate_policy"]


@dataclass(frozen=True)
class GenerationResult:
    """A generated policy plus its provenance and offline guarantees.

    ``residuals`` carries value iteration's per-sweep residual history
    when the caller asked for it (see :func:`generate_policy`).
    ``values`` is the converged value vector — kept so the §6 refinement
    loop can warm-start adjacent loads — and ``from_cache`` marks results
    restored from the persistent disk cache rather than solved.
    """

    policy: Policy
    guarantees: PolicyGuarantees
    iterations: int
    runtime_s: float
    residuals: Optional[Tuple[float, ...]] = None
    values: Optional[np.ndarray] = field(default=None, compare=False)
    from_cache: bool = field(default=False, compare=False)


def generate_policy(
    config: WorkerMDPConfig,
    tolerance: float = 1e-7,
    with_guarantees: bool = True,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
    initial: Optional[np.ndarray] = None,
) -> GenerationResult:
    """Build the worker MDP, solve it, and package the optimal MS policy.

    When ``with_guarantees`` is set (default), the §5.1 expectations are
    computed and embedded in the policy metadata — the policy-set
    refinement rule and the resource-planning example consume them.

    ``initial`` warm-starts value iteration from a previously converged
    value vector (e.g. an adjacent load's), cutting sweep counts without
    changing the fixed point.

    An enabled ``tracer`` records the three offline phases (kernel/MDP
    construction, value iteration, guarantee evaluation) as nested spans
    on the ``generator`` track plus one event per solver sweep;
    ``record_residuals`` keeps the residual history on the result even
    without a tracer.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    with tracer.span("generate_policy", track="generator"):
        with tracer.span("build_worker_mdp", track="generator"):
            mdp = build_worker_mdp(config)
        with tracer.span("value_iteration", track="generator"):
            stats = value_iteration(
                mdp,
                tolerance=tolerance,
                initial=initial,
                tracer=tracer,
                record_residuals=record_residuals,
            )
        policy = mdp.extract_policy(stats.values)
        if with_guarantees:
            with tracer.span("evaluate_policy", track="generator"):
                guarantees = evaluate_policy(mdp, policy)
            policy = _annotate(policy, guarantees)
        else:
            guarantees = PolicyGuarantees(
                expected_accuracy=float("nan"),
                expected_violation_rate=float("nan"),
                per_epoch_accuracy=float("nan"),
                per_epoch_violation_rate=float("nan"),
                full_state_probability=float("nan"),
                idle_probability=float("nan"),
            )
    return GenerationResult(
        policy=policy,
        guarantees=guarantees,
        iterations=stats.iterations,
        runtime_s=time.perf_counter() - start,
        residuals=stats.residuals,
        values=stats.values,
    )


def _annotate(policy: Policy, guarantees: PolicyGuarantees) -> Policy:
    """Re-package a policy with expectation metadata filled in."""
    meta = policy.metadata
    annotated = PolicyMetadata(
        task=meta.task,
        slo_ms=meta.slo_ms,
        load_qps=meta.load_qps,
        num_workers=meta.num_workers,
        arrival_family=meta.arrival_family,
        discretization=meta.discretization,
        fld_resolution=meta.fld_resolution,
        batching=meta.batching,
        view=meta.view,
        discount=meta.discount,
        expected_accuracy=guarantees.expected_accuracy,
        expected_violation_rate=guarantees.expected_violation_rate,
    )
    return Policy(
        grid=policy.grid,
        max_queue=policy.max_queue,
        actions=policy.states(),
        metadata=annotated,
    )


def _solve_cell(
    payload: Tuple[int, WorkerMDPConfig, float, Optional[np.ndarray], bool]
) -> GenerationResult:
    """Process-pool entry point: solve one grid cell.

    Module-level so it pickles under every multiprocessing start method;
    runs :func:`generate_policy`, which the stacked serial path is
    byte-identical to.
    With observability shipping on, the solve is traced into this
    worker's shard (installed by :func:`repro.obs.aggregate.init_worker_obs`),
    stamped with the cell's sequence number for in-order merging.
    """
    seq, config, tolerance, initial, ship = payload
    obs = worker_obs() if ship else None
    tracer: Optional[Tracer] = None
    if obs is not None:
        obs.tracer.set_sequence(seq)
        tracer = obs.tracer
    try:
        return generate_policy(
            config,
            tolerance=tolerance,
            tracer=tracer,
            initial=initial,
        )
    finally:
        if obs is not None:
            obs.flush()


class PolicyGenerator:
    """Caching, batching policy source over one base configuration.

    Resolution order for every cell: in-memory cache -> persistent disk
    cache (when ``cache`` is given) -> solve (one stacked bank, or the
    process pool; see :meth:`generate_many`).  The in-memory key is
    ``(load, workers, tolerance)`` on top of a base configuration; the
    disk key is a content hash of the full canonicalized config plus the
    solver tolerance (see :mod:`repro.cache.keys`).
    """

    def __init__(
        self,
        base_config: WorkerMDPConfig,
        tolerance: float = 1e-7,
        cache: Optional["PolicyCache"] = None,
        tracer: Optional[Tracer] = None,
        registry: Optional["MetricsRegistry"] = None,
        run_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self._base = base_config
        self._tolerance = tolerance
        self._cache: Dict[Tuple[float, int, float], GenerationResult] = {}
        self._disk = cache
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._registry = registry
        #: Shard root for parallel solves.  Each parallel batch gets its
        #: own ``batch-NNN`` subdirectory, so repeated ``generate_many``
        #: calls (e.g. §6 refinement rounds) never mix or truncate
        #: shards; without it a temp directory per batch is used and
        #: removed after the merge.
        self._run_dir = None if run_dir is None else Path(run_dir)
        self._batch = 0

    @property
    def base_config(self) -> WorkerMDPConfig:
        """The configuration all generated policies share (minus load/K)."""
        return self._base

    @property
    def disk_cache(self) -> Optional["PolicyCache"]:
        """The persistent cache layer, if one is attached."""
        return self._disk

    def _count_cell(self, source: str) -> None:
        if self._registry is not None:
            self._registry.counter(
                "policy_bank_cells_total",
                "Policy-bank cells resolved, by source",
                labels={"source": source},
            ).inc()

    def _key(self, load_qps: float, workers: int) -> Tuple[float, int, float]:
        return (round(load_qps, 9), workers, self._tolerance)

    def _config_for(self, load_qps: float, workers: int) -> WorkerMDPConfig:
        config = self._base.with_load(load_qps)
        if workers != config.num_workers:
            config = replace(config, num_workers=workers)
        return config

    def _commit(
        self,
        key: Tuple[float, int, float],
        config: WorkerMDPConfig,
        result: GenerationResult,
    ) -> None:
        self._cache[key] = result
        if self._disk is not None:
            self._disk.put(config, self._tolerance, result)

    def generate(
        self,
        load_qps: float,
        num_workers: Optional[int] = None,
        initial: Optional[np.ndarray] = None,
    ) -> GenerationResult:
        """Policy for ``load_qps`` (and optionally a worker-count override).

        A one-load :meth:`generate_many` call.  ``initial`` warm-starts
        value iteration on a cache miss; cached results are returned as-is
        (the fixed point does not depend on the seed, and warm/cold
        convergence to the same policy is asserted by the test suite).
        """
        initials = None if initial is None else {float(load_qps): initial}
        return self.generate_many([load_qps], num_workers, initials=initials)[0]

    def generate_many(
        self,
        loads_qps: Sequence[float],
        num_workers: Optional[int] = None,
        max_workers: Optional[int] = None,
        initials: Optional[Mapping[float, Optional[np.ndarray]]] = None,
    ) -> List[GenerationResult]:
        """Policies for a batch of loads, in the order given.

        Cache layers are consulted first; only misses are solved.  With
        ``max_workers > 1`` the misses fan out across a
        ``ProcessPoolExecutor`` (submit/solve/collect progress appears on
        the tracer's ``policy_bank`` track); otherwise they solve serially
        as one stacked bank in this process
        (:func:`repro.core.bank.solve_stacked_bank`, a single miss
        included).  Either way results come back in the order of
        ``loads_qps`` and are byte-identical to per-load
        :func:`generate_policy` calls, so both paths share the per-load
        cache keys.

        An attached ``tracer``/``registry`` instruments both paths: the
        parallel one ships each worker's records as shards (one
        ``batch-NNN`` directory per call under ``run_dir`` when set, a
        temp directory otherwise) and merges them back in cell order
        after the pool drains — per-cell solver spans appear under
        ``w<idx>/generator`` tracks instead of being silently dropped
        (see :mod:`repro.obs.aggregate`).

        ``initials`` optionally maps a load to a warm-start value vector
        (see :meth:`generate`).
        """
        workers = num_workers if num_workers is not None else self._base.num_workers
        loads = [float(q) for q in loads_qps]
        results: List[Optional[GenerationResult]] = [None] * len(loads)
        pending: List[
            Tuple[int, float, WorkerMDPConfig, Optional[np.ndarray]]
        ] = []
        for i, q in enumerate(loads):
            key = self._key(q, workers)
            cached = self._cache.get(key)
            if cached is not None:
                self._count_cell("memory")
                results[i] = cached
                continue
            config = self._config_for(q, workers)
            if self._disk is not None:
                restored = self._disk.get(config, self._tolerance)
                if restored is not None:
                    self._cache[key] = restored
                    self._count_cell("disk")
                    results[i] = restored
                    continue
            initial = initials.get(q) if initials is not None else None
            pending.append((i, q, config, initial))

        if pending:
            if max_workers is not None and max_workers > 1 and len(pending) > 1:
                self._solve_parallel(pending, max_workers, workers, results)
            else:
                self._solve_stacked(pending, workers, results)
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _solve_stacked(
        self,
        pending: List[Tuple[int, float, WorkerMDPConfig, Optional[np.ndarray]]],
        workers: int,
        results: List[Optional[GenerationResult]],
    ) -> None:
        """Solve pending cells as one stacked bank; fill ``results`` in place.

        Each cell's result is byte-identical to a per-load
        :func:`generate_policy` call (asserted by the equivalence suite),
        so results commit to the in-memory and disk caches under the
        *same* per-load keys the process-pool path uses.
        """
        from repro.core.bank import solve_stacked_bank

        with self._tracer.span(
            "policy_bank_stacked",
            track="policy_bank",
            args={"cells": len(pending), "workers": workers},
        ):
            solved = solve_stacked_bank(
                [config for _, _, config, _ in pending],
                tolerance=self._tolerance,
                initials=[initial for _, _, _, initial in pending],
                tracer=self._tracer,
            )
        for (i, q, config, _), result in zip(pending, solved):
            self._count_cell("solve")
            self._commit(self._key(q, workers), config, result)
            results[i] = result

    def _solve_parallel(
        self,
        pending: List[Tuple[int, float, WorkerMDPConfig, Optional[np.ndarray]]],
        max_workers: int,
        workers: int,
        results: List[Optional[GenerationResult]],
    ) -> None:
        """Fan pending cells out across processes; fill ``results`` in place."""
        ship = (
            self._tracer.enabled
            or self._registry is not None
            or self._run_dir is not None
        )
        owns_dir = False
        shard_dir: Optional[Path] = None
        if ship:
            if self._run_dir is not None:
                shard_dir = self._run_dir / f"batch-{self._batch:03d}"
                shard_dir.mkdir(parents=True, exist_ok=True)
            else:
                shard_dir = new_run_dir(prefix="ramsis-bank-")
                owns_dir = True
            self._batch += 1

        pool_size = min(max_workers, len(pending))
        pool_kwargs = {}
        if shard_dir is not None:
            pool_kwargs = {
                "initializer": init_worker_obs,
                "initargs": (str(shard_dir),),
            }
        with ProcessPoolExecutor(max_workers=pool_size, **pool_kwargs) as pool:
            with self._tracer.span(
                "policy_bank_submit",
                track="policy_bank",
                args={"cells": len(pending), "processes": pool_size},
            ):
                futures = [
                    (i, q, config, pool.submit(
                        _solve_cell,
                        (i, config, self._tolerance, initial, ship),
                    ))
                    for i, q, config, initial in pending
                ]
            with self._tracer.span(
                "policy_bank_collect",
                track="policy_bank",
                args={"cells": len(pending)},
            ):
                # Collect in submit order: result placement is positional,
                # so the returned bank ordering is deterministic regardless
                # of which worker finishes first.
                for i, q, config, future in futures:
                    with self._tracer.span(
                        f"cell {q:g}qps",
                        track="policy_bank",
                        args={"load_qps": q, "workers": workers},
                    ):
                        result = future.result()
                    self._count_cell("solve")
                    self._commit(self._key(q, workers), config, result)
                    results[i] = result
        if shard_dir is not None:
            merged = merge_run_dir(
                shard_dir,
                tracer=self._tracer if self._tracer.enabled else None,
                registry=self._registry,
            )
            if owns_dir:
                shutil.rmtree(shard_dir, ignore_errors=True)
            else:
                write_merged_artifacts(merged, shard_dir)

    def cache_size(self) -> int:
        """Number of distinct (load, workers) policies generated so far."""
        return len(self._cache)
