"""High-level offline policy generation (§3.1).

:func:`generate_policy` is the one-call entry point: configuration in,
solved and annotated :class:`~repro.core.policy.Policy` out, as a
one-load :func:`repro.core.bank.solve_stacked_bank`.
:class:`PolicyGenerator` layers two caches and batching on top:

- an **in-memory** cache keyed by ``(load, workers, tolerance)`` so sweeps
  within one process never solve the same MDP twice;
- an optional **persistent disk** cache (:class:`repro.cache.PolicyCache`)
  keyed by a content hash of the canonicalized config, so experiment
  invocations share solved policies across processes and runs;
- :meth:`PolicyGenerator.generate_many`, which solves every cache miss of
  a batch as one stacked bank, in the order given — byte-identical to
  per-load :func:`generate_policy` calls.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.bank import GenerationResult, solve_stacked_bank
from repro.core.config import WorkerMDPConfig
from repro.core.mdp import _Skeleton
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cache uses results)
    from repro.cache import PolicyCache
    from repro.obs.metrics import MetricsRegistry

__all__ = ["PolicyGenerator", "generate_policy"]


def generate_policy(
    config: WorkerMDPConfig,
    tolerance: float = 1e-7,
    with_guarantees: bool = True,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
    initial: Optional[np.ndarray] = None,
) -> GenerationResult:
    """Build the worker MDP, solve it, and package the optimal MS policy.

    A one-load :func:`repro.core.bank.solve_stacked_bank`.  When
    ``with_guarantees`` is set (default), the §5.1 expectations are
    computed and embedded in the policy metadata — the policy-set
    refinement rule and the resource-planning example consume them.

    ``initial`` warm-starts value iteration from a previously converged
    value vector of shape ``(S,)`` (e.g. an adjacent load's), cutting
    sweep counts without changing the policy.  The returned values are
    those of the sweep that certified the policy, so they depend on the
    starting vector.

    An enabled ``tracer`` records the three offline phases (kernel/MDP
    construction, value iteration, guarantee evaluation) as nested spans
    on the ``generator`` track plus one event per solver sweep;
    ``record_residuals`` keeps the residual history on the result even
    without a tracer.
    """
    return solve_stacked_bank(
        [config],
        tolerance=tolerance,
        initials=[initial],
        with_guarantees=with_guarantees,
        tracer=tracer,
        record_residuals=record_residuals,
    )[0]


class PolicyGenerator:
    """Caching, batching policy source over one base configuration.

    Resolution order for every cell: in-memory cache -> persistent disk
    cache (when ``cache`` is given) -> solve (one stacked bank per
    :meth:`generate_many` call).  The in-memory key is
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
    ) -> None:
        self._base = base_config
        self._tolerance = tolerance
        self._cache: Dict[Tuple[float, int, float], GenerationResult] = {}
        self._disk = cache
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._registry = registry
        # The load-invariant skeleton every bank shares; neither the load
        # nor the worker count of a cell changes it.  Built on first solve.
        self._skeleton: Optional[_Skeleton] = None

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
        (the policy does not depend on the seed, though the stopping
        values do; warm/cold convergence to the same policy is asserted
        by the test suite).
        """
        initials = None if initial is None else {float(load_qps): initial}
        return self.generate_many([load_qps], num_workers, initials=initials)[0]

    def generate_many(
        self,
        loads_qps: Sequence[float],
        num_workers: Optional[int] = None,
        initials: Optional[Mapping[float, Optional[np.ndarray]]] = None,
    ) -> List[GenerationResult]:
        """Policies for a batch of loads, in the order given.

        Cache layers are consulted first; the misses solve as one stacked
        bank in this process (:func:`repro.core.bank.solve_stacked_bank`,
        a single miss included), inside one ``policy_bank_stacked`` span
        on the tracer's ``policy_bank`` track.  Results come back in the
        order of ``loads_qps`` and are byte-identical to per-load
        :func:`generate_policy` calls, so they commit under per-load
        cache keys.

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
        per-load keys a one-load :meth:`generate` uses.
        """
        if self._skeleton is None:
            self._skeleton = _Skeleton.of(self._base)
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
                skeleton=self._skeleton,
            )
        for (i, q, config, _), result in zip(pending, solved):
            self._count_cell("solve")
            self._commit(self._key(q, workers), config, result)
            results[i] = result

    def cache_size(self) -> int:
        """Number of distinct (load, workers) policies generated so far."""
        return len(self._cache)
