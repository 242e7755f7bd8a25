"""The policy solve path: stacked policy banks.

A policy bank solves the *same* worker MDP at many query loads (§6): the
grid, models, rewards, action validity, and partial-drain geometry are
identical across cells — only the arrival distribution (hence the
transition kernels and discount-by-duration terms) changes with load.
:class:`StackedBankMDP` exploits that by solving the whole load grid as
one batched tensor program instead of ``L`` independent solves, and
:func:`solve_stacked_bank` is the one entry point every policy solve
goes through: :func:`repro.core.generator.generate_policy` is a one-load
bank, and :meth:`repro.core.generator.PolicyGenerator.generate_many`
solves every serial batch of cache misses as one bank (its process pool
runs ``generate_policy`` per cell).

- **kernel construction** derives the load-invariant skeleton (pruned
  models, grid, latency table) once, batches the equilibrium-renewal
  quadrature across the load axis (the Erlang k-fold CDFs come from one
  Poisson-term recurrence, :func:`repro.core.transitions.gamma_cdfs`,
  elementwise in the load-dependent scale, while the §4.4 window
  geometry depends only on grid × latency), then seeds every cell's
  builder caches, the first cell's included, so per-cell assembly is a
  pure gather;
- **value iteration** drives one :class:`~repro.core.mdp.BellmanKernel`
  over the stacked cells with per-load convergence masks — converged
  loads freeze (their matmuls are skipped and their value slices stop
  updating), so every load observes exactly the trajectory and sweep
  count of its independent solve;
- **policy extraction** is one greedy pass of the same kernel over every
  load;
- **stationary analysis** runs every cell's chain through
  :func:`repro.core.guarantees.power_iterate` with the same freeze
  masking.

Exactness contract
------------------
Results are **float-identical** whatever the stack, and ``Policy.save``
output is byte-identical to the loop oracle in ``tests/oracles/`` (see
:class:`~repro.core.mdp.BellmanKernel` for the discipline that makes
this hold; the CDF recurrence and clips of kernel construction are
elementwise too).  ``tests/test_solver_equivalence.py`` asserts the
contract across views, batching modes, and random load grids;
``benchmarks/bench_policy_bank.py`` gates the speedup of one stacked
solve over per-load solves in CI via ``BENCH_policy_bank.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransitionView, WorkerMDPConfig
from repro.core.guarantees import (
    PolicyGuarantees,
    _policy_action_table,
    evaluate_policy,
    power_iterate,
)
from repro.core.mdp import BellmanKernel, WorkerMDP, _Skeleton
from repro.core.policy import Policy, PolicyMetadata
from repro.core.solvers import SolveStats
from repro.core.transitions import (
    DeterministicGaps,
    EquilibriumRenewalKernelBuilder,
    GammaGaps,
    RenewalGaps,
    gaps_for_distribution,
)
from repro.errors import ConfigurationError, SolverError
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["GenerationResult", "StackedBankMDP", "solve_stacked_bank"]


@dataclass(frozen=True)
class GenerationResult:
    """A generated policy plus its provenance and offline guarantees.

    ``residuals`` carries value iteration's per-sweep residual history
    when the caller asked for it (``record_residuals`` or an enabled
    tracer).  ``values`` is the converged value vector — kept so the §6
    refinement loop can warm-start adjacent loads — and ``from_cache``
    marks results restored from the persistent disk cache rather than
    solved.
    """

    policy: Policy
    guarantees: PolicyGuarantees
    iterations: int
    runtime_s: float
    residuals: Optional[Tuple[float, ...]] = None
    values: Optional[np.ndarray] = field(default=None, compare=False)
    from_cache: bool = field(default=False, compare=False)


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


# ----------------------------------------------------------------------
# Batched kernel construction (construction-time only)
# ----------------------------------------------------------------------
@dataclass
class _KernelSeed:
    """Precomputed builder-cache contents for one load cell."""

    service_rows: Dict[float, np.ndarray]
    arrival_counts: Dict[float, np.ndarray]


class _BankCellMDP(WorkerMDP):
    """One load cell of a stacked bank.

    It reuses the bank's shared load-invariant :class:`_Skeleton` instead
    of recomputing it, and, where the view batches, starts with its
    renewal-kernel caches pre-seeded: the builder caches rows/counts by
    ``round(latency, 9)``, so installing the batched-construction results
    before row assembly turns every ``service_row``/``arrival_counts``
    call into a cache hit and the cell builds without any quadrature.
    """

    def __init__(
        self,
        config: WorkerMDPConfig,
        skeleton: _Skeleton,
        seed: Optional[_KernelSeed],
    ) -> None:
        self._shared_skeleton = skeleton
        self._kernel_seed = seed
        super().__init__(config)

    def _build_skeleton(self, config: WorkerMDPConfig) -> _Skeleton:
        return self._shared_skeleton

    def _build_split_rows(self) -> np.ndarray:
        if self._kernel_seed is not None:
            self._split._service_cache.update(self._kernel_seed.service_rows)
            self._split._count_cache.update(self._kernel_seed.arrival_counts)
        return super()._build_split_rows()


def _stacked_kernel_seeds(
    skeleton: _Skeleton, configs: Sequence[WorkerMDPConfig]
) -> Optional[List[_KernelSeed]]:
    """Batched renewal-kernel construction for every load cell.

    Only the ``ROUND_ROBIN_MARGINAL`` view with a single gap family
    (shared-shape Gamma, or deterministic) batches; other views return
    ``None`` and each cell builds its kernels independently (stacked
    Bellman sweeps still apply).  One
    :class:`~repro.core.transitions.EquilibriumRenewalKernelBuilder` over
    a gap model stacked across loads computes every cell's rows at once,
    each bitwise identical to what the cell's own one-load builder would
    compute (see its ``service_rows``).
    """
    if configs[0].view is not TransitionView.ROUND_ROBIN_MARGINAL:
        return None
    try:
        gaps = [gaps_for_distribution(c.per_worker_arrivals()) for c in configs]
    except TypeError:
        return None
    first = gaps[0]
    if all(isinstance(g, GammaGaps) and g.shape == first.shape for g in gaps):
        stack: RenewalGaps = GammaGaps(
            first.shape, np.array([g.scale_ms for g in gaps])
        )
    elif all(isinstance(g, DeterministicGaps) for g in gaps):
        stack = DeterministicGaps(np.array([g.gap_ms for g in gaps]))
    else:
        return None

    builder = EquilibriumRenewalKernelBuilder(
        skeleton.grid, stack, skeleton.max_queue
    )
    service_rows, count_rows = builder.prefill(
        *skeleton.kernel_latencies(configs[0].batching)
    )
    return [
        _KernelSeed(
            service_rows={k: v[i] for k, v in service_rows.items()},
            arrival_counts={k: v[i] for k, v in count_rows.items()},
        )
        for i in range(len(configs))
    ]


# ----------------------------------------------------------------------
# The stacked bank
# ----------------------------------------------------------------------
class StackedBankMDP:
    """One load grid's worth of worker MDPs, solved as a single program.

    Construction builds one :class:`WorkerMDP` per load on a shared
    load-invariant skeleton (every cell with pre-seeded kernel caches
    where the view batches) and one :class:`BellmanKernel` over all of
    them, which validates that every cell shares the load-invariant
    structure.
    """

    def __init__(self, configs: Sequence[WorkerMDPConfig]) -> None:
        if not configs:
            raise ConfigurationError(
                "stacked bank needs at least one load cell"
            )
        base = configs[0]
        skeleton = _Skeleton.of(base)
        seeds = _stacked_kernel_seeds(skeleton, configs) or [None] * len(configs)
        # A cell whose config differs from the first in more than its
        # arrivals builds on its own; the kernel then decides whether the
        # structures still agree.
        self._cells: List[WorkerMDP] = [
            _BankCellMDP(c, skeleton, seed)
            if replace(c, arrivals=base.arrivals) == base
            else WorkerMDP(c)
            for c, seed in zip(configs, seeds)
        ]
        self._kernel = BellmanKernel(self._cells)

    @property
    def cells(self) -> List[WorkerMDP]:
        """The per-load MDPs (used for extraction and evaluation)."""
        return self._cells

    # ------------------------------------------------------------------
    # Batched value iteration with per-load convergence masks
    # ------------------------------------------------------------------
    def solve(
        self,
        tolerance: float = 1e-7,
        max_iterations: int = 20_000,
        initials: Optional[Sequence[Optional[np.ndarray]]] = None,
        tracer: Optional[Tracer] = None,
        record_residuals: bool = False,
    ) -> List[SolveStats]:
        """Value-iterate every load to its sup-norm fixed point.

        All loads start together and sweep in lockstep; a load whose
        residual drops below ``tolerance`` freezes (its slice stops
        updating and its reductions are skipped), so its recorded
        ``iterations`` equals the independent solve's sweep count.
        ``initials`` warm-starts individual loads; each vector must have
        shape ``(S,)``.  Raises :class:`SolverError` naming the
        unconverged loads when the ceiling is hit.

        With ``record_residuals`` (or an enabled ``tracer``) every load's
        per-sweep residual history is kept on :attr:`SolveStats.residuals`.
        The tracer additionally receives one ``bellman_sweep`` wall-clock
        span on the ``solver`` track per lockstep sweep — the phase the
        profiler (:class:`repro.obs.profile.PhaseProfiler`) aggregates —
        and one ``vi_sweep`` event per active load per sweep (timestamped
        in wall-clock ms since solve start).
        """
        if tolerance <= 0:
            raise SolverError(f"tolerance must be > 0, got {tolerance}")
        if max_iterations < 1:
            raise SolverError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        cells = self._cells
        loads = len(cells)
        if initials is not None and len(initials) != loads:
            raise ConfigurationError(
                f"got {len(initials)} warm-start vectors for {loads} cells"
            )
        size = cells[0].num_states
        values = np.zeros((loads, size), dtype=np.float64)
        warm = np.zeros(loads, dtype=bool)
        for i, init in enumerate(initials or ()):
            if init is None:
                continue
            if np.shape(init) != (size,):
                raise ConfigurationError(
                    f"warm start for load {cells[i].config.load_qps:g} qps "
                    f"has shape {np.shape(init)}, expected ({size},)"
                )
            values[i] = init
            warm[i] = True
        tracing = tracer is not None and tracer.enabled
        histories = (
            [[] for _ in range(loads)]
            if (record_residuals or tracing)
            else None
        )
        stats: List[Optional[SolveStats]] = [None] * loads
        frozen = np.zeros(loads, dtype=bool)
        kernel = self._kernel
        start = time.perf_counter()
        for sweep in range(1, max_iterations + 1):
            active = np.nonzero(~frozen)[0]
            if tracing:
                # Skipped entirely when untraced so the hot path stays
                # free of context-manager overhead.
                with tracer.span(
                    "bellman_sweep", track="solver", args={"iteration": sweep}
                ):
                    new_values = kernel.sweep(values, active)
            else:
                new_values = kernel.sweep(values, active)
            # Row-wise sup-norm over the whole stack: per-row max-abs along
            # axis 1 is element-for-element the same IEEE ops as a one-load
            # ``np.max(np.abs(new - old))``.  Frozen rows are stale in
            # ``new_values`` — their entries are computed but never read.
            resid = np.max(np.abs(new_values - values), axis=1)
            values[active] = new_values[active]
            for i in active:
                residual = float(resid[i])
                if histories is not None:
                    histories[i].append(residual)
                    if tracing:
                        tracer.instant(
                            "vi_sweep",
                            "solver",
                            (time.perf_counter() - start) * 1000.0,
                            category="solver",
                            args={"iteration": sweep, "residual": residual},
                        )
                if residual < tolerance:
                    frozen[i] = True
                    stats[i] = SolveStats(
                        values=values[i].copy(),
                        iterations=sweep,
                        residual=residual,
                        runtime_s=time.perf_counter() - start,
                        converged=True,
                        residuals=(
                            None if histories is None else tuple(histories[i])
                        ),
                        warm_started=bool(warm[i]),
                    )
            if frozen.all():
                return stats  # type: ignore[return-value]
        missing = ", ".join(
            f"{cells[i].config.load_qps:g}" for i in np.nonzero(~frozen)[0]
        )
        raise SolverError(
            f"stacked bank value iteration did not converge after "
            f"{max_iterations} sweeps (unconverged load(s): {missing} qps)"
        )

    def extract_policies(self, stats: Sequence[SolveStats]) -> List[Policy]:
        """Every cell's greedy policy, from one greedy kernel pass."""
        _, tables = self._kernel.greedy(np.stack([s.values for s in stats]))
        return [cell.policy_of(t) for cell, t in zip(self._cells, tables)]

    # ------------------------------------------------------------------
    # Batched stationary analysis (§5.1)
    # ------------------------------------------------------------------
    def stationary_distributions(
        self,
        policies: Sequence[Policy],
        tolerance: float = 1e-10,
        max_iterations: int = 100_000,
    ) -> List[np.ndarray]:
        """Stationary distribution of every cell's policy-induced chain,
        each bitwise identical to
        :func:`repro.core.guarantees.stationary_distribution`."""
        cells = self._cells
        if len(policies) != len(cells):
            raise ConfigurationError(
                f"got {len(policies)} policies for {len(cells)} cells"
            )
        chains = [
            cell.policy_rows(_policy_action_table(cell, policy))
            for cell, policy in zip(cells, policies)
        ]
        return power_iterate(chains, tolerance, max_iterations)

    def evaluate(
        self, policies: Sequence[Policy], tolerance: float = 1e-10
    ) -> List[PolicyGuarantees]:
        """§5.1 guarantees for every cell, sharing the batched stationary
        solve; identical to per-load :func:`evaluate_policy` calls."""
        dists = self.stationary_distributions(policies, tolerance=tolerance)
        return [
            evaluate_policy(
                cell, policy, tolerance=tolerance, dist=dists[i]
            )
            for i, (cell, policy) in enumerate(zip(self._cells, policies))
        ]


# ----------------------------------------------------------------------
# Bank-level entry point
# ----------------------------------------------------------------------
def solve_stacked_bank(
    configs: Sequence[WorkerMDPConfig],
    tolerance: float = 1e-7,
    initials: Optional[Sequence[Optional[np.ndarray]]] = None,
    with_guarantees: bool = True,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
) -> List[GenerationResult]:
    """Solve a whole load grid as one stacked tensor program.

    One call builds the stacked bank, value-iterates every load with
    convergence masks, extracts per-load policies, and (by default)
    computes the §5.1 guarantees through the batched stationary solve.
    Every returned :class:`GenerationResult` is byte-identical — policy,
    guarantees, iteration count, residuals — to a one-load call for that
    cell; ``runtime_s`` divides the bank's wall clock evenly across cells
    (per-cell attribution has no meaning inside one batched solve).

    ``initials`` optionally warm-starts individual loads (aligned with
    ``configs``).  An enabled ``tracer`` records the build / solve /
    evaluate phases on the ``generator`` track and the per-sweep events
    of :meth:`StackedBankMDP.solve`; ``record_residuals`` keeps the
    residual history on the results even without a tracer.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    with tracer.span(
        "stacked_bank", track="generator", args={"cells": len(configs)}
    ):
        with tracer.span("build_stacked_bank", track="generator"):
            bank = StackedBankMDP(configs)
        with tracer.span("stacked_value_iteration", track="generator"):
            stats = bank.solve(
                tolerance=tolerance,
                initials=initials,
                tracer=tracer,
                record_residuals=record_residuals,
            )
        policies = bank.extract_policies(stats)
        if with_guarantees:
            with tracer.span("stacked_evaluate", track="generator"):
                guarantees = bank.evaluate(policies)
            policies = [
                _annotate(policy, g)
                for policy, g in zip(policies, guarantees)
            ]
        else:
            nan = float("nan")
            guarantees = [
                PolicyGuarantees(
                    expected_accuracy=nan,
                    expected_violation_rate=nan,
                    per_epoch_accuracy=nan,
                    per_epoch_violation_rate=nan,
                    full_state_probability=nan,
                    idle_probability=nan,
                )
                for _ in configs
            ]
    per_cell = (time.perf_counter() - start) / len(configs)
    return [
        GenerationResult(
            policy=policy,
            guarantees=g,
            iterations=s.iterations,
            runtime_s=per_cell,
            residuals=s.residuals,
            values=s.values,
        )
        for policy, g, s in zip(policies, guarantees, stats)
    ]
