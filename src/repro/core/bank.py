"""Stacked policy-bank solver.

A policy bank solves the *same* worker MDP at many query loads (§6): the
grid, models, rewards, action validity, and partial-drain geometry are
identical across cells — only the arrival distribution (hence the
transition kernels and discount-by-duration terms) changes with load.
:class:`StackedBankMDP` exploits that by solving the whole load grid as
one batched tensor program instead of ``L`` independent solves:

- **kernel construction** derives the load-invariant skeleton (pruned
  models, grid, latency table) once, batches the equilibrium-renewal
  quadrature across the load axis (the Erlang k-fold CDFs come from one
  Poisson-term recurrence, :func:`repro.core.transitions.gamma_cdfs`,
  elementwise in the load-dependent scale, while the §4.4 window
  geometry depends only on grid × latency), then seeds every cell's
  builder caches, the first cell's included, so per-cell assembly is a
  pure gather;
- **value iteration** runs one batched Bellman sweep per iteration over
  ``(L, ...)`` layouts with per-load convergence masks — converged loads
  freeze (their matmuls are skipped and their value slices stop
  updating), so every load observes exactly the trajectory and sweep
  count of its independent solve;
- **stationary analysis** interleaves the per-load power iterations with
  the same freeze masking, batching the normalization/residual
  elementwise work across loads.

Exactness contract
------------------
Results are **float-identical** to independent per-load solves (hence to
the loop oracle in ``tests/oracles/``), and ``Policy.save`` output is
byte-identical — the same guarantee :class:`~repro.core.mdp.WorkerMDP`
gives against that oracle.
The discipline that makes this hold: every matmul/einsum *reduction* is
invoked per load with exactly the per-load solve's operand shapes and
strides (batching a matmul across loads would dispatch a different BLAS
kernel and reassociate sums), while every *elementwise* op (add,
multiply, compare, max-reduce over in-row axes, the CDF recurrence,
clip) batches
across the load axis — ufuncs are per-element, so batching them cannot
change a single bit.  ``tests/test_solver_equivalence.py`` asserts the
contract across views, batching modes, and random load grids;
``benchmarks/bench_policy_bank.py`` gates the bank-solve speedup floor
over the process-pool fan-out in CI via ``BENCH_policy_bank.json``.

:meth:`repro.core.generator.PolicyGenerator.generate_many` solves every
serial batch of cache misses — a single load included — through
:func:`solve_stacked_bank`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.generator import GenerationResult, _annotate
from repro.core.guarantees import (
    PolicyGuarantees,
    _policy_action_table,
    evaluate_policy,
)
from repro.core.mdp import WorkerMDP, _Skeleton
from repro.core.policy import Policy
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

__all__ = ["StackedBankMDP", "solve_stacked_bank"]


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
    where the view batches), validates that every cell shares the
    load-invariant structure, and stacks the load-dependent arrays into
    ``(L, ...)`` layouts consumed by :meth:`solve`.
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
        # arrivals builds on its own; ``_validate`` then decides whether
        # the structures still agree.
        self._cells: List[WorkerMDP] = [
            _BankCellMDP(c, skeleton, seed)
            if replace(c, arrivals=base.arrivals) == base
            else WorkerMDP(c)
            for c, seed in zip(configs, seeds)
        ]
        self._validate()
        self._stack()

    @property
    def cells(self) -> List[WorkerMDP]:
        """The per-load MDPs (used for extraction and evaluation)."""
        return self._cells

    def _validate(self) -> None:
        first = self._cells[0]
        cfg = first.config
        for cell in self._cells[1:]:
            c = cell.config
            same = (
                cell.space.size == first.space.size
                and cell.num_models == first.num_models
                and cell.max_queue == first.max_queue
                and c.view is cfg.view
                and c.batching is cfg.batching
                and c.drop_late == cfg.drop_late
                and c.duration_aware_discount == cfg.duration_aware_discount
                and c.discount == cfg.discount
                and cell.grid.slo_ms == first.grid.slo_ms
                and np.array_equal(
                    cell.grid.as_array(), first.grid.as_array()
                )
                and np.array_equal(cell._latency, first._latency)
                and np.array_equal(cell._valid, first._valid)
                and np.array_equal(cell._reward, first._reward)
                and len(cell._plan_counts) == len(first._plan_counts)
                and np.array_equal(cell._plan_jmap, first._plan_jmap)
                and np.array_equal(cell._plan_valid, first._plan_valid)
            )
            if not same:
                raise ConfigurationError(
                    "stacked bank cells must share every load-invariant "
                    "input (models, grid, SLO, batching, view, extensions) "
                    "and differ only in the arrival load"
                )

    def _stack(self) -> None:
        cells = self._cells
        first = cells[0]
        cfg = first.config
        self._space = first.space
        self._grid = first.grid
        loads = len(cells)
        n_max = first.max_queue
        j_count = len(first.grid)
        m_count = first.num_models
        size = first.space.size
        self._n_max = n_max
        self._j_count = j_count

        self._split_view = cfg.view is not TransitionView.EXACT_ROUND_ROBIN
        self._drop_late = cfg.drop_late
        self._drop_gamma = (
            1.0 if cfg.duration_aware_discount else cfg.discount
        )
        self._variable = cfg.batching is BatchingMode.VARIABLE
        self._idx_one = first.space.index(1, first.grid.slo_index)

        # Load-invariant structure (validated equal across cells).
        self._reward = first._reward  # (M, N, J)
        self._valid = first._valid  # (M, N, J)
        self._no_valid = ~first._valid.any(axis=0)  # (N, J)

        # Load-dependent stacks.  Kernel row banks stay per-cell array
        # references: reductions run per load on the cell's own operands.
        self._gamma_action = np.stack([c._gamma_action for c in cells])
        self._gamma_empty = np.array([c._gamma_empty for c in cells])
        self._gamma_full = self._gamma_action[:, 0, n_max - 1].copy()
        if self._split_view:
            self._rows_list = [c._rows for c in cells]
        else:
            self._rows_by_phase_list = [c._rows_by_phase for c in cells]
            self._phase_weights_list = [c._phase_weights for c in cells]
            self._full_phase_list = [c._full_phase for c in cells]
            self._ev_phase = np.empty(
                (loads, m_count, n_max, self._rows_by_phase_list[0].shape[2])
            )
            self._ev_state = np.empty((loads, m_count, n_max, j_count))
            self._ev_full = np.empty(loads)

        # Sweep buffers.
        self._ev = np.empty((loads, m_count, n_max))
        self._prod = np.empty((loads, m_count, n_max))
        self._q = np.empty((loads, m_count, n_max, j_count))
        self._best = np.empty((loads, n_max, j_count))
        self._new_values = np.empty((loads, size))

        # Variable-batching partial-drain plan, stacked.
        self._p_count = len(first._plan_counts)
        if self._variable and self._p_count:
            self._plan_b = first._plan_b
            self._plan_dead = first._plan_dead
            self._plan_gamma = np.stack([c._plan_gamma for c in cells])
            self._plan_reward = np.stack([c._plan_reward for c in cells])
            self._plan_residual = np.stack(
                [c._plan_residual for c in cells]
            )
            self._plan_counts_list = [c._plan_counts for c in cells]
            block = self._p_count * n_max * j_count
            self._take_stack = (
                first._plan_take[None]
                + (np.arange(loads, dtype=np.intp) * block)[
                    :, None, None, None
                ]
            )
            self._fold_vpad = np.empty((loads, 2 * n_max + 1, j_count))
            self._fold_ev = np.empty(
                (loads, self._p_count, n_max, j_count)
            )
            self._fold_q = np.empty_like(self._fold_ev)

    # ------------------------------------------------------------------
    # One batched Bellman sweep
    # ------------------------------------------------------------------
    def _sweep(
        self,
        values: np.ndarray,
        new_values: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Write one optimality backup of every active load.

        Frozen (converged) loads skip their reductions; the batched
        elementwise passes still touch their stale rows, but those rows
        are never read back — ``solve`` only copies active slices.
        """
        space = self._space
        n_max = self._n_max

        # Expected continuation value of full-drain actions: the one
        # per-load reduction, invoked with the per-load solve's exact
        # operand shapes so the BLAS kernel (and its summation order)
        # matches the independent solve bit for bit.
        ev = self._ev
        if self._split_view:
            for i in active:
                np.matmul(self._rows_list[i], values[i], out=ev[i])
            # q[l, m, n, j] = reward[m, n, j] + gamma[l, m, n] * ev[l, m, n]
            # — the same two IEEE ops per element as the per-load backup
            # (the j axis broadcasts the identical product).
            np.multiply(self._gamma_action, ev, out=self._prod)
            np.add(
                self._reward[None],
                self._prod[:, :, :, None],
                out=self._q,
            )
            ev_full = ev[:, 0, n_max - 1]
        else:
            for i in active:
                np.matmul(
                    self._rows_by_phase_list[i],
                    values[i],
                    out=self._ev_phase[i],
                )
                self._ev_state[i] = np.einsum(
                    "mnk,njk->mnj",
                    self._ev_phase[i],
                    self._phase_weights_list[i],
                )
                self._ev_full[i] = float(
                    self._ev_phase[i][0, n_max - 1]
                    @ self._full_phase_list[i]
                )
            np.multiply(
                self._gamma_action[:, :, :, None],
                self._ev_state,
                out=self._q,
            )
            np.add(self._reward[None], self._q, out=self._q)
            ev_full = self._ev_full

        # Masked max over actions — bitwise equal to the per-load
        # ``np.where(valid, q, -inf).max(axis=0)``.
        np.max(
            self._q,
            axis=1,
            where=self._valid[None],
            initial=-np.inf,
            out=self._best,
        )

        # Forced fallback (§4.3.1) where nothing is valid.
        if self._drop_late:
            fb = self._drop_gamma * values[:, space.EMPTY]
            np.copyto(
                self._best, fb[:, None, None], where=self._no_valid[None]
            )
        elif self._split_view:
            # prod[l, 0, n] is exactly the per-load fallback product
            # gamma[0, n] * ev[0, n].
            np.copyto(
                self._best,
                self._prod[:, 0, :, None],
                where=self._no_valid[None],
            )
        else:
            fb = self._gamma_action[:, 0, :, None] * self._ev_state[:, 0]
            np.copyto(self._best, fb, where=self._no_valid[None])

        if self._variable and self._p_count:
            self._fold_partial_stack(values, active)

        new_values[:, 2:] = self._best.reshape(len(self._cells), -1)
        new_values[:, space.EMPTY] = (
            self._gamma_empty * values[:, self._idx_one]
        )
        if self._drop_late:
            new_values[:, space.FULL] = (
                self._drop_gamma * values[:, space.EMPTY]
            )
        else:
            new_values[:, space.FULL] = self._gamma_full * ev_full

    def _fold_partial_stack(
        self, values: np.ndarray, active: np.ndarray
    ) -> None:
        """Load-batched mirror of :meth:`WorkerMDP._fold_partial_actions`."""
        space = self._space
        n_max = self._n_max
        loads = len(self._cells)
        v_full = values[:, space.FULL]

        vpad = self._fold_vpad
        vpad[:, :n_max] = values[:, 2:].reshape(loads, n_max, self._j_count)
        vpad[:, n_max:] = v_full[:, None, None]
        windows = np.lib.stride_tricks.sliding_window_view(
            vpad, n_max + 1, axis=1
        )  # (L, N + 1, J, N + 1); per-load slice has the per-load strides

        ev_stack = self._fold_ev
        for i in active:
            counts = self._plan_counts_list[i]
            win = windows[i]
            for p, b in enumerate(self._plan_b):
                np.matmul(
                    win[: n_max - b], counts[p], out=ev_stack[i, p, b:]
                )
        ev_stack += (
            self._plan_residual[:, :, None, None]
            * v_full[:, None, None, None]
        )
        q_cand = self._fold_q
        np.take(ev_stack, self._take_stack, out=q_cand)
        q_cand *= self._plan_gamma[:, :, None, None]
        q_cand += self._plan_reward[:, :, None, None]
        np.copyto(q_cand, -np.inf, where=self._plan_dead[None])
        np.maximum(q_cand.max(axis=1), self._best, out=self._best)

    # ------------------------------------------------------------------
    # Batched value iteration with per-load convergence masks
    # ------------------------------------------------------------------
    def solve(
        self,
        tolerance: float = 1e-7,
        max_iterations: int = 20_000,
        initials: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> List[SolveStats]:
        """Value-iterate every load to its sup-norm fixed point.

        All loads start together and sweep in lockstep; a load whose
        residual drops below ``tolerance`` freezes (its slice stops
        updating and its reductions are skipped), so its recorded
        ``iterations`` equals the independent solve's sweep count.
        Raises :class:`SolverError` naming the unconverged loads when the
        ceiling is hit.
        """
        if tolerance <= 0:
            raise SolverError(f"tolerance must be > 0, got {tolerance}")
        if max_iterations < 1:
            raise SolverError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        loads = len(self._cells)
        if initials is not None and len(initials) != loads:
            raise ConfigurationError(
                f"got {len(initials)} warm-start vectors for {loads} cells"
            )
        size = self._space.size
        values = np.zeros((loads, size), dtype=np.float64)
        warm = np.zeros(loads, dtype=bool)
        if initials is not None:
            for i, init in enumerate(initials):
                if init is not None:
                    values[i] = init
                    warm[i] = True
        stats: List[Optional[SolveStats]] = [None] * loads
        frozen = np.zeros(loads, dtype=bool)
        new_values = self._new_values
        start = time.perf_counter()
        for sweep in range(1, max_iterations + 1):
            active = np.nonzero(~frozen)[0]
            self._sweep(values, new_values, active)
            # Row-wise sup-norm over the whole stack: per-row max-abs along
            # axis 1 is element-for-element the same IEEE ops as the
            # per-load ``np.max(np.abs(new - old))``, so residuals match
            # the independent solves bitwise.  Frozen rows are stale in
            # ``new_values`` — their entries are computed but never read.
            resid = np.max(np.abs(new_values - values), axis=1)
            values[active] = new_values[active]
            for i in active:
                if resid[i] < tolerance:
                    frozen[i] = True
                    stats[i] = SolveStats(
                        values=values[i].copy(),
                        iterations=sweep,
                        residual=float(resid[i]),
                        runtime_s=time.perf_counter() - start,
                        converged=True,
                        warm_started=bool(warm[i]),
                    )
            if frozen.all():
                return stats  # type: ignore[return-value]
        missing = ", ".join(
            f"{self._cells[i].config.load_qps:g}"
            for i in np.nonzero(~frozen)[0]
        )
        raise SolverError(
            f"stacked bank value iteration did not converge after "
            f"{max_iterations} sweeps (unconverged load(s): {missing} qps)"
        )

    # ------------------------------------------------------------------
    # Batched stationary analysis (§5.1)
    # ------------------------------------------------------------------
    def stationary_distributions(
        self,
        policies: Sequence[Policy],
        tolerance: float = 1e-10,
        max_iterations: int = 100_000,
    ) -> List[np.ndarray]:
        """Stationary distribution of every cell's policy-induced chain.

        Power iteration over the block-diagonal stack of chains: one
        per-load matrix-vector application per step (the reduction whose
        summation order must match the independent solve), with the
        normalization and residual passes batched across loads and the
        same per-load freeze masking as :meth:`solve` — each returned
        vector is bitwise identical to
        :func:`repro.core.guarantees.stationary_distribution`.
        """
        cells = self._cells
        if len(policies) != len(cells):
            raise ConfigurationError(
                f"got {len(policies)} policies for {len(cells)} cells"
            )
        rows_list = [
            cell.policy_rows(_policy_action_table(cell, policy))
            for cell, policy in zip(cells, policies)
        ]
        loads = len(cells)
        size = self._space.size
        dist = np.full((loads, size), 1.0 / size)
        upd = np.empty_like(dist)
        result = np.empty_like(dist)
        frozen = np.zeros(loads, dtype=bool)
        for _ in range(max_iterations):
            active = np.nonzero(~frozen)[0]
            for i in active:
                upd[i] = dist[i] @ rows_list[i]
            totals = upd.sum(axis=1)
            if (totals[active] <= 0).any():
                raise SolverError(
                    "stationary iteration lost all probability mass"
                )
            np.divide(upd, totals[:, None], out=upd)
            resid = np.max(np.abs(upd - dist), axis=1)
            for i in active:
                if resid[i] < tolerance:
                    frozen[i] = True
                    result[i] = upd[i]
                else:
                    dist[i] = upd[i]
            if frozen.all():
                return [result[i] for i in range(loads)]
        raise SolverError(
            f"power iteration did not converge within {max_iterations} steps"
        )

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
) -> List[GenerationResult]:
    """Solve a whole load grid as one stacked tensor program.

    The bank-level analogue of :func:`repro.core.generator.generate_policy`:
    one call builds the stacked bank, value-iterates every load with
    convergence masks, extracts per-load policies, and (by default)
    computes the §5.1 guarantees through the batched stationary solve.
    Every returned :class:`GenerationResult` is byte-identical — policy,
    guarantees, iteration count — to an independent ``generate_policy``
    call for that cell; ``runtime_s`` divides the bank's wall clock
    evenly across cells (per-cell attribution has no meaning inside one
    batched solve).

    ``initials`` optionally warm-starts individual loads (aligned with
    ``configs``); an enabled ``tracer`` records the build / solve /
    evaluate phases on the ``generator`` track.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    with tracer.span(
        "stacked_bank", track="generator", args={"cells": len(configs)}
    ):
        with tracer.span("build_stacked_bank", track="generator"):
            bank = StackedBankMDP(configs)
        with tracer.span("stacked_value_iteration", track="generator"):
            stats = bank.solve(tolerance=tolerance, initials=initials)
        policies = [
            cell.extract_policy(s.values)
            for cell, s in zip(bank.cells, stats)
        ]
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
