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
solves every batch of cache misses as one bank.

- **kernel construction** derives the load-invariant skeleton (pruned
  models, grid, latency table, distinct kernel latencies, and the
  renewal view's quadrature plans: the §4.4 window geometry, which
  depends only on grid × latency) once — once per
  :class:`~repro.core.generator.PolicyGenerator`, whose banks all
  share it — and, where the loads share one renewal gap model, makes
  one batched builder call over every load (the Erlang k-fold CDFs
  come from one Poisson-term recurrence,
  :func:`repro.core.transitions.gamma_cdfs`, elementwise in the
  load-dependent scale, and each quadrature block is contracted once
  over all of its windows and loads); every cell, the first included,
  takes its load's slice, so per-cell assembly is a pure gather.  Other
  cells make the same builder call for their own load;
- **value iteration** is the one loop,
  :func:`repro.core.solvers.iterate_stack`, sweeping one
  :class:`~repro.core.mdp.BellmanKernel` over the stacked cells with
  per-load freeze masks — a load freezes once its greedy table is
  certified optimal (:func:`repro.core.solvers.certified`: its greedy
  margin beats the span bound of its last change) or once its residual
  drops below the tolerance, whichever comes first; frozen loads skip
  their matmuls and their value slices stop updating, so every load
  observes exactly the trajectory and sweep count of its independent
  solve;
- **policy extraction** is one greedy pass of the same kernel over every
  load, giving each cell's action table (:mod:`repro.core.mdp`);
- **stationary analysis** runs every cell's chain, built from its
  action table, through :func:`repro.core.guarantees.power_iterate` with
  the same freeze masking (a chain that does not settle fails the
  evaluation with its load named), and the §5.1 guarantees are summed
  from the same table; one :meth:`~repro.core.mdp.WorkerMDP.policy_of`
  per cell then packages the policy with them.  The bank never reads a
  ``Policy``.

Exactness contract
------------------
Results are **float-identical** whatever the stack, and ``Policy.save``
output is byte-identical to the loop oracle in ``tests/oracles/`` (see
:class:`~repro.core.mdp.BellmanKernel` for the discipline that makes
this hold; the CDF recurrence and clips of kernel construction are
elementwise too, and each quadrature contraction reduces every window
over its own contiguous nodes, so a row is bitwise the per-(latency,
load) loop oracle's, ``tests/oracles/renewal_rows.py``).
``tests/test_solver_equivalence.py`` asserts the contract across views,
batching modes, and random load grids; ``tests/test_renewal_rows.py``
pins the rows to their oracle across gap families, grids and stacks;
``benchmarks/bench_policy_bank.py`` gates the speedup of one stacked
solve over per-load solves in CI via ``BENCH_policy_bank.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import TransitionView, WorkerMDPConfig
from repro.core.guarantees import (
    PolicyGuarantees,
    expected_guarantees,
    power_iterate,
)
from repro.core.mdp import BellmanKernel, WorkerMDP, _Skeleton
from repro.core.policy import Policy
from repro.core.solvers import SolveStats, iterate_stack
from repro.core.transitions import (
    DeterministicGaps,
    EquilibriumRenewalKernelBuilder,
    GammaGaps,
    RenewalGaps,
    gaps_for_distribution,
)
from repro.errors import ConfigurationError
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = ["GenerationResult", "StackedBankMDP", "solve_stacked_bank"]


@dataclass(frozen=True)
class GenerationResult:
    """A generated policy plus its provenance and offline guarantees.

    ``iterations`` counts the Bellman backups behind ``values``, and
    ``residuals`` carries their per-sweep residual history when the
    caller asked for it (``record_residuals`` or an enabled tracer).
    ``values`` is the vector value iteration stopped at — the one whose
    greedy table is the policy, kept so the §6 refinement loop can
    warm-start adjacent loads; when the stop was certified it is not
    within ``tolerance / (1 - gamma)`` of optimal — and ``from_cache``
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


# ----------------------------------------------------------------------
# Batched kernel construction (construction-time only)
# ----------------------------------------------------------------------
def _stacked_kernels(
    skeleton: _Skeleton, configs: Sequence[WorkerMDPConfig]
) -> Optional[List[Tuple[np.ndarray, np.ndarray]]]:
    """Every cell's full-drain rows and count pmfs from one batched call.

    Only the ``ROUND_ROBIN_MARGINAL`` view with a single gap family
    (shared-shape Gamma, or deterministic) stacks; otherwise returns
    ``None`` and each cell makes its own call.  One
    :class:`~repro.core.transitions.EquilibriumRenewalKernelBuilder` over
    a gap model stacked across loads builds every cell's rows at once,
    each bitwise what the cell's own one-load builder computes (see its
    ``service_rows``); cell ``i`` gets load slice ``i``.
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
    rows = builder.service_rows(skeleton.service_plan)
    counts = builder.count_rows(skeleton.count_plan)
    return [(rows[:, i], counts[:, i]) for i in range(len(configs))]


# ----------------------------------------------------------------------
# The stacked bank
# ----------------------------------------------------------------------
class StackedBankMDP:
    """One load grid's worth of worker MDPs, solved as a single program.

    Construction builds one :class:`WorkerMDP` per load on a shared
    load-invariant skeleton (each cell with its load's slice of one
    batched kernel call where the loads stack) and one
    :class:`BellmanKernel` over all of them, which validates that every
    cell shares the load-invariant structure.

    ``skeleton`` is the first config's :class:`~repro.core.mdp._Skeleton`
    when the caller already holds it (a generator's banks all share one);
    it must be what ``_Skeleton.of(configs[0])`` would build, and one on
    another grid or queue bound is refused.
    """

    def __init__(
        self,
        configs: Sequence[WorkerMDPConfig],
        skeleton: Optional[_Skeleton] = None,
    ) -> None:
        if not configs:
            raise ConfigurationError(
                "stacked bank needs at least one load cell"
            )
        base = configs[0]
        if skeleton is None:
            skeleton = _Skeleton.of(base)
        elif (skeleton.max_queue, skeleton.grid) != (
            base.effective_max_queue(),
            base.build_grid(),
        ):
            raise ConfigurationError(
                "skeleton was built for another grid or queue bound than "
                "the bank's first config"
            )
        # A cell whose config differs from the first in more than its
        # arrivals builds on its own; the kernel then decides whether the
        # structures still agree.
        shared = [replace(c, arrivals=base.arrivals) == base for c in configs]
        kernels = iter(
            _stacked_kernels(skeleton, [c for c, s in zip(configs, shared) if s])
            or ()
        )
        self._cells: List[WorkerMDP] = [
            WorkerMDP._cell(c, skeleton, next(kernels, None)) if s else WorkerMDP(c)
            for c, s in zip(configs, shared)
        ]
        self._kernel = BellmanKernel(self._cells)

    @property
    def cells(self) -> List[WorkerMDP]:
        """The per-load MDPs (used for extraction and evaluation)."""
        return self._cells

    def _labels(self) -> List[str]:
        """Each cell's name in solver errors."""
        return [f"load {c.config.load_qps:g} qps" for c in self._cells]

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
        """Value-iterate every load until its greedy policy is settled.

        Runs :func:`repro.core.solvers.iterate_stack` over one
        :class:`~repro.core.mdp.BellmanKernel` sweep of the whole load
        grid: all loads sweep in lockstep, and a load freezes (its slice
        stops updating and its reductions are skipped) once its greedy
        table is certified optimal or its residual drops below
        ``tolerance``, so its recorded ``iterations``, values and
        residuals equal its independent solve's.

        ``initials`` warm-starts individual loads; each vector must have
        shape ``(S,)``.  Raises :class:`~repro.errors.SolverError` naming
        the unconverged loads and their residuals when the ceiling is
        hit.  ``record_residuals`` and ``tracer`` record as
        :func:`~repro.core.solvers.iterate_stack` does.
        """
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
        kernel = self._kernel

        def sweep(stack: np.ndarray, active: np.ndarray):
            return kernel.sweep(stack, active), kernel.margins

        return iterate_stack(
            sweep,
            values,
            warm,
            cells[0].config.discount,
            tolerance=tolerance,
            max_iterations=max_iterations,
            tracer=tracer,
            record_residuals=record_residuals,
            labels=self._labels(),
        )

    def greedy(
        self, stats: Sequence[SolveStats]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every cell's greedy action table, the ``(L, S)`` arrays
        ``(model, batch)``, from one greedy kernel pass over the solved
        values."""
        _, model, batch = self._kernel.greedy(np.stack([s.values for s in stats]))
        return model, batch

    # ------------------------------------------------------------------
    # Batched stationary analysis (§5.1)
    # ------------------------------------------------------------------
    def evaluate(
        self, model: np.ndarray, batch: np.ndarray, tolerance: float = 1e-10
    ) -> List[PolicyGuarantees]:
        """§5.1 guarantees of every cell's action table (row ``i`` of
        ``model`` and ``batch``), from one batched power iteration over
        the cells' chains; each is identical to
        :func:`repro.core.guarantees.evaluate_policy` on the cell's policy.
        Raises :class:`~repro.errors.SolverError` naming the loads whose
        chains do not settle, as :meth:`solve` does at its ceiling."""
        cells = self._cells
        chains = [cell.policy_rows(m, b) for cell, m, b in zip(cells, model, batch)]
        dists = power_iterate(chains, tolerance, labels=self._labels())
        return [
            expected_guarantees(cell, m, b, dist)
            for cell, m, b, dist in zip(cells, model, batch, dists)
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
    skeleton: Optional[_Skeleton] = None,
) -> List[GenerationResult]:
    """Solve a whole load grid as one stacked tensor program.

    One call builds the stacked bank, value-iterates every load with
    convergence masks, extracts per-load policies, and (by default)
    computes the §5.1 guarantees through the batched stationary solve.
    Every returned :class:`GenerationResult` is byte-identical — policy,
    guarantees, iteration count, residuals, values — to a one-load call
    for that cell; ``runtime_s`` divides the bank's wall clock evenly
    across cells (per-cell attribution has no meaning inside one batched
    solve).

    ``initials`` optionally warm-starts individual loads (aligned with
    ``configs``).  An enabled ``tracer`` records the build / solve /
    evaluate phases on the ``generator`` track and the per-sweep events
    of :meth:`StackedBankMDP.solve`; ``record_residuals`` keeps the
    residual history on the results even without a tracer.  ``skeleton``
    reuses a load-invariant skeleton (see :class:`StackedBankMDP`).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    start = time.perf_counter()
    with tracer.span(
        "stacked_bank", track="generator", args={"cells": len(configs)}
    ):
        with tracer.span("build_stacked_bank", track="generator"):
            bank = StackedBankMDP(configs, skeleton)
        with tracer.span("stacked_value_iteration", track="generator"):
            stats = bank.solve(
                tolerance=tolerance,
                initials=initials,
                tracer=tracer,
                record_residuals=record_residuals,
            )
        model, batch = bank.greedy(stats)
        if with_guarantees:
            with tracer.span("stacked_evaluate", track="generator"):
                guarantees = bank.evaluate(model, batch)
        else:
            guarantees = [None] * len(configs)
        policies = [
            cell.policy_of(m, b, g)
            for cell, m, b, g in zip(bank.cells, model, batch, guarantees)
        ]
        if not with_guarantees:
            unknown = [float("nan")] * len(fields(PolicyGuarantees))
            guarantees = [PolicyGuarantees(*unknown)] * len(configs)
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
