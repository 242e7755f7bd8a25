"""Exact MDP solution methods (§4.1).

Per-MDP drivers over the :class:`WorkerMDP` backup protocol::

    mdp.initial_values() -> np.ndarray
    mdp.backup(values, want_greedy=...) -> BackupResult  (a fresh array)
    mdp.backup_policy(values, action_table) -> np.ndarray  (policy iteration)

so small dense MDPs and the loop oracle in ``tests/oracles/`` exercise
the same solvers.  Policy generation itself does not use them: it runs
value iteration as a stacked-bank solve
(:meth:`repro.core.bank.StackedBankMDP.solve`).  They stay for Table 2's
per-MDP timing and policy iteration, which the paper notes as another
exact method.

The solvers are agnostic to how the backups are computed: on
:class:`~repro.core.mdp.WorkerMDP` the backup is the one-cell
:class:`~repro.core.mdp.BellmanKernel`; value iteration is
float-identical to the per-action loop oracle (asserted by
``tests/test_solver_equivalence.py``), and policy iteration agrees with
it at the greedy-table level.  Both raise :class:`~repro.errors.SolverError` with
residual diagnostics when their iteration ceilings are hit, so a
non-converging solve at a too-tight tolerance fails loudly instead of
spinning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SolverError
from repro.obs.trace import Tracer

__all__ = ["SolveStats", "value_iteration", "policy_iteration"]


@dataclass(frozen=True)
class SolveStats:
    """Outcome of one solver run.

    ``residuals`` is the per-sweep sup-norm residual history, recorded
    when the caller asked for it (``record_residuals=True`` or an enabled
    tracer); ``None`` otherwise so the hot path stays allocation-free.
    For value iteration on a ``gamma``-discounted MDP the sequence obeys
    ``residuals[k+1] <= gamma * residuals[k]`` (Bellman contraction), the
    property the convergence plots and regression tests check.
    """

    values: np.ndarray
    iterations: int
    residual: float
    runtime_s: float
    converged: bool
    residuals: Optional[Tuple[float, ...]] = None
    #: True when the solve was seeded with an ``initial`` value vector
    #: (warm start) instead of the MDP's zero vector.
    warm_started: bool = False


def value_iteration(
    mdp,
    tolerance: float = 1e-7,
    max_iterations: int = 20_000,
    initial: Optional[np.ndarray] = None,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
) -> SolveStats:
    """Iterate Bellman optimality backups to a sup-norm fixed point.

    The returned values are within ``tolerance / (1 - gamma)`` of optimal
    in sup norm (standard contraction bound).  Raises :class:`SolverError`
    if the residual has not dropped below ``tolerance`` after
    ``max_iterations`` sweeps.

    With ``record_residuals`` (or an enabled ``tracer``) the per-sweep
    residual history is kept on :attr:`SolveStats.residuals`; the tracer
    additionally receives one ``vi_sweep`` event per sweep on the
    ``solver`` track (timestamped in wall-clock ms since solve start)
    plus one ``bellman_sweep`` wall-clock span per backup — the phase
    the profiler (:class:`repro.obs.profile.PhaseProfiler`) aggregates.
    """
    if tolerance <= 0:
        raise SolverError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise SolverError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    tracing = tracer is not None and tracer.enabled
    history: Optional[list] = [] if (record_residuals or tracing) else None
    values = mdp.initial_values() if initial is None else initial.copy()
    start = time.perf_counter()
    residual = np.inf
    for iteration in range(1, max_iterations + 1):
        if tracing:
            # One wall-clock phase per Bellman backup, nested under the
            # generator's value_iteration span — the phase profiler's
            # per-sweep hotspot unit.  Skipped entirely when untraced so
            # the hot path stays free of context-manager overhead.
            with tracer.span(
                "bellman_sweep", track="solver", args={"iteration": iteration}
            ):
                new_values = mdp.backup(values).values
        else:
            new_values = mdp.backup(values).values
        residual = float(np.max(np.abs(new_values - values)))
        values = new_values
        if history is not None:
            history.append(residual)
            if tracing:
                tracer.instant(
                    "vi_sweep",
                    "solver",
                    (time.perf_counter() - start) * 1000.0,
                    category="solver",
                    args={"iteration": iteration, "residual": residual},
                )
        if residual < tolerance:
            return SolveStats(
                values=values,
                iterations=iteration,
                residual=residual,
                runtime_s=time.perf_counter() - start,
                converged=True,
                residuals=None if history is None else tuple(history),
                warm_started=initial is not None,
            )
    # Non-convergence ceiling: surface enough residual diagnostics to tell
    # a too-tight tolerance (residual plateaued near float noise) from a
    # genuinely diverging model (residual flat or growing).
    tail = (
        ""
        if history is None
        else f"; last residuals {[f'{r:.3e}' for r in history[-3:]]}"
    )
    raise SolverError(
        f"value iteration did not converge after {max_iterations} sweeps "
        f"(residual {residual:.3e} > tolerance {tolerance:.3e}{tail})"
    )


def policy_iteration(
    mdp,
    evaluation_sweeps: int = 200,
    evaluation_tolerance: float = 1e-9,
    max_iterations: int = 200,
    tracer: Optional[Tracer] = None,
) -> Tuple[SolveStats, Dict[int, Tuple[int, int]]]:
    """Modified policy iteration: greedy improvement + iterative evaluation.

    Policy evaluation runs fixed-policy expectation backups until the value
    change drops below ``evaluation_tolerance`` (or ``evaluation_sweeps``
    backups, whichever first); improvement is one greedy backup.  Terminates
    when the greedy action table stops changing.  An enabled ``tracer``
    receives one ``pi_round`` event per improvement round.
    """
    if max_iterations < 1:
        raise SolverError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    if evaluation_sweeps < 1:
        raise SolverError(
            f"evaluation_sweeps must be >= 1, got {evaluation_sweeps}"
        )
    tracing = tracer is not None and tracer.enabled
    values = mdp.initial_values()
    start = time.perf_counter()
    action_table: Dict[int, Tuple[int, int]] = {}
    changed = -1
    delta = float("inf")
    for iteration in range(1, max_iterations + 1):
        result = mdp.backup(values, want_greedy=True)
        new_table = result.greedy
        values = result.values
        changed = sum(
            1 for s, a in new_table.items() if action_table.get(s) != a
        )
        if tracing:
            tracer.instant(
                "pi_round",
                "solver",
                (time.perf_counter() - start) * 1000.0,
                category="solver",
                args={"iteration": iteration, "actions_changed": changed},
            )
        if new_table == action_table and iteration > 1:
            return (
                SolveStats(
                    values=values,
                    iterations=iteration,
                    residual=0.0,
                    runtime_s=time.perf_counter() - start,
                    converged=True,
                ),
                action_table,
            )
        action_table = new_table
        for _ in range(evaluation_sweeps):
            new_values = mdp.backup_policy(values, action_table)
            delta = float(np.max(np.abs(new_values - values)))
            values = new_values
            if delta < evaluation_tolerance:
                break
    # Non-stabilization ceiling with residual diagnostics: how far the last
    # evaluation was from its fixed point and how many greedy actions were
    # still flipping when the budget ran out.
    raise SolverError(
        f"policy iteration did not stabilize after {max_iterations} rounds "
        f"(last evaluation delta {delta:.3e}, "
        f"{changed} greedy action(s) still changing)"
    )
