"""Value iteration (§4.1): the one loop every policy solve runs.

:func:`iterate_stack` value-iterates a stack of value vectors ``(L, S)``
through a sweep callable that backs up every active row and reports
each row's greedy margin (or ``None``).  It owns the stop rules, the
per-row freeze masks, warm starts, residual histories, tracing and the
iteration ceiling.  Two adapters drive it:

- :meth:`repro.core.bank.StackedBankMDP.solve` sweeps a whole load grid
  through one :class:`~repro.core.mdp.BellmanKernel` — the path every
  generated policy takes;
- :func:`value_iteration` sweeps a one-row stack through any MDP's
  backup protocol::

      mdp.initial_values() -> np.ndarray
      mdp.backup(values) -> BackupResult  (a fresh array, maybe a margin)

  so small dense MDPs, Table 2's per-MDP timing and the loop and
  tolerance oracles in ``tests/oracles/`` run the same loop.

Every reduction the loop makes is row-wise (``max``/``min`` along the
state axis, the elementwise :func:`certified`), so a row's floats, stop
and sweep count are the same in whatever stack it sits; on
:class:`~repro.core.mdp.WorkerMDP` value iteration is float-identical to
the per-action loop oracle (``tests/test_solver_equivalence.py``).  The
ceiling raises :class:`~repro.errors.SolverError` with residual
diagnostics, so a non-converging solve at a too-tight tolerance fails
loudly instead of spinning.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.obs.trace import Tracer

__all__ = ["SolveStats", "certified", "iterate_stack", "value_iteration"]

#: One backup of every active row of a ``(L, S)`` stack: returns the
#: backed-up ``(L, S)`` values (inactive rows may be stale) and each
#: row's greedy margin, or ``None`` when the backup reports none.
Sweep = Callable[
    [np.ndarray, np.ndarray], Tuple[np.ndarray, Optional[np.ndarray]]
]

#: Rounding allowance of the certified stop, relative to ``max|V|``:
#: covers the rounding of the Q values a margin subtracts and of the
#: backups the span bound sums, both of order (states x machine epsilon)
#: x ``max|V|`` and the latter amplified by ``1 / (1 - gamma)``.
_CERTIFY_ROUNDING = 1e-12


def certified(margin, span, scale, gamma):
    """Does a greedy margin certify its value vector's greedy table?

    ``margin`` is the backup's smallest best-minus-runner-up Q gap on a
    vector ``V_k`` (see :class:`~repro.core.mdp.BackupResult`), ``span``
    is ``max(d) - min(d)`` of the previous change ``d = V_k - V_{k-1}``
    and ``scale`` is ``max|V_k|``.  MacQueen's bounds put the optimal
    values within ``V_k + gamma/(1-gamma) * [min d, max d]``, so every
    optimal Q value is within ``gamma**2/(1-gamma) * span`` of the
    backed-up one up to a common shift (Puterman, §6.6.3, §6.7.2): a
    margin above that, plus the rounding allowance, makes each state's
    greedy action its unique optimal action.  Elementwise on arrays, with
    the same float operations as on scalars.
    """
    return margin > (
        gamma * gamma / (1.0 - gamma) * span
        + _CERTIFY_ROUNDING * scale / (1.0 - gamma)
    )


@dataclass(frozen=True)
class SolveStats:
    """Outcome of one value-iteration solve (one row of a stack).

    ``iterations`` counts the backups behind ``values`` and ``residual``
    is the last one's sup-norm change; after a certified stop that
    residual can be far above the tolerance (see :func:`iterate_stack`).  ``residuals`` is the per-sweep sup-norm
    residual history, one entry per counted backup, recorded when the
    caller asked for it (``record_residuals=True`` or an enabled tracer);
    ``None`` otherwise so the hot path stays allocation-free.  On a
    ``gamma``-discounted MDP the sequence obeys
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


def iterate_stack(
    sweep: Sweep,
    values: np.ndarray,
    warm: Sequence[bool],
    gamma: Optional[float],
    tolerance: float = 1e-7,
    max_iterations: int = 20_000,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
    labels: Optional[Sequence[str]] = None,
) -> List[SolveStats]:
    """Value-iterate every row of ``values`` until its greedy policy is settled.

    ``values`` is the ``(L, S)`` starting stack, updated in place;
    ``warm`` marks rows seeded with a warm start.  All rows sweep in
    lockstep, and a row freezes (its slice stops updating, and the
    sweep may skip it) at the first of two stops:

    - **certified**: the sweep reports a greedy margin (see
      :class:`~repro.core.mdp.BackupResult`) on the row's vector ``V_k``
      that passes :func:`certified` with discount ``gamma`` against the
      span of ``V_k - V_{k-1}``.  The greedy table of ``V_k`` is then the
      unique optimal policy, and the row freezes with ``V_k`` and
      ``iterations = k``; the sweep that measured the margin is not
      counted or recorded.  ``V_k`` itself is *not* within
      ``tolerance / (1 - gamma)`` of optimal — only its policy is
      guaranteed.
    - **tolerance**: the row's sup-norm residual drops below
      ``tolerance``, and it freezes with the new vector, which is then
      within ``tolerance / (1 - gamma)`` of optimal (standard
      contraction bound).  Sweeps that report no margins — a
      duration-aware discount, rows that do not sum to 1, a dense MDP —
      and exact ties (margin 0) stop only this way.

    Raises :class:`SolverError` naming every unconverged row (by
    ``labels``, when given) and its residual if neither rule has fired
    after ``max_iterations`` sweeps.

    With ``record_residuals`` (or an enabled ``tracer``) every row's
    per-sweep residual history is kept on :attr:`SolveStats.residuals`.
    The tracer additionally receives one ``bellman_sweep`` wall-clock
    span on the ``solver`` track per lockstep sweep — the phase the
    profiler (:class:`repro.obs.profile.PhaseProfiler`) aggregates — and
    one ``vi_sweep`` event per active row per counted sweep (timestamped
    in wall-clock ms since solve start).
    """
    if tolerance <= 0:
        raise SolverError(f"tolerance must be > 0, got {tolerance}")
    if max_iterations < 1:
        raise SolverError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    loads = values.shape[0]
    tracing = tracer is not None and tracer.enabled
    histories = (
        [[] for _ in range(loads)] if (record_residuals or tracing) else None
    )
    stats: List[Optional[SolveStats]] = [None] * loads
    frozen = np.zeros(loads, dtype=bool)
    # Per row: the last recorded residual and the span of the last
    # change, which the certified stop reads (no change yet: inf).
    residuals = np.full(loads, np.inf)
    spans = np.full(loads, np.inf)
    start = time.perf_counter()

    def freeze(i: int, iterations: int) -> None:
        frozen[i] = True
        stats[i] = SolveStats(
            values=values[i].copy(),
            iterations=iterations,
            residual=float(residuals[i]),
            runtime_s=time.perf_counter() - start,
            converged=True,
            residuals=None if histories is None else tuple(histories[i]),
            warm_started=bool(warm[i]),
        )

    for iteration in range(1, max_iterations + 1):
        active = np.nonzero(~frozen)[0]
        if tracing:
            # Skipped entirely when untraced so the hot path stays free
            # of context-manager overhead.
            with tracer.span(
                "bellman_sweep", track="solver", args={"iteration": iteration}
            ):
                new_values, margins = sweep(values, active)
        else:
            new_values, margins = sweep(values, active)
        # Row-wise reductions over the whole stack: per-row max/min along
        # axis 1 are element-for-element the same IEEE ops as a one-row
        # stack's.  Frozen rows are stale in ``new_values`` and
        # ``margins`` — computed but never read.
        if margins is not None:
            sure = certified(
                margins, spans, np.max(np.abs(values), axis=1), gamma
            )[active]
            # A certified row freezes with the vector it holds; this
            # sweep's backup of it goes unrecorded.
            for i in active[sure]:
                freeze(i, iteration - 1)
            active = active[~sure]
        change = new_values - values
        residuals = np.max(np.abs(change), axis=1)
        spans = np.max(change, axis=1) - np.min(change, axis=1)
        values[active] = new_values[active]
        for i in active:
            if histories is not None:
                residual = float(residuals[i])
                histories[i].append(residual)
                if tracing:
                    tracer.instant(
                        "vi_sweep",
                        "solver",
                        (time.perf_counter() - start) * 1000.0,
                        category="solver",
                        args={"iteration": iteration, "residual": residual},
                    )
            if residuals[i] < tolerance:
                freeze(i, iteration)
        if frozen.all():
            return stats  # type: ignore[return-value]
    # Non-convergence ceiling: surface enough residual diagnostics to tell
    # a too-tight tolerance (residual plateaued near float noise) from a
    # genuinely diverging model (residual flat or growing).
    unconverged = []
    for i in np.nonzero(~frozen)[0]:
        name = "" if labels is None else f"{labels[i]}: "
        tail = (
            ""
            if histories is None
            else "; last residuals "
            f"{[f'{r:.3e}' for r in histories[i][-3:]]}"
        )
        unconverged.append(
            f"{name}residual {residuals[i]:.3e} > tolerance "
            f"{tolerance:.3e}{tail}"
        )
    raise SolverError(
        f"value iteration did not converge after {max_iterations} sweeps "
        f"({'; '.join(unconverged)})"
    )


def value_iteration(
    mdp,
    tolerance: float = 1e-7,
    max_iterations: int = 20_000,
    initial: Optional[np.ndarray] = None,
    tracer: Optional[Tracer] = None,
    record_residuals: bool = False,
) -> SolveStats:
    """Value-iterate one MDP: :func:`iterate_stack` over a one-row stack
    whose sweep is ``mdp.backup``.

    Stops, records, traces and raises exactly as :func:`iterate_stack`
    does; ``initial`` warm-starts the solve in place of the MDP's zero
    vector.
    """

    def sweep(values: np.ndarray, active: np.ndarray):
        result = mdp.backup(values[0])
        margins = None if result.margin is None else np.array([result.margin])
        return result.values[None], margins

    start = mdp.initial_values() if initial is None else initial
    # Only margin-reporting backups (a worker MDP's) need the discount;
    # a dense MDP has no single one.
    config = getattr(mdp, "config", None)
    (stats,) = iterate_stack(
        sweep,
        np.array(start, dtype=np.float64)[None],
        [initial is not None],
        None if config is None else config.discount,
        tolerance=tolerance,
        max_iterations=max_iterations,
        tracer=tracer,
        record_residuals=record_residuals,
    )
    return stats
