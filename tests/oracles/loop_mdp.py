"""The loop formulation of the worker MDP's sweeps: the solver oracle.

:class:`LoopWorkerMDP` shares :class:`~repro.core.mdp.WorkerMDP`'s
construction (kernels, rewards, partial-drain plan) and overrides the
solve-path hot loops with their original per-load, per-action /
per-state formulations:

- the optimality backup is the per-load masked max over full drains,
  independent of :class:`~repro.core.mdp.BellmanKernel`;
- its variable-batching partial-drain fold walks ``_partial_plan`` one
  action at a time with a strict ``>`` update.

Its backup reports the greedy margin from each state's sorted list of
candidate Q values, so value iteration on it takes the same certified
stop.  Value iteration on it is float-identical to the production
sweeps — values and sweep counts — and its greedy tables are equal,
which ``tests/test_solver_equivalence.py`` and
``benchmarks/bench_state_space.py`` assert.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.bank import GenerationResult
from repro.core.config import BatchingMode, WorkerMDPConfig
from repro.core.mdp import _FALLBACK, BackupResult, WorkerMDP
from repro.core.solvers import value_iteration
from tests.oracles.policy_eval import annotate, evaluate_policy

__all__ = ["LoopWorkerMDP", "generate_loop_policy"]


class LoopWorkerMDP(WorkerMDP):
    """A :class:`WorkerMDP` whose sweeps iterate actions and states."""

    def backup(self, values: np.ndarray, want_greedy: bool = False) -> BackupResult:
        """One synchronous Bellman optimality backup.

        Returns updated values; when ``want_greedy`` also returns the
        greedy (argmax) action per state, used for policy extraction.
        """
        gamma = self._config.discount
        space = self._space
        n_max, j_count, m_count = self._max_queue, len(self._grid), self._num_models

        # Expected continuation value of every full-drain action (m, n).
        if self._rows is not None:
            ev_serve = self._rows @ values  # (M, N)
            ev_state = np.broadcast_to(
                ev_serve[:, :, None], (m_count, n_max, j_count)
            )
            ev_full = ev_serve[0, n_max - 1]
        else:
            # (M, N, K) then mixed with per-state phase weights -> (M, N, J)
            ev_phase = self._rows_by_phase @ values
            ev_state = np.einsum("mnk,njk->mnj", ev_phase, self._phase_weights)
            ev_full = float(ev_phase[0, n_max - 1] @ self._full_phase)

        # Per-action discounting: gamma_action[m, n-1] is 'gamma' for plain
        # MDPs and gamma**(l/reference) for the semi-MDP extension.
        q_full_drain = (
            self._reward + self._gamma_action[:, :, None] * ev_state
        )  # (M, N, J)
        q_masked = np.where(self._valid, q_full_drain, -np.inf)
        best_q = q_masked.max(axis=0)  # (N, J)
        best_m = q_masked.argmax(axis=0)
        best_b = np.broadcast_to(
            np.arange(1, n_max + 1)[:, None], (n_max, j_count)
        ).copy()

        # Forced fallback where nothing is valid (§4.3.1): serve the whole
        # queue late on the fastest model — or, in drop mode, discard it
        # and idle (an instantaneous transition to the empty state).
        if self._config.drop_late:
            drop_gamma = (
                1.0 if self._config.duration_aware_discount else gamma
            )
            fallback_q = np.full(
                (n_max, j_count), drop_gamma * values[space.EMPTY]
            )
        else:
            fallback_q = self._gamma_action[0][:, None] * ev_state[0]
        no_valid = ~self._valid.any(axis=0)
        best_q = np.where(no_valid, fallback_q, best_q)
        best_m = np.where(no_valid, _FALLBACK, best_m)
        # Every candidate Q per state, -inf where it does not apply.
        candidates = list(q_masked)
        candidates.append(np.where(no_valid, fallback_q, -np.inf))

        if self._config.batching is BatchingMode.VARIABLE:
            best_q, best_m, best_b = self._fold_partial_actions(
                values, best_q, best_m, best_b, candidates
            )

        new_values = np.empty_like(values)
        occupied = space.occupied_view(new_values)
        occupied[:, :] = best_q
        new_values[space.EMPTY] = self._gamma_empty * values[
            space.index(1, self._grid.slo_index)
        ]
        if self._config.drop_late:
            drop_gamma = 1.0 if self._config.duration_aware_discount else gamma
            new_values[space.FULL] = drop_gamma * values[space.EMPTY]
        else:
            new_values[space.FULL] = (
                self._gamma_action[0, n_max - 1] * ev_full
            )

        greedy = None
        if want_greedy:
            model = np.full(space.size, _FALLBACK, dtype=np.intp)
            batch = np.zeros(space.size, dtype=np.intp)
            for n in range(1, n_max + 1):
                for j in range(j_count):
                    model[space.index(n, j)] = best_m[n - 1, j]
                    batch[space.index(n, j)] = best_b[n - 1, j]
            batch[space.FULL] = n_max
            greedy = (model, batch)
        margin = None
        if not (want_greedy or self._config.duration_aware_discount):
            # Best minus runner-up of each state's sorted candidates.
            ranked = np.sort(np.stack(candidates), axis=0)
            margin = float(np.min(ranked[-1] - ranked[-2]))
        return BackupResult(values=new_values, greedy=greedy, margin=margin)

    def _fold_partial_actions(
        self,
        values: np.ndarray,
        best_q: np.ndarray,
        best_m: np.ndarray,
        best_b: np.ndarray,
        candidates: List[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mix in variable-batching actions ``(m, b)`` with ``b < n``.

        For each such action the leftover queue keeps ``n - b`` queries
        whose earliest slack is the conservative ``T_j - l`` (DESIGN.md §3),
        so the slack bin of the next state is deterministic and only the
        arrival count is stochastic.  Each action's ``(N, J)`` Q values
        (-inf where it does not apply) join ``candidates``.
        """
        space = self._space
        n_max, j_count = self._max_queue, len(self._grid)
        v_occ = space.occupied_view(values)
        v_full = values[space.FULL]

        # vpad[i + k] is the value of "base i+1 plus k arrivals"; rows past
        # N_w stand in for the overflow (FULL) state, so one windowed
        # contraction below covers both the in-range mass and the tail.
        vpad = np.vstack(
            [v_occ, np.full((n_max + 1, j_count), v_full, dtype=np.float64)]
        )
        windows = np.lib.stride_tricks.sliding_window_view(
            vpad, n_max + 1, axis=0
        )  # (N + 1, J, N + 1); windows[i, :, k] == vpad[i + k]

        for m, b, valid_j, counts, residual, j_map, reward, gamma_mb in (
            self._partial_plan
        ):
            max_base = n_max - b
            # ev[base-1, j] = E[V(next) | leftover = base, slack bin j]
            ev = windows[:max_base] @ counts
            if residual > 0.0:
                ev = ev + residual * v_full
            # States (n, j) with n > b: rows b..N-1 of the (N, J) block.
            q_part = reward + gamma_mb * ev[:, j_map]  # (max_base, J)
            q_part = np.where(valid_j[None, :], q_part, -np.inf)
            region = slice(b, n_max)
            candidate = np.full((n_max, j_count), -np.inf)
            candidate[region] = q_part
            candidates.append(candidate)
            better = q_part > best_q[region]
            best_q[region] = np.where(better, q_part, best_q[region])
            best_m[region] = np.where(better, m, best_m[region])
            best_b[region] = np.where(better, b, best_b[region])
        return best_q, best_m, best_b


def generate_loop_policy(
    config: WorkerMDPConfig, tolerance: float = 1e-7
) -> GenerationResult:
    """:func:`repro.core.generator.generate_policy` on the loop oracle.

    Same phases (solve, extract, §5.1 evaluation, annotation) with the
    MDP swapped for :class:`LoopWorkerMDP` and the evaluation for the
    per-state oracle (:mod:`tests.oracles.policy_eval`), so saved
    policies and guarantees are comparable byte for byte.
    """
    mdp = LoopWorkerMDP(config)
    stats = value_iteration(mdp, tolerance=tolerance)
    policy = mdp.extract_policy(stats.values)
    guarantees = evaluate_policy(mdp, policy)
    return GenerationResult(
        policy=annotate(policy, guarantees),
        guarantees=guarantees,
        iterations=stats.iterations,
        runtime_s=stats.runtime_s,
        values=stats.values,
    )
