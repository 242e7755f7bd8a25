"""The loop formulation of the worker MDP's sweeps: the solver oracle.

:class:`LoopWorkerMDP` shares :class:`~repro.core.mdp.WorkerMDP`'s
construction (kernels, rewards, partial-drain plan) and overrides the
solve-path hot loops with their original per-load, per-action /
per-state formulations:

- the optimality backup is the per-load masked max over full drains,
  independent of :class:`~repro.core.mdp.BellmanKernel`;
- its variable-batching partial-drain fold walks ``_partial_plan`` one
  action at a time with a strict ``>`` update;
- policy evaluation builds every state's transition row per sweep;
- ``policy_rows`` always assembles, never reading the evaluation cache.

Value iteration on it is float-identical to the production sweeps and
its greedy tables are equal, which ``tests/test_solver_equivalence.py``
and ``benchmarks/bench_state_space.py`` assert.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.bank import GenerationResult, _annotate
from repro.core.config import BatchingMode, WorkerMDPConfig
from repro.core.guarantees import evaluate_policy
from repro.core.mdp import _FALLBACK, BackupResult, WorkerMDP
from repro.core.solvers import value_iteration

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
        if self._split is not None:
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

        if self._config.batching is BatchingMode.VARIABLE:
            best_q, best_m, best_b = self._fold_partial_actions(
                values, best_q, best_m, best_b, want_greedy
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

        greedy: Dict[int, Tuple[int, int]] = {}
        if want_greedy:
            for n in range(1, n_max + 1):
                for j in range(j_count):
                    greedy[space.index(n, j)] = (
                        int(best_m[n - 1, j]),
                        int(best_b[n - 1, j]),
                    )
            greedy[space.FULL] = (_FALLBACK, n_max)
        return BackupResult(values=new_values, greedy=greedy)

    def _fold_partial_actions(
        self,
        values: np.ndarray,
        best_q: np.ndarray,
        best_m: np.ndarray,
        best_b: np.ndarray,
        want_greedy: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mix in variable-batching actions ``(m, b)`` with ``b < n``.

        For each such action the leftover queue keeps ``n - b`` queries
        whose earliest slack is the conservative ``T_j - l`` (DESIGN.md §3),
        so the slack bin of the next state is deterministic and only the
        arrival count is stochastic.  (``want_greedy`` is accepted for
        signature compatibility; the loop always tracks the argmax.)
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
            better = q_part > best_q[region]
            best_q[region] = np.where(better, q_part, best_q[region])
            best_m[region] = np.where(better, m, best_m[region])
            best_b[region] = np.where(better, b, best_b[region])
        return best_q, best_m, best_b

    def backup_policy(
        self, values: np.ndarray, action_table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """One expectation backup under a fixed action table."""
        space = self._space
        new_values = np.empty_like(values)
        new_values[space.EMPTY] = self._gamma_empty * values[
            space.index(1, self._grid.slo_index)
        ]
        for state_id in range(space.size):
            if state_id == space.EMPTY:
                continue
            n, j = space.decode(state_id)
            m, b = action_table.get(state_id, (_FALLBACK, n))
            row = self.transition_row(state_id, (m, b))
            reward = self.reward_of(state_id, (m, b))
            discount = self.discount_of(state_id, (m, b))
            new_values[state_id] = reward + discount * float(row @ values)
        return new_values

    def policy_rows(
        self, table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """The ``(S, S)`` transition matrix of the chain ``table`` induces.

        Full-drain actions under a split-family view share the
        precomputed ``(M, N, S)`` row bank, so those states gather in one
        fancy-indexed copy; everything else (partial drains, drop-mode
        fallbacks, the exact view's phase mixtures) goes through
        :meth:`transition_row`.
        """
        space = self._space
        size = space.size
        rows = np.zeros((size, size), dtype=np.float64)
        rows[space.EMPTY, space.index(1, self._grid.slo_index)] = 1.0
        gather_ids: List[int] = []
        gather_m: List[int] = []
        gather_n: List[int] = []
        split_rows = self._rows if self._split is not None else None
        for state_id in range(size):
            if state_id == space.EMPTY:
                continue
            n, _ = space.decode(state_id)
            action = table.get(state_id, (_FALLBACK, n))
            if split_rows is not None:
                m, b = action
                if m == _FALLBACK and not self._config.drop_late:
                    m, b = 0, n
                if m != _FALLBACK and b == n:
                    gather_ids.append(state_id)
                    gather_m.append(m)
                    gather_n.append(n - 1)
                    continue
            rows[state_id] = self.transition_row(state_id, action)
        if gather_ids:
            rows[gather_ids] = split_rows[gather_m, gather_n]
        return rows


def generate_loop_policy(
    config: WorkerMDPConfig, tolerance: float = 1e-7
) -> GenerationResult:
    """:func:`repro.core.generator.generate_policy` on the loop oracle.

    Same phases (solve, extract, §5.1 evaluation, annotation) with the
    MDP swapped for :class:`LoopWorkerMDP`, so saved policies and
    guarantees are comparable byte for byte.
    """
    mdp = LoopWorkerMDP(config)
    stats = value_iteration(mdp, tolerance=tolerance)
    policy = mdp.extract_policy(stats.values)
    guarantees = evaluate_policy(mdp, policy)
    return GenerationResult(
        policy=_annotate(policy, guarantees),
        guarantees=guarantees,
        iterations=stats.iterations,
        runtime_s=stats.runtime_s,
        values=stats.values,
    )
