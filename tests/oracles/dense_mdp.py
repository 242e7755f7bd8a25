"""A dense tabular MDP implementing the solver backup protocol.

Arrays use the layout ``Q[a] = R[a] + gamma[a] * (P[a] @ v)``:
``P`` is ``(A, S, S)``, ``R``/``gamma``/``valid`` are ``(A, S)``, and an
invalid ``(a, s)`` pair never wins the max.  Two ways to build one:

- :func:`two_state_mdp` — a hand-written two-state, two-action MDP with a
  closed-form optimum, for solver unit tests;
- :meth:`DenseMDP.from_worker_mdp` — every ``(state, action)`` of a
  :class:`~repro.core.mdp.WorkerMDP` enumerated through its per-pair
  ``transition_row`` / ``reward_of`` / ``discount_of``, an oracle that
  shares none of the worker MDP's batched sweep code.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.mdp import _FALLBACK, BackupResult, WorkerMDP

__all__ = ["DenseMDP", "dense_agreement", "two_state_mdp"]

Label = Tuple[int, int]


class DenseMDP:
    """Tabular MDP over explicit ``(A, S, S)`` transition tensors.

    ``labels[a][s]`` is the encoded action greedy tables report for
    action ``a`` in state ``s`` (default ``(a, 1)``); greedy tables are
    the production action-table form, a pair of ``(S,)`` arrays
    ``(model, batch)`` (see :mod:`repro.core.mdp`), so they compare
    directly against a worker MDP's.
    """

    def __init__(
        self,
        P: np.ndarray,
        R: np.ndarray,
        gamma,
        valid: Optional[np.ndarray] = None,
        labels: Optional[Sequence[Sequence[Label]]] = None,
    ) -> None:
        self.P = np.asarray(P, dtype=np.float64)
        self.R = np.asarray(R, dtype=np.float64)
        actions, states = self.R.shape
        self.gamma = np.broadcast_to(
            np.asarray(gamma, dtype=np.float64), (actions, states)
        )
        self.valid = (
            np.ones((actions, states), dtype=bool)
            if valid is None
            else np.asarray(valid, dtype=bool)
        )
        if labels is None:
            labels = [[(a, 1)] * states for a in range(actions)]
        self.labels: List[List[Label]] = [list(row) for row in labels]

    @classmethod
    def from_worker_mdp(cls, mdp: WorkerMDP) -> "DenseMDP":
        """Enumerate a worker MDP action by action.

        Candidate actions in occupied state ``(n, T_j)`` are
        :meth:`WorkerMDP.valid_actions`; the fallback ``(-1, n)`` is a
        candidate exactly where no full-drain ``b == n`` action is valid,
        as in :meth:`WorkerMDP.backup`.  The empty state's only action is
        the arrival transition and the full-queue state's only action is
        the fallback.
        """
        space = mdp.space
        size = space.size
        n_max, models = mdp.max_queue, mdp.num_models
        encoded = [(m, b) for b in range(1, n_max + 1) for m in range(models)]
        index = {action: a for a, action in enumerate(encoded)}
        fallback = len(encoded)
        actions = fallback + 1
        P = np.zeros((actions, size, size))
        R = np.zeros((actions, size))
        gamma = np.ones((actions, size))
        valid = np.zeros((actions, size), dtype=bool)
        labels = [[action] * size for action in encoded]
        labels.append([(_FALLBACK, 0)] * size)

        def add(a: int, state_id: int, action: Label) -> None:
            valid[a, state_id] = True
            P[a, state_id] = mdp.transition_row(state_id, action)
            R[a, state_id] = mdp.reward_of(state_id, action)
            gamma[a, state_id] = mdp.discount_of(state_id, action)

        for state_id in range(size):
            n, j = space.decode(state_id)
            labels[fallback][state_id] = (_FALLBACK, n)
            candidates = (
                mdp.valid_actions(n, j)
                if state_id not in (space.EMPTY, space.FULL)
                else []
            )
            for action in candidates:
                add(index[action], state_id, action)
            if not any(b == n for _, b in candidates):
                add(fallback, state_id, (_FALLBACK, n))
        return cls(P, R, gamma, valid=valid, labels=labels)

    def q_values(self, values: np.ndarray) -> np.ndarray:
        """``(A, S)`` action values, ``-inf`` on invalid pairs."""
        q = self.R + self.gamma * (self.P @ values)
        return np.where(self.valid, q, -np.inf)

    def initial_values(self) -> np.ndarray:
        return np.zeros(self.R.shape[1])

    def greedy(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """First-maximum greedy label per state, as ``(model, batch)``."""
        best = self.q_values(values).argmax(axis=0)
        labels = [self.labels[a][s] for s, a in enumerate(best)]
        model, batch = np.array(labels, dtype=np.intp).T
        return model, batch

    def backup(self, values: np.ndarray, want_greedy: bool = False) -> BackupResult:
        new_values = self.q_values(values).max(axis=0)
        greedy = self.greedy(values) if want_greedy else None
        return BackupResult(values=new_values, greedy=greedy)


def dense_agreement(
    dense: DenseMDP,
    values: np.ndarray,
    table: Tuple[np.ndarray, np.ndarray],
    tie: float = 1e-9,
) -> Tuple[np.ndarray, int]:
    """A worker MDP's action table ``(model, batch)`` against the greedy
    choice of its dense enumeration (:meth:`DenseMDP.from_worker_mdp`) on
    ``values``.

    Compares the states whose best and runner-up dense Q values are more
    than ``tie`` apart, leaving out EMPTY (state 0), whose table entry is
    ignored.  Returns the per-state agreement (``True`` where not
    compared) and the number of states compared.
    """
    model, batch = table
    dense_model, dense_batch = dense.greedy(values)
    q = np.sort(dense.q_values(values), axis=0)
    compared = q[-1] - q[-2] > tie
    compared[0] = False
    agree = ~compared | ((model == dense_model) & (batch == dense_batch))
    return agree, int(compared.sum())


def two_state_mdp(gamma: float = 0.9) -> DenseMDP:
    """Two states, two actions; the analytic optimum is easy to derive.

    Action 0 stays in state 0 (reward 1 there) or moves state 1 to either
    state; action 1 always moves to state 1 (reward 2 there).
    """
    P = np.array(
        [
            [[1.0, 0.0], [0.5, 0.5]],  # action 0
            [[0.0, 1.0], [0.0, 1.0]],  # action 1
        ]
    )
    R = np.array(
        [
            [1.0, 0.0],  # action 0 rewards per state
            [0.0, 2.0],  # action 1 rewards per state
        ]
    )
    return DenseMDP(P, R, gamma)
