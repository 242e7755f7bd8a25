"""The per-state §5.1 evaluation path: the policy-evaluation oracle.

Production evaluates a policy from its action table, a pair of ``(S,)``
arrays (:meth:`repro.core.mdp.WorkerMDP.action_table`), gathering chain
rows and summing the §5.1 expectations with array operations.  This
module keeps the formulation it replaced, one state at a time over a
``state id -> (model index, batch)`` dict:

- :func:`policy_action_table` decodes a :class:`Policy` into that dict;
- :func:`policy_rows` assembles the policy-induced chain row by row;
- :func:`stationary_distribution` power-iterates that chain;
- :func:`evaluate_policy` walks the states to build the batch, accuracy
  and satisfied arrays, then takes the same cumulative sums;
- :func:`annotate` re-packages a policy with its expectations.

:func:`repro.core.guarantees.evaluate_policy`, the stacked bank's
evaluation and ``Policy.save`` of every generated policy must be
``==`` / byte-equal to these (``tests/test_policy_evaluation.py``); the
loop and tolerance oracles (:mod:`tests.oracles.loop_mdp`,
:mod:`tests.oracles.tolerance_vi`) evaluate and annotate through here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.guarantees import PolicyGuarantees, power_iterate
from repro.core.mdp import _FALLBACK, WorkerMDP
from repro.core.policy import Policy, PolicyMetadata
from repro.errors import SolverError

__all__ = [
    "annotate",
    "evaluate_policy",
    "policy_action_table",
    "policy_rows",
    "stationary_distribution",
]


def policy_action_table(
    mdp: WorkerMDP, policy: Policy
) -> Dict[int, Tuple[int, int]]:
    """Encode a :class:`Policy` into the MDP's (model index, batch) table."""
    names = {name: i for i, name in enumerate(mdp.model_names)}
    table: Dict[int, Tuple[int, int]] = {}
    for n in range(1, mdp.max_queue + 1):
        for j in range(len(mdp.grid)):
            action = policy.action_at(n, j)
            m = _FALLBACK if action.is_late else names[action.model]
            table[mdp.space.index(n, j)] = (m, action.batch_size)
    table[mdp.space.FULL] = (_FALLBACK, mdp.max_queue)
    return table


def policy_rows(
    mdp: WorkerMDP, table: Dict[int, Tuple[int, int]]
) -> np.ndarray:
    """The ``(S, S)`` transition matrix of the chain ``table`` induces.

    Full-drain actions under a split-family view share the
    precomputed ``(M, N, S)`` row bank, so those states gather in one
    fancy-indexed copy; everything else (partial drains, drop-mode
    fallbacks, the exact view's phase mixtures) goes through
    :meth:`WorkerMDP.transition_row`.
    """
    space = mdp.space
    size = space.size
    rows = np.zeros((size, size), dtype=np.float64)
    rows[space.EMPTY, space.index(1, mdp.grid.slo_index)] = 1.0
    gather_ids: List[int] = []
    gather_m: List[int] = []
    gather_n: List[int] = []
    split_rows = mdp._rows
    for state_id in range(size):
        if state_id == space.EMPTY:
            continue
        n, _ = space.decode(state_id)
        action = table.get(state_id, (_FALLBACK, n))
        if split_rows is not None:
            m, b = action
            if m == _FALLBACK and not mdp.config.drop_late:
                m, b = 0, n
            if m != _FALLBACK and b == n:
                gather_ids.append(state_id)
                gather_m.append(m)
                gather_n.append(n - 1)
                continue
        rows[state_id] = mdp.transition_row(state_id, action)
    if gather_ids:
        rows[gather_ids] = split_rows[gather_m, gather_n]
    return rows


def stationary_distribution(
    mdp: WorkerMDP,
    policy: Policy,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Stationary state distribution of the policy-induced chain."""
    rows = policy_rows(mdp, policy_action_table(mdp, policy))
    return power_iterate([rows], tolerance, max_iterations)[0]


def evaluate_policy(
    mdp: WorkerMDP,
    policy: Policy,
    tolerance: float = 1e-10,
    dist: Optional[np.ndarray] = None,
) -> PolicyGuarantees:
    """Compute §5.1's expected accuracy and violation rate for a policy.

    ``dist`` optionally supplies a precomputed stationary distribution;
    when omitted, the chain is solved here.
    """
    table = policy_action_table(mdp, policy)
    if dist is None:
        dist = stationary_distribution(mdp, policy, tolerance=tolerance)
    space = mdp.space
    size = space.size

    # Static per-state action attributes (batch, accuracy, satisfied).
    batch = np.zeros(size, dtype=np.float64)
    accuracy_arr = np.zeros(size, dtype=np.float64)
    satisfied_arr = np.zeros(size, dtype=bool)
    for state_id in range(1, size):
        n, j = space.decode(state_id)
        m, b = table[state_id]
        if m == _FALLBACK:
            batch[state_id] = n
            continue
        slack = 0.0 if state_id == space.FULL else mdp.grid[j]
        batch[state_id] = b
        accuracy_arr[state_id] = mdp.accuracy_of(m)
        satisfied_arr[state_id] = mdp.latency_ms(m, b) <= slack

    # Cumulative sums reproduce the sequential per-state accumulation
    # bit-for-bit (skipped states contribute an exact 0.0).
    live = dist > 0.0
    live[space.EMPTY] = False
    sat = live & satisfied_arr

    def _acc(contrib: np.ndarray) -> float:
        return float(np.cumsum(contrib)[-1])

    served_weight = _acc(np.where(live, dist * batch, 0.0))
    epoch_weight = _acc(np.where(live, dist, 0.0))
    satisfied_weight = _acc(np.where(sat, dist * batch, 0.0))
    accuracy_weight = _acc(np.where(sat, dist * batch * accuracy_arr, 0.0))
    epoch_satisfied = _acc(np.where(sat, dist, 0.0))
    epoch_accuracy = _acc(np.where(sat, dist * accuracy_arr, 0.0))

    if served_weight <= 0.0:
        raise SolverError("policy never serves queries in steady state")
    violation = 1.0 - satisfied_weight / served_weight
    accuracy = accuracy_weight / satisfied_weight if satisfied_weight > 0 else 0.0
    per_epoch_violation = 1.0 - epoch_satisfied / epoch_weight
    per_epoch_accuracy = (
        epoch_accuracy / epoch_satisfied if epoch_satisfied > 0 else 0.0
    )
    return PolicyGuarantees(
        expected_accuracy=accuracy,
        expected_violation_rate=violation,
        per_epoch_accuracy=per_epoch_accuracy,
        per_epoch_violation_rate=per_epoch_violation,
        full_state_probability=float(dist[space.FULL]),
        idle_probability=float(dist[space.EMPTY]),
    )


def annotate(policy: Policy, guarantees: PolicyGuarantees) -> Policy:
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
