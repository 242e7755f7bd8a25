"""Probabilistic accuracy and latency guarantees (§5.1).

Given a worker MDP and a policy over it, RAMSIS computes the stationary
distribution of the policy-induced Markov chain via power iteration and
derives:

- the **expected latency SLO violation rate** — an upper bound on the
  online violation rate, because (1) quantized slack under-estimates real
  slack, so ``SLOSatisfied`` has false negatives but no false positives,
  and (2) a missed earliest deadline pessimistically counts the whole
  batch as missed (§5.1 intuitions);
- the **expected accuracy** — a lower bound on online accuracy per
  satisfied query, for the same reasons.

Two weightings are reported:

- ``per_query`` (default headline numbers): decision epochs are weighted
  by the number of queries they serve, which is what the paper's online
  metrics (*Accuracy Per Satisfied Query*, *Latency SLO Violation Rate*)
  measure;
- ``per_epoch``: the paper's §5.1 formulas verbatim, summing over states
  without batch weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.mdp import WorkerMDP, _FALLBACK
from repro.core.policy import Policy
from repro.errors import SolverError

__all__ = [
    "PolicyGuarantees",
    "OccupancyDistribution",
    "power_iterate",
    "stationary_distribution",
    "stationary_occupancy",
    "total_variation",
    "evaluate_policy",
]


@dataclass(frozen=True)
class PolicyGuarantees:
    """Stationary summary statistics of a policy on its worker MDP."""

    expected_accuracy: float
    expected_violation_rate: float
    per_epoch_accuracy: float
    per_epoch_violation_rate: float
    full_state_probability: float
    idle_probability: float

    def meets(self, accuracy_floor: float, violation_ceiling: float) -> bool:
        """True when the guarantees satisfy both thresholds (the §5.1
        resource-scaling use case)."""
        return (
            self.expected_accuracy >= accuracy_floor
            and self.expected_violation_rate <= violation_ceiling
        )


def _policy_action_table(
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


def power_iterate(
    chains: Sequence[np.ndarray],
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
) -> List[np.ndarray]:
    """Stationary distributions of ``(S, S)`` row-stochastic chains.

    Power iteration (§5.1 cites [40]) on every chain in lockstep: one
    per-chain vector-matrix product per step (the reduction whose
    summation order must not depend on the stack), with normalization and
    residual passes batched elementwise across chains.  A chain whose
    residual drops below ``tolerance`` freezes, so each result is bitwise
    the same as iterating that chain alone.  Raises :class:`SolverError`
    when a chain loses its mass or fails to mix within ``max_iterations``
    steps.
    """
    loads = len(chains)
    size = chains[0].shape[0]
    dist = np.full((loads, size), 1.0 / size)
    upd = np.empty_like(dist)
    result = np.empty_like(dist)
    frozen = np.zeros(loads, dtype=bool)
    for _ in range(max_iterations):
        active = np.nonzero(~frozen)[0]
        for i in active:
            upd[i] = dist[i] @ chains[i]
        totals = upd.sum(axis=1)
        if (totals[active] <= 0).any():
            raise SolverError("stationary iteration lost all probability mass")
        np.divide(upd, totals[:, None], out=upd)
        resid = np.max(np.abs(upd - dist), axis=1)
        for i in active:
            if resid[i] < tolerance:
                frozen[i] = True
                result[i] = upd[i]
            else:
                dist[i] = upd[i]
        if frozen.all():
            return list(result)
    raise SolverError(
        f"power iteration did not converge within {max_iterations} steps"
    )


def stationary_distribution(
    mdp: WorkerMDP,
    policy: Policy,
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Stationary state distribution of the policy-induced chain.

    :func:`power_iterate` on the chain's ``(S, S)`` row matrix, assembled
    once by :meth:`WorkerMDP.policy_rows`.
    """
    rows = mdp.policy_rows(_policy_action_table(mdp, policy))
    return power_iterate([rows], tolerance, max_iterations)[0]


@dataclass(frozen=True)
class OccupancyDistribution:
    """Stationary per-worker state occupancy of a policy-induced chain.

    ``probs`` maps occupied states keyed ``"n,j"`` (the policy-JSON key
    convention) to their stationary probability; the special empty and
    full-queue states are reported separately.  The online auditor
    compares its empirical decision-epoch occupancy against
    :meth:`decision_conditional`.
    """

    probs: Mapping[str, float]
    empty_probability: float
    full_probability: float

    def decision_conditional(self) -> Dict[str, float]:
        """The distribution conditioned on decision states (non-empty).

        Online decision epochs only ever observe occupied states and the
        full-queue state — the empty state's sole transition is the
        arrival action — so this is the prediction an empirical
        decision-epoch histogram estimates.
        """
        mass = sum(self.probs.values()) + self.full_probability
        if mass <= 0.0:
            raise SolverError("stationary occupancy has no decision mass")
        out = {key: p / mass for key, p in self.probs.items() if p > 0.0}
        if self.full_probability > 0.0:
            out["full"] = self.full_probability / mass
        return out


def stationary_occupancy(
    mdp: WorkerMDP,
    policy: Policy,
    tolerance: float = 1e-10,
) -> OccupancyDistribution:
    """The §5.1 stationary distribution keyed by ``(n, T_j)`` state.

    Same power iteration as :func:`stationary_distribution`, repackaged
    for consumers that need per-state probabilities (the live auditor's
    total-variation check) rather than the summary expectations.
    """
    dist = stationary_distribution(mdp, policy, tolerance=tolerance)
    space = mdp.space
    probs: Dict[str, float] = {}
    for n in range(1, mdp.max_queue + 1):
        for j in range(len(mdp.grid)):
            probs[f"{n},{j}"] = float(dist[space.index(n, j)])
    return OccupancyDistribution(
        probs=probs,
        empty_probability=float(dist[space.EMPTY]),
        full_probability=float(dist[space.FULL]),
    )


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Total-variation distance ``0.5 * sum |p - q|`` over the key union.

    Summed in sorted key order: a set's iteration order follows the
    process's string-hash seed, and float addition is not associative.
    """
    keys = sorted(set(p) | set(q))
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def evaluate_policy(
    mdp: WorkerMDP,
    policy: Policy,
    tolerance: float = 1e-10,
    dist: Optional[np.ndarray] = None,
) -> PolicyGuarantees:
    """Compute §5.1's expected accuracy and violation rate for a policy.

    ``dist`` optionally supplies a precomputed stationary distribution
    (the stacked bank solves all loads' chains in one batched power
    iteration and hands each cell its slice); when omitted, the chain is
    solved here.
    """
    table = _policy_action_table(mdp, policy)
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
