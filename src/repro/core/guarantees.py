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

A policy is read as its action table
(:meth:`repro.core.mdp.WorkerMDP.action_table`, which refuses a policy of
another MDP); the stacked bank evaluates the solve's greedy tables with
the same functions.  The per-state oracle is ``tests/oracles/policy_eval.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.mdp import WorkerMDP
from repro.core.policy import Policy
from repro.errors import SolverError

__all__ = [
    "PolicyGuarantees",
    "OccupancyDistribution",
    "power_iterate",
    "stationary_distribution",
    "stationary_occupancy",
    "total_variation",
    "TotalVariation",
    "evaluate_policy",
    "expected_guarantees",
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


def power_iterate(
    chains: Sequence[np.ndarray],
    tolerance: float = 1e-10,
    max_iterations: int = 100_000,
    labels: Optional[Sequence[str]] = None,
) -> List[np.ndarray]:
    """Stationary distributions of ``(S, S)`` row-stochastic chains.

    Power iteration (§5.1 cites [40]) on every chain in lockstep: one
    per-chain vector-matrix product per step (the reduction whose
    summation order must not depend on the stack), with normalization and
    residual passes batched elementwise across chains.  A chain whose
    residual drops below ``tolerance`` freezes, so each result is bitwise
    the same as iterating that chain alone.  Raises :class:`SolverError`
    when a chain loses its mass or fails to mix within ``max_iterations``
    steps, naming each such chain (by ``labels``, when given, else by
    index) and, for the unmixed ones, its last residual.
    """
    loads = len(chains)
    size = chains[0].shape[0]
    dist = np.full((loads, size), 1.0 / size)
    upd = np.empty_like(dist)
    result = np.empty_like(dist)
    frozen = np.zeros(loads, dtype=bool)
    resid = np.full(loads, np.inf)

    def name(i: int) -> str:
        return f"chain {i}" if labels is None else labels[i]

    for _ in range(max_iterations):
        active = np.nonzero(~frozen)[0]
        for i in active:
            upd[i] = dist[i] @ chains[i]
        totals = upd.sum(axis=1)
        lost = active[totals[active] <= 0]
        if lost.size:
            raise SolverError(
                "stationary iteration lost all probability mass "
                f"({'; '.join(name(i) for i in lost)})"
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
            return list(result)
    unconverged = [
        f"{name(i)}: residual {resid[i]:.3e} > tolerance {tolerance:.3e}"
        for i in np.nonzero(~frozen)[0]
    ]
    raise SolverError(
        f"power iteration did not converge within {max_iterations} steps "
        f"({'; '.join(unconverged)})"
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
    rows = mdp.policy_rows(*mdp.action_table(policy))
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
    probs = {
        f"{n},{j}": p
        for n, row in enumerate(space.occupied_view(dist).tolist(), start=1)
        for j, p in enumerate(row)
    }
    return OccupancyDistribution(
        probs=probs,
        empty_probability=float(dist[space.EMPTY]),
        full_probability=float(dist[space.FULL]),
    )


def total_variation(p: Mapping[str, float], q: Mapping[str, float]) -> float:
    """Total-variation distance ``0.5 * sum |p - q|`` over the key union.

    Summed in sorted key order (see :class:`TotalVariation`).
    """
    return TotalVariation(q)(p)


class TotalVariation:
    """Total-variation distance to one fixed distribution ``q``.

    ``q``'s keys are sorted into a state index once; a call places the
    other side's weights by that index (re-sorting only when it brings
    keys the index lacks) and adds ``|p - q|`` over the index in sorted
    key order with the built-in ``sum``.  The order must not follow a
    set's iteration order, which depends on the process's string-hash
    seed, since float addition is not associative.  Keys the index holds
    but neither side has add exact zeros, which change neither plain nor
    compensated summation, so a distance does not depend on which keys
    earlier calls brought into the index.
    """

    def __init__(self, q: Mapping[str, float]) -> None:
        self._q = dict(q)
        self._reindex(self._q.keys())

    def _reindex(self, keys) -> None:
        self._keys = sorted(keys)
        self._slot = {k: i for i, k in enumerate(self._keys)}
        self._q_values = np.array([self._q.get(k, 0.0) for k in self._keys])

    def __call__(self, weights: Mapping[str, float], total: float = 1) -> float:
        """The distance of ``{k: w / total for k, w in weights.items()}``."""
        if not weights.keys() <= self._slot.keys():
            self._reindex(self._slot.keys() | weights.keys())
        p = np.zeros(len(self._keys))
        slots = np.fromiter(map(self._slot.__getitem__, weights), np.intp, len(weights))
        p[slots] = np.fromiter(weights.values(), np.float64, len(weights)) / total
        return 0.5 * sum(np.abs(p - self._q_values).tolist())


def evaluate_policy(
    mdp: WorkerMDP, policy: Policy, tolerance: float = 1e-10
) -> PolicyGuarantees:
    """Compute §5.1's expected accuracy and violation rate for a policy."""
    model, batch = mdp.action_table(policy)
    dist = power_iterate([mdp.policy_rows(model, batch)], tolerance)[0]
    return expected_guarantees(mdp, model, batch, dist)


def expected_guarantees(
    mdp: WorkerMDP, model: np.ndarray, batch: np.ndarray, dist: np.ndarray
) -> PolicyGuarantees:
    """§5.1's expectations of an action table ``(model, batch)`` whose
    chain has the stationary distribution ``dist``."""
    space = mdp.space
    queries, accuracy_arr, satisfied_arr = mdp.action_terms(model, batch)

    # Cumulative sums reproduce the sequential per-state accumulation
    # bit-for-bit (skipped states contribute an exact 0.0).
    live = dist > 0.0
    live[space.EMPTY] = False
    sat = live & satisfied_arr

    def _acc(contrib: np.ndarray) -> float:
        return float(np.cumsum(contrib)[-1])

    served_weight = _acc(np.where(live, dist * queries, 0.0))
    epoch_weight = _acc(np.where(live, dist, 0.0))
    satisfied_weight = _acc(np.where(sat, dist * queries, 0.0))
    accuracy_weight = _acc(np.where(sat, dist * queries * accuracy_arr, 0.0))
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
