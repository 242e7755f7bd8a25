"""Value iteration that stops by its tolerance alone: the stop-rule oracle.

Production value iteration freezes a load as soon as its greedy table is
certified optimal (:func:`repro.core.solvers.certified`), or when its
residual drops below the tolerance, whichever comes first.
:class:`ToleranceWorkerMDP` is the production :class:`WorkerMDP` whose
backup reports no greedy margin, so
:func:`repro.core.solvers.value_iteration` on it sweeps to the sup-norm
rule exactly as it did before the certified stop existed: its values are
within ``tolerance / (1 - gamma)`` of optimal.  The certified stop must
give byte-identical ``Policy.save`` output and bitwise-equal §5.1
guarantees (``tests/test_certified_stop.py``); tests about the fixed
point itself (dense enumeration, drop-mode identities)
read converged values from here.
"""

from __future__ import annotations

import numpy as np

from repro.core.bank import GenerationResult
from repro.core.config import WorkerMDPConfig
from repro.core.mdp import BackupResult, WorkerMDP
from repro.core.solvers import SolveStats, value_iteration
from tests.oracles.policy_eval import annotate, evaluate_policy

__all__ = ["ToleranceWorkerMDP", "converged_values", "generate_tolerance_policy"]


class ToleranceWorkerMDP(WorkerMDP):
    """A :class:`WorkerMDP` whose optimality backup reports no margin."""

    def backup(self, values: np.ndarray, want_greedy: bool = False) -> BackupResult:
        result = super().backup(values, want_greedy)
        result.margin = None
        return result


def converged_values(
    config: WorkerMDPConfig, tolerance: float = 1e-7, **kwargs
) -> SolveStats:
    """:func:`value_iteration` to the tolerance rule on ``config``'s MDP."""
    return value_iteration(
        ToleranceWorkerMDP(config), tolerance=tolerance, **kwargs
    )


def generate_tolerance_policy(
    config: WorkerMDPConfig, tolerance: float = 1e-7
) -> GenerationResult:
    """:func:`repro.core.generator.generate_policy` with the tolerance stop.

    Same phases (solve, extract, §5.1 evaluation, annotation), the
    evaluation and annotation through the per-state oracle
    (:mod:`tests.oracles.policy_eval`), so saved policies and guarantees
    are comparable byte for byte.
    """
    mdp = ToleranceWorkerMDP(config)
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
