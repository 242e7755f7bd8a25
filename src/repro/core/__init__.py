"""RAMSIS core: MDP formulation, solvers, policies, and guarantees.

This package implements the paper's primary contribution (§3-§5):

- :mod:`repro.core.discretization` — slack-time grids: Model-based
  Discretization (MD, §4.2.1) and Fixed Length Discretization (FLD, §4.2.2).
- :mod:`repro.core.config` — :class:`WorkerMDPConfig`, the offline inputs.
- :mod:`repro.core.mdp` — the per-worker MDP: state space, action validity,
  rewards (§4.1-§4.3), and the one Bellman optimality kernel.
- :mod:`repro.core.transitions` — transition kernels from the arrival
  distribution + load balancing strategy (§4.4, Appendix I).
- :mod:`repro.core.solvers` — per-MDP value and policy iteration (§4.1).
- :mod:`repro.core.policy` — model-selection policies + JSON serialization.
- :mod:`repro.core.guarantees` — stationary analysis: expected accuracy and
  expected SLO violation rate (§5.1).
- :mod:`repro.core.policy_set` — load-indexed policy sets with the 1 %
  adjacent-accuracy refinement rule (§6 "Query Load Adaptation").
- :mod:`repro.core.generator` — the high-level offline entry point.
- :mod:`repro.core.bank` — the policy solve path: one batched tensor
  program for a whole load grid (or one load), bitwise-equal in any stack.
"""

from repro.core.bank import StackedBankMDP, solve_stacked_bank
from repro.core.config import BatchingMode, Discretization, TransitionView, WorkerMDPConfig
from repro.core.discretization import TimeGrid
from repro.core.generator import PolicyGenerator, generate_policy
from repro.core.guarantees import PolicyGuarantees, evaluate_policy
from repro.core.mdp import WorkerMDP, build_worker_mdp
from repro.core.naive import NaiveWorkerMDP
from repro.core.policy import Action, Policy
from repro.core.policy_set import PolicySet
from repro.core.solvers import SolveStats, policy_iteration, value_iteration
from repro.core.validation import ChainStats, simulate_chain

__all__ = [
    "BatchingMode",
    "Discretization",
    "TransitionView",
    "WorkerMDPConfig",
    "TimeGrid",
    "WorkerMDP",
    "build_worker_mdp",
    "Action",
    "Policy",
    "PolicySet",
    "PolicyGenerator",
    "generate_policy",
    "StackedBankMDP",
    "solve_stacked_bank",
    "PolicyGuarantees",
    "evaluate_policy",
    "SolveStats",
    "value_iteration",
    "policy_iteration",
    "NaiveWorkerMDP",
    "ChainStats",
    "simulate_chain",
]
