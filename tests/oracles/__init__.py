"""Reference implementations the production solvers are gated against.

- :mod:`tests.oracles.loop_mdp` — the per-action / per-state loop
  formulation of the worker MDP's Bellman sweeps; value iteration on it
  must be float-identical to :class:`repro.core.mdp.WorkerMDP`.
- :mod:`tests.oracles.dense_mdp` — a dense ``Q[a] = R[a] + gamma[a] * P[a] v``
  MDP, either hand-written or enumerated from a worker MDP's per-state
  transition rows.
"""
