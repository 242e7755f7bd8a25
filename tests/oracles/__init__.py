"""Reference implementations the production solvers are gated against.

- :mod:`tests.oracles.loop_mdp` — the per-action / per-state loop
  formulation of the worker MDP's Bellman sweeps; value iteration on it
  must be float-identical to :class:`repro.core.mdp.WorkerMDP`.
- :mod:`tests.oracles.dense_mdp` — a dense ``Q[a] = R[a] + gamma[a] * P[a] v``
  MDP, either hand-written or enumerated from a worker MDP's per-state
  transition rows.
- :mod:`tests.oracles.tolerance_vi` — value iteration that stops by its
  tolerance alone; the certified stop must give byte-identical policies
  and equal §5.1 guarantees, and fixed-point tests read converged values
  from it.
- :mod:`tests.oracles.policy_eval` — the §5.1 evaluation one state at a
  time over a ``state id -> action`` dict decoded from a ``Policy``;
  the action-table chains, stationary distributions, guarantees and
  saved policies of production must be ``==`` to it.  The loop and
  tolerance oracles evaluate and annotate through it.
- :mod:`tests.oracles.lifecycle_observer` — the dispatch kernel's observer
  with an args dict per feed row and a registry fed per event; run-dir
  artifacts served through it must be byte-equal to the lifecycle
  capture's.
- :mod:`tests.oracles.sim_series` — the ``sim_*`` registry series
  published one record at a time, against which the bulk fold is gated.
- :mod:`tests.oracles.attribution_fold` — the attributor with its
  per-record ``observe_*`` hooks (``HookAttributor``), driven over an
  event table by ``hook_fold`` and over a kernel capture by
  ``Lifecycle.replay``; the columnar
  :meth:`repro.obs.attribution.LatencyAttributor.fold` must leave an
  attributor in exactly the state they leave, from a table and from a
  capture split into any drains.
- :mod:`tests.oracles.audit_fold` — the guarantee auditor with its
  per-record ``observe_*`` hooks (``HookAuditor``), fed live by
  ``DictLifecycleObserver``; the columnar
  :meth:`repro.obs.audit.GuaranteeAuditor.fold` must leave the same
  report, alerts, records and registry series from a capture split into
  any drains.
- :mod:`tests.oracles.total_variation` — the auditor's total-variation
  distance over a key union sorted afresh per call;
  :class:`repro.core.guarantees.TotalVariation` must be ``==`` to it.
- :mod:`tests.oracles.renewal_rows` — the renewal view's full-drain rows
  and arrival-count pmfs reduced one latency and load at a time;
  :class:`repro.core.transitions.EquilibriumRenewalKernelBuilder` rows
  must be ``==`` to them.
- :mod:`tests.oracles.recording_tracer` — the in-memory recorder as span
  and event objects; :class:`repro.obs.trace.RecordingTracer`, which
  records table rows, must give equal views and byte-equal exports.
"""
