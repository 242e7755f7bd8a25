"""The per-worker model-selection MDP (§4).

:class:`WorkerMDP` assembles the state space (§4.2), action constraints
(§4.3), rewards (§4.1), and transition kernels (§4.4) for one worker, and
exposes the Bellman backups that the solvers in :mod:`repro.core.solvers`
drive to convergence.

State layout (see :class:`repro.core.transitions.StateSpace`): one empty
state, one full-queue state, and ``N_w * |T_w|`` occupied states.

Action constraints implemented exactly as in the paper:

- **latency** (§4.3.1): ``(m, b)`` is valid in ``(n, T_j)`` iff
  ``l_w(m, b) <= T_j``; when no action qualifies, the forced fallback
  ``(m_min, n)`` runs the whole queue on the fastest model (late, reward 0);
- **batch size** (§4.3.2): maximal batching fixes ``b = n``; variable
  batching allows every ``1 <= b <= n``;
- **model** (§4.3.3): models off the accuracy-latency Pareto front are
  pruned before the MDP is built (config flag).

The reward is ``Accuracy(a) * SLOSatisfied(s, a)`` (§4.1); an optional
per-query weighting (``reward_per_query``) multiplies by the batch size,
which the paper does not do — exposed as an ablation knob.

Bellman sweeps are stacked tensor contractions:

- the **optimality backup** is :class:`BellmanKernel`, the one backup in
  the package: it stacks the load-dependent arrays of one or more cells
  (a single worker MDP for :meth:`WorkerMDP.backup`, a whole load grid
  for :class:`repro.core.bank.StackedBankMDP`), stacks every
  variable-batching partial-drain action into one candidate tensor, and
  resolves the greedy choice with first-maximum ``argmax`` reductions
  (the dense ``Q[a, s] = r[a, s] + gamma[a, s] * (P[a] @ v)[s]`` layout,
  specialized to this MDP's factored kernels);
- **policy evaluation** (:meth:`WorkerMDP.backup_policy`) assembles the
  policy-induced chain once per action table — reward, discount, and
  transition-row arrays — so every expectation sweep is one
  ``r + g * (P_pi @ v)`` matrix-vector product;
- the same cached ``P_pi`` feeds the §5.1 stationary analysis
  (:func:`repro.core.guarantees.stationary_distribution`).

Exactness contract: the per-action / per-state loop formulation lives in
the test suite as an oracle (``tests/oracles/loop_mdp.py``), and value
iteration here is **float-identical** to it — every candidate Q value is
produced by the same NumPy kernel calls on the same operands, and the
stacked argmax keeps the loop's first-strict-maximum tie-breaking.
``tests/test_solver_equivalence.py`` asserts ``==`` value functions,
equal greedy tables and byte-identical ``Policy.save`` output.  Policy
evaluation swaps per-state ``dot`` calls for one ``gemv``, which
reassociates sums, so policy iteration agrees with the oracle at the
greedy-table level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import (
    BatchingMode,
    TransitionView,
    WorkerMDPConfig,
)
from repro.core.discretization import TimeGrid
from repro.core.policy import Action, Policy, PolicyMetadata
from repro.core.transitions import (
    EquilibriumRenewalKernelBuilder,
    ExactRoundRobinKernelBuilder,
    SplitViewKernelBuilder,
    StateSpace,
    gaps_for_distribution,
)
from repro.errors import ConfigurationError
from repro.profiles.models import ModelProfile

__all__ = [
    "WorkerMDP",
    "build_worker_mdp",
    "BackupResult",
    "BellmanKernel",
]

#: Encoded "no action possible other than the forced fallback".
_FALLBACK = -1


@dataclass
class BackupResult:
    """One Bellman backup: new values plus the greedy action table.

    ``greedy`` maps state id -> encoded action ``(model_index, batch)``;
    fallback states carry ``(_FALLBACK, n)``.
    """

    values: np.ndarray
    greedy: Dict[int, Tuple[int, int]]


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The load-invariant structure of a worker MDP.

    None of it depends on the arrival load, so a stacked bank
    (:class:`repro.core.bank.StackedBankMDP`) builds it once and shares
    it across its cells.
    """

    #: Pareto-pruned models, fastest first (action-index order).
    models: Tuple[ModelProfile, ...]
    grid: TimeGrid
    max_queue: int
    #: ``latency[m, b-1]``: p95 latency of model ``m`` at batch ``b``.
    latency: np.ndarray

    @classmethod
    def of(cls, config: WorkerMDPConfig) -> "_Skeleton":
        models = sorted(
            config.effective_models(), key=lambda m: (m.latency_ms(1), -m.accuracy)
        )
        if not models:
            raise ConfigurationError("no models available after pruning")
        grid = config.build_grid()
        n = config.effective_max_queue()
        latency = np.array(
            [[m.latency_ms(b) for b in range(1, n + 1)] for m in models]
        )
        return cls(tuple(models), grid, n, latency)

    def kernel_latencies(
        self, batching: BatchingMode
    ) -> Tuple[List[float], List[float]]:
        """Service latencies whose renewal kernels an MDP reads, in the
        order its construction reads them: every full drain ``(m, n)``,
        then (variable batching) every partial drain ``(m, b < N_w)`` that
        fits some slack bin, whose arrival counts it reads."""
        full = [float(lat) for lat in self.latency.ravel()]
        partial = []
        if batching is BatchingMode.VARIABLE:
            partial = [
                float(lat)
                for lat in self.latency[:, : self.max_queue - 1].ravel()
                if lat <= self.grid.values[-1]
            ]
        return full, partial


class WorkerMDP:
    """A fully-materialized worker MDP ready for solving.

    Use :func:`build_worker_mdp` (or ``WorkerMDP(config)``) to construct.
    """

    def __init__(self, config: WorkerMDPConfig) -> None:
        self._config = config
        self._skeleton = skeleton = self._build_skeleton(config)
        self._models = skeleton.models
        self._grid: TimeGrid = skeleton.grid
        self._max_queue = skeleton.max_queue
        self._num_models = len(skeleton.models)
        self._latency = skeleton.latency

        n = self._max_queue
        self._accuracy = np.array([m.accuracy for m in self._models])
        grid_values = self._grid.as_array()
        # valid[m, n-1, j]: is (m, b=n) allowed in (n, T_j)?
        self._valid = self._latency[:, :, None] <= grid_values[None, None, :]

        # Per-action discounts: plain MDPs discount once per epoch; the
        # semi-MDP extension discounts by real elapsed time.
        if config.duration_aware_discount:
            reference = config.effective_reference_ms()
            self._gamma_action = config.discount ** (self._latency / reference)
            mean_gap = config.per_worker_arrivals().mean_interarrival_ms
            self._gamma_empty = config.discount ** (mean_gap / reference)
        else:
            self._gamma_action = np.full_like(self._latency, config.discount)
            self._gamma_empty = config.discount

        reward_scale = (
            np.arange(1, n + 1, dtype=np.float64)
            if config.reward_per_query
            else np.ones(n)
        )
        # reward[m, n-1, j] for the full-drain action (m, n).
        self._reward = (
            self._accuracy[:, None, None] * reward_scale[None, :, None] * self._valid
        )

        if config.view is TransitionView.POISSON_SPLIT:
            self._split = SplitViewKernelBuilder(
                self._grid, config.per_worker_arrivals(), self._max_queue
            )
            self._exact: Optional[ExactRoundRobinKernelBuilder] = None
            self._space = self._split.space
            self._rows = self._build_split_rows()
            self._phase_weights = None
        elif config.view is TransitionView.ROUND_ROBIN_MARGINAL:
            self._split = EquilibriumRenewalKernelBuilder(
                self._grid,
                gaps_for_distribution(config.per_worker_arrivals()),
                self._max_queue,
            )
            self._exact = None
            self._space = self._split.space
            self._rows = self._build_split_rows()
            self._phase_weights = None
        elif config.view is TransitionView.EXACT_ROUND_ROBIN:
            self._exact = ExactRoundRobinKernelBuilder(
                self._grid, config.arrivals, config.num_workers, self._max_queue
            )
            self._split = None
            self._space = self._exact.space
            self._rows_by_phase = self._build_exact_rows()
            self._phase_weights = self._build_phase_weights()
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unknown view {config.view}")

        self._counts_cache: Dict[float, np.ndarray] = {}
        # Variable batching: everything about a partial-drain action that
        # does not depend on the value vector (validity, arrival counts,
        # leftover slack-bin map, reward, discount) is precomputed once
        # here instead of per Bellman sweep — the per-sweep work drops to
        # one windowed contraction and one masked compare per action.
        self._partial_plan = (
            self._build_partial_plan()
            if config.batching is BatchingMode.VARIABLE
            else []
        )
        self._stack_partial_plan()
        # Policy-evaluation cache: one assembled chain per action table.
        self._pe_table: Optional[Dict[int, Tuple[int, int]]] = None
        self._pe_rows: Optional[np.ndarray] = None
        self._pe_reward: Optional[np.ndarray] = None
        self._pe_discount: Optional[np.ndarray] = None
        # The one-cell optimality kernel, built on the first backup.
        self._kernel: Optional[BellmanKernel] = None

    def _build_skeleton(self, config: WorkerMDPConfig) -> _Skeleton:
        """The load-invariant structure (a bank cell reuses a shared one)."""
        return _Skeleton.of(config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> WorkerMDPConfig:
        """The offline inputs this MDP was built from."""
        return self._config

    @property
    def grid(self) -> TimeGrid:
        """Slack-time grid."""
        return self._grid

    @property
    def space(self) -> StateSpace:
        """State index layout."""
        return self._space

    @property
    def num_states(self) -> int:
        """Total state count ``|S|``."""
        return self._space.size

    @property
    def num_models(self) -> int:
        """Models available to actions (after pruning)."""
        return self._num_models

    @property
    def model_names(self) -> Tuple[str, ...]:
        """Model names in action-index order (fastest first)."""
        return tuple(m.name for m in self._models)

    @property
    def max_queue(self) -> int:
        """``N_w``."""
        return self._max_queue

    def latency_ms(self, model_index: int, batch: int) -> float:
        """Profiled latency of an encoded action."""
        return float(self._latency[model_index, batch - 1])

    def accuracy_of(self, model_index: int) -> float:
        """Accuracy of a model by action index."""
        return float(self._accuracy[model_index])

    def valid_actions(self, n: int, j: int) -> List[Tuple[int, int]]:
        """Encoded valid actions ``(m, b)`` in occupied state ``(n, j)``.

        Empty when only the forced fallback applies.
        """
        actions: List[Tuple[int, int]] = []
        batches = (
            range(1, n + 1)
            if self._config.batching is BatchingMode.VARIABLE
            else (n,)
        )
        for b in batches:
            for m in range(self._num_models):
                if self._latency[m, b - 1] <= self._grid[j]:
                    actions.append((m, b))
        return actions

    # ------------------------------------------------------------------
    # Kernel assembly
    # ------------------------------------------------------------------
    def _build_split_rows(self) -> np.ndarray:
        """(M, N, S) full-drain transition rows under the split view."""
        assert self._split is not None
        if isinstance(self._split, EquilibriumRenewalKernelBuilder):
            # Every renewal kernel the MDP reads, in batched passes.
            self._split.prefill(
                *self._skeleton.kernel_latencies(self._config.batching)
            )
        rows = np.zeros(
            (self._num_models, self._max_queue, self._space.size), dtype=np.float64
        )
        for m in range(self._num_models):
            for n in range(1, self._max_queue + 1):
                rows[m, n - 1] = self._split.service_row(self._latency[m, n - 1])
        return rows

    def _build_exact_rows(self) -> np.ndarray:
        """(M, N, K, S) full-drain rows per phase under the exact view."""
        assert self._exact is not None
        k = self._exact.num_workers
        rows = np.zeros(
            (self._num_models, self._max_queue, k, self._space.size),
            dtype=np.float64,
        )
        for m in range(self._num_models):
            for n in range(1, self._max_queue + 1):
                rows[m, n - 1] = self._exact.service_rows_by_phase(
                    self._latency[m, n - 1]
                )
        return rows

    def _build_phase_weights(self) -> np.ndarray:
        """(N, J, K) phase distributions for every occupied state, plus the
        FULL state's weights stored separately in ``_full_phase``."""
        assert self._exact is not None
        n_max, j_count = self._max_queue, len(self._grid)
        k = self._exact.num_workers
        weights = np.zeros((n_max, j_count, k), dtype=np.float64)
        for j in range(j_count):
            # One batched pmf evaluation covers all queue lengths at this
            # slack (bit-identical to per-(n, j) phase_weights calls).
            weights[:, j, :] = self._exact.phase_weights_table(
                n_max, self._grid[j]
            )
        self._full_phase = self._exact.phase_weights(n_max, 0.0)
        return weights

    def _build_partial_plan(
        self,
    ) -> List[Tuple[int, int, np.ndarray, np.ndarray, float, np.ndarray, float, float]]:
        """Sweep-invariant data for every partial-drain action ``(m, b < n)``.

        Entries are ``(m, b, valid_j, counts, residual, j_map, reward,
        gamma)`` in the exact ``(m, b)`` order the per-sweep loop used to
        iterate, so greedy tie-breaking is unchanged.
        """
        grid_values = self._grid.as_array()
        n_max, j_count = self._max_queue, len(self._grid)
        plan = []
        for m in range(self._num_models):
            for b in range(1, n_max):  # partial drains only (b < n <= N)
                latency = self._latency[m, b - 1]
                valid_j = latency <= grid_values  # (J,)
                if not valid_j.any():
                    continue
                counts = self._counts_for(latency)  # (N + 1,)
                residual = max(0.0, 1.0 - float(counts.sum()))
                # Leftover slack T_j - l quantizes to a per-j bin index.
                j_map = np.array(
                    [
                        self._grid.floor_index(grid_values[j] - latency)
                        for j in range(j_count)
                    ]
                )
                reward = self._accuracy[m] * (
                    float(b) if self._config.reward_per_query else 1.0
                )
                plan.append(
                    (
                        m,
                        b,
                        valid_j,
                        counts,
                        residual,
                        j_map,
                        reward,
                        float(self._gamma_action[m, b - 1]),
                    )
                )
        return plan

    def _stack_partial_plan(self) -> None:
        """Stack the per-action partial-drain plan into ``(P, ...)`` arrays
        (see :class:`BellmanKernel`)."""
        plan = self._partial_plan
        j_count = len(self._grid)
        self._plan_m = np.array([e[0] for e in plan], dtype=np.intp)
        self._plan_b = np.array([e[1] for e in plan], dtype=np.intp)
        self._plan_valid = (
            np.array([e[2] for e in plan], dtype=bool)
            if plan
            else np.zeros((0, j_count), dtype=bool)
        )
        self._plan_counts = [e[3] for e in plan]
        self._plan_residual = np.array([e[4] for e in plan], dtype=np.float64)
        self._plan_jmap = (
            np.array([e[5] for e in plan], dtype=np.intp)
            if plan
            else np.zeros((0, j_count), dtype=np.intp)
        )
        self._plan_reward = np.array([e[6] for e in plan], dtype=np.float64)
        self._plan_gamma = np.array([e[7] for e in plan], dtype=np.float64)

    # ------------------------------------------------------------------
    # Bellman backup
    # ------------------------------------------------------------------
    def backup(self, values: np.ndarray, want_greedy: bool = False) -> BackupResult:
        """One synchronous Bellman optimality backup.

        Runs :class:`BellmanKernel` over a one-cell stack.  Returns a fresh
        value array on every call (value iteration keeps the previous
        one); when ``want_greedy`` also returns the greedy (argmax) action
        per state, used for policy extraction.
        """
        if self._kernel is None:
            self._kernel = BellmanKernel([self])
        if want_greedy:
            new_values, tables = self._kernel.greedy(values[None])
            return BackupResult(values=new_values[0].copy(), greedy=tables[0])
        new_values = self._kernel.sweep(values[None], (0,))
        return BackupResult(values=new_values[0].copy(), greedy={})

    def _counts_for(self, latency: float) -> np.ndarray:
        """Arrival-count distribution over the service time.

        Split view: direct.  Exact view: phase-marginalized with the
        stationary (uniform) phase, a documented simplification — the
        partial-drain path is an extension; the paper's Table 2 variable
        batching numbers use a single worker, where both coincide.
        """
        if self._split is not None:
            return self._split.arrival_counts(latency)
        assert self._exact is not None
        key = round(float(latency), 9)
        cached = self._counts_cache.get(key)
        if cached is not None:
            return cached
        k = self._exact.num_workers
        n_max = self._max_queue
        pmf = self._config.arrivals.pmf_vector((n_max + 1) * k - 1, latency)
        counts = np.zeros(n_max + 1, dtype=np.float64)
        # Uniform phase: P(worker gets a | phase r) averaged over r.
        for r in range(k):
            for a in range(n_max + 1):
                lo, hi = a * k - r, (a + 1) * k - r - 1
                lo = max(lo, 0)
                if lo <= hi:
                    counts[a] += pmf[lo : hi + 1].sum() / k
        self._counts_cache[key] = counts
        return counts

    # ------------------------------------------------------------------
    # Fixed-policy backup (policy evaluation / iteration)
    # ------------------------------------------------------------------
    def _policy_eval_arrays(
        self, action_table: Dict[int, Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reward / discount / transition arrays of the induced chain.

        Cached against the action table — policy iteration evaluates the
        same table for hundreds of sweeps, so assembly cost is paid once
        per improvement round instead of once per sweep per state.
        """
        if self._pe_table is not None and action_table == self._pe_table:
            return self._pe_reward, self._pe_discount, self._pe_rows
        space = self._space
        size = space.size
        rows = self.policy_rows(action_table)
        reward = np.zeros(size, dtype=np.float64)
        discount = np.empty(size, dtype=np.float64)
        discount[space.EMPTY] = self._gamma_empty
        for state_id in range(size):
            if state_id == space.EMPTY:
                continue
            n, _ = space.decode(state_id)
            action = action_table.get(state_id, (_FALLBACK, n))
            reward[state_id] = self.reward_of(state_id, action)
            discount[state_id] = self.discount_of(state_id, action)
        self._pe_table = dict(action_table)
        self._pe_rows = rows
        self._pe_reward = reward
        self._pe_discount = discount
        return reward, discount, rows

    def backup_policy(
        self, values: np.ndarray, action_table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """One expectation backup under a fixed action table, as a single
        matrix-vector product on the cached induced chain."""
        reward, discount, rows = self._policy_eval_arrays(action_table)
        return reward + discount * (rows @ values)

    def discount_of(self, state_id: int, action: Tuple[int, int]) -> float:
        """Continuation discount of an encoded action (semi-MDP aware)."""
        config = self._config
        if state_id == self._space.EMPTY:
            return self._gamma_empty
        m, b = action
        if m == _FALLBACK:
            if config.drop_late:
                return 1.0 if config.duration_aware_discount else config.discount
            n, _ = self._space.decode(state_id)
            return float(self._gamma_action[0, n - 1])
        return float(self._gamma_action[m, b - 1])

    def reward_of(self, state_id: int, action: Tuple[int, int]) -> float:
        """Reward ``Accuracy * SLOSatisfied`` of an encoded action."""
        space = self._space
        if state_id == space.EMPTY:
            return 0.0
        n, j = space.decode(state_id)
        m, b = action
        if m == _FALLBACK:
            return 0.0
        slack = 0.0 if state_id == space.FULL else self._grid[j]
        if self._latency[m, b - 1] > slack:
            return 0.0
        scale = float(b) if self._config.reward_per_query else 1.0
        return float(self._accuracy[m]) * scale

    def transition_row(
        self, state_id: int, action: Tuple[int, int]
    ) -> np.ndarray:
        """Full transition row for one (state, encoded action) pair."""
        space = self._space
        if state_id == space.EMPTY:
            row = np.zeros(space.size)
            row[space.index(1, self._grid.slo_index)] = 1.0
            return row
        n, j = space.decode(state_id)
        m, b = action
        if m == _FALLBACK:
            if self._config.drop_late:
                row = np.zeros(space.size)
                row[space.EMPTY] = 1.0
                return row
            m, b = 0, n
        if b > n:
            raise ConfigurationError(f"batch {b} exceeds queue length {n}")
        latency = self._latency[m, b - 1]
        if b == n:
            if self._split is not None:
                return self._rows[m, n - 1]
            weights = (
                self._full_phase
                if state_id == space.FULL
                else self._phase_weights[n - 1, j]
            )
            return weights @ self._rows_by_phase[m, n - 1]
        # Partial drain.
        slack = 0.0 if state_id == space.FULL else self._grid[j]
        leftover_slack = slack - latency
        if self._split is not None:
            return self._split.partial_row(latency, n - b, leftover_slack)
        counts = self._counts_for(latency)
        row = np.zeros(space.size)
        j_left = self._grid.floor_index(leftover_slack)
        for k in range(self._max_queue - (n - b) + 1):
            row[space.index(n - b + k, j_left)] = counts[k]
        row[space.FULL] = max(0.0, 1.0 - row.sum())
        return row

    def policy_rows(
        self, table: Dict[int, Tuple[int, int]]
    ) -> np.ndarray:
        """The ``(S, S)`` transition matrix of the chain ``table`` induces.

        Full-drain actions under a split-family view share the
        precomputed ``(M, N, S)`` row bank, so those states gather in one
        fancy-indexed copy; everything else (partial drains, drop-mode
        fallbacks, the exact view's phase mixtures) goes through
        :meth:`transition_row`.  A table equal to the one policy
        evaluation last assembled is served from that cache, so the §5.1
        stationary analysis and policy evaluation read the same array.
        """
        if self._pe_table is not None and table == self._pe_table:
            return self._pe_rows
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

    # ------------------------------------------------------------------
    # Policy extraction
    # ------------------------------------------------------------------
    def extract_policy(self, values: np.ndarray, task: Optional[str] = None) -> Policy:
        """Greedy policy for ``values``, packaged for online use."""
        return self.policy_of(self.backup(values, want_greedy=True).greedy, task)

    def policy_of(
        self, greedy: Dict[int, Tuple[int, int]], task: Optional[str] = None
    ) -> Policy:
        """Package a greedy action table (see :class:`BackupResult`)."""
        actions: Dict[Tuple[int, int], Action] = {}
        for n in range(1, self._max_queue + 1):
            for j in range(len(self._grid)):
                m, b = greedy[self._space.index(n, j)]
                if m == _FALLBACK:
                    actions[(n, j)] = Action(
                        model=self._models[0].name, batch_size=n, is_late=True
                    )
                else:
                    actions[(n, j)] = Action(
                        model=self._models[m].name, batch_size=b
                    )
        cfg = self._config
        metadata = PolicyMetadata(
            task=task or cfg.model_set.task,
            slo_ms=cfg.slo_ms,
            load_qps=cfg.load_qps,
            num_workers=cfg.num_workers,
            arrival_family=type(cfg.arrivals).__name__,
            discretization=cfg.discretization.value,
            fld_resolution=cfg.fld_resolution,
            batching=cfg.batching.value,
            view=cfg.view.value,
            discount=cfg.discount,
        )
        return Policy(
            grid=self._grid,
            max_queue=self._max_queue,
            actions=actions,
            metadata=metadata,
        )

    def initial_values(self) -> np.ndarray:
        """Zero value vector of the right shape."""
        return np.zeros(self._space.size, dtype=np.float64)


class BellmanKernel:
    """The Bellman optimality backup over a stack of worker MDPs.

    Built from cells that share every load-invariant input (models, grid,
    SLO, batching, view, extensions) and differ only in their arrival
    load: one cell for :meth:`WorkerMDP.backup`, a whole load grid for
    :class:`repro.core.bank.StackedBankMDP`.  The load-dependent arrays
    are stacked into ``(L, ...)`` layouts; :meth:`sweep` backs up every
    active load and :meth:`greedy` adds each load's argmax action table.

    Exactness discipline: every matmul/einsum *reduction* is invoked per
    load with exactly a one-cell stack's operand shapes and strides
    (batching a matmul across loads would dispatch a different BLAS kernel
    and reassociate sums), while every *elementwise* op (add, multiply,
    compare, max-reduce over in-row axes) batches across the load axis —
    ufuncs are per-element, so batching them cannot change a single bit,
    and ``argmax`` only compares.  A load's backup is therefore bitwise
    the same in whatever stack it sits.
    """

    def __init__(self, cells: Sequence[WorkerMDP]) -> None:
        self._validate(cells)
        first = cells[0]
        cfg = first.config
        self._space = space = first.space
        self._loads = loads = len(cells)
        self._n_max = n_max = first.max_queue
        self._j_count = j_count = len(first.grid)
        m_count = first.num_models

        self._split_view = cfg.view is not TransitionView.EXACT_ROUND_ROBIN
        self._drop_late = cfg.drop_late
        self._drop_gamma = (
            1.0 if cfg.duration_aware_discount else cfg.discount
        )
        self._idx_one = space.index(1, first.grid.slo_index)
        self._batches = np.arange(1, n_max + 1)[:, None]

        # Load-invariant structure (validated equal across cells).
        self._reward = first._reward  # (M, N, J)
        self._valid = first._valid  # (M, N, J)
        self._no_valid = ~first._valid.any(axis=0)  # (N, J)

        # Load-dependent stacks.  Kernel row banks stay per-cell array
        # references: reductions run per load on the cell's own operands.
        self._gamma_action = np.stack([c._gamma_action for c in cells])
        self._gamma_empty = np.array([c._gamma_empty for c in cells])
        self._gamma_full = self._gamma_action[:, 0, n_max - 1].copy()
        if self._split_view:
            self._rows_list = [c._rows for c in cells]
        else:
            self._rows_by_phase_list = [c._rows_by_phase for c in cells]
            self._phase_weights_list = [c._phase_weights for c in cells]
            self._full_phase_list = [c._full_phase for c in cells]
            self._ev_phase = np.empty(
                (loads, m_count, n_max, self._rows_by_phase_list[0].shape[2])
            )
            self._ev_state = np.empty((loads, m_count, n_max, j_count))
            self._ev_full = np.empty(loads)

        # Sweep buffers.
        self._ev = np.empty((loads, m_count, n_max))
        self._prod = np.empty((loads, m_count, n_max))
        self._q = np.empty((loads, m_count, n_max, j_count))
        self._best = np.empty((loads, n_max, j_count))
        self._new_values = np.empty((loads, space.size))

        # Variable-batching partial-drain plan, stacked.  Everything except
        # the per-entry value contraction (whose matmul call must stay
        # bitwise identical to the per-action formulation) is hoisted into
        # ``(L, P, ...)`` arrays consumed by one batched pass.
        self._p_count = p_count = len(first._plan_counts)
        if p_count:
            self._plan_b = first._plan_b
            # region[p, n-1]: does entry p's action (b < n) apply in queue n?
            region = np.zeros((p_count, n_max), dtype=bool)
            for p, b in enumerate(self._plan_b):
                region[p, b:] = True
            # Dead candidate cells: outside queue-region x slack-validity.
            self._plan_dead = ~(
                region[:, :, None] & first._plan_valid[:, None, :]
            )
            # Greedy lookup tables with the incoming full-drain best at
            # slot 0.
            self._plan_m_lut = np.concatenate(([0], first._plan_m))
            self._plan_b_lut = np.concatenate(([0], first._plan_b))
            self._plan_gamma = np.stack([c._plan_gamma for c in cells])
            self._plan_reward = np.stack([c._plan_reward for c in cells])
            self._plan_residual = np.stack(
                [c._plan_residual for c in cells]
            )
            self._plan_counts_list = [c._plan_counts for c in cells]
            # Flat gather indices: q_cand[l, p, n, j] reads
            # ev_stack[l, p, n, jmap[p, j]], resolved once into one
            # fancy-index array so each sweep is a single ``take``.
            self._take_stack = (
                (
                    np.arange(loads * p_count, dtype=np.intp).reshape(
                        loads, p_count, 1, 1
                    )
                    * n_max
                    + np.arange(n_max, dtype=np.intp)[:, None]
                )
                * j_count
                + first._plan_jmap[None, :, None, :]
            )
            # ``_fold_ev`` rows below each entry's ``b`` are never written
            # and never read (masked to -inf), so the buffer is left
            # unzeroed between sweeps.
            self._fold_vpad = np.empty((loads, 2 * n_max + 1, j_count))
            self._fold_ev = np.empty(
                (loads, self._p_count, n_max, j_count)
            )
            self._fold_q = np.empty_like(self._fold_ev)

    @staticmethod
    def _validate(cells: Sequence[WorkerMDP]) -> None:
        first = cells[0]
        cfg = first.config
        for cell in cells[1:]:
            c = cell.config
            same = (
                cell.space.size == first.space.size
                and cell.num_models == first.num_models
                and cell.max_queue == first.max_queue
                and c.view is cfg.view
                and c.batching is cfg.batching
                and c.drop_late == cfg.drop_late
                and c.duration_aware_discount == cfg.duration_aware_discount
                and c.discount == cfg.discount
                and cell.grid.slo_ms == first.grid.slo_ms
                and np.array_equal(
                    cell.grid.as_array(), first.grid.as_array()
                )
                and np.array_equal(cell._latency, first._latency)
                and np.array_equal(cell._valid, first._valid)
                and np.array_equal(cell._reward, first._reward)
                and len(cell._plan_counts) == len(first._plan_counts)
                and np.array_equal(cell._plan_jmap, first._plan_jmap)
                and np.array_equal(cell._plan_valid, first._plan_valid)
            )
            if not same:
                raise ConfigurationError(
                    "stacked bank cells must share every load-invariant "
                    "input (models, grid, SLO, batching, view, extensions) "
                    "and differ only in the arrival load"
                )

    def sweep(self, values: np.ndarray, active: Sequence[int]) -> np.ndarray:
        """One optimality backup of every active load of ``values`` (L, S).

        Returns the kernel's ``(L, S)`` output buffer, which the next call
        overwrites.  Inactive (converged) loads skip their reductions; the
        batched elementwise passes still touch their rows, which are stale
        and must not be read.
        """
        self._backup(values, active, greedy=False)
        return self._new_values

    def greedy(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, List[Dict[int, Tuple[int, int]]]]:
        """Backup of every load plus each load's greedy action table.

        Tables map state id -> encoded ``(model_index, batch)`` as in
        :class:`BackupResult`.  Ties go to the first maximum — the lowest
        model index among full drains, then the full-drain best ahead of
        the partial drains in plan order — which is the strict ``>``
        update order of a sequential per-action fold.
        """
        model, batch = self._backup(values, range(self._loads), greedy=True)
        space = self._space
        ids = range(2, space.size)
        tables = []
        for m_i, b_i in zip(model, batch):
            table = dict(zip(ids, zip(m_i.ravel().tolist(), b_i.ravel().tolist())))
            table[space.FULL] = (_FALLBACK, self._n_max)
            tables.append(table)
        return self._new_values, tables

    def _backup(
        self, values: np.ndarray, active: Sequence[int], greedy: bool
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        space = self._space
        n_max = self._n_max

        # Expected continuation value of full-drain actions: the one
        # per-load reduction, invoked with a one-cell stack's operand
        # shapes so the BLAS kernel (and its summation order) is the same
        # in every stack.
        ev = self._ev
        if self._split_view:
            for i in active:
                np.matmul(self._rows_list[i], values[i], out=ev[i])
            # q[l, m, n, j] = reward[m, n, j] + gamma[l, m, n] * ev[l, m, n]
            # (the j axis broadcasts the identical product).
            np.multiply(self._gamma_action, ev, out=self._prod)
            np.add(
                self._reward[None],
                self._prod[:, :, :, None],
                out=self._q,
            )
            ev_full = ev[:, 0, n_max - 1]
        else:
            for i in active:
                np.matmul(
                    self._rows_by_phase_list[i],
                    values[i],
                    out=self._ev_phase[i],
                )
                self._ev_state[i] = np.einsum(
                    "mnk,njk->mnj",
                    self._ev_phase[i],
                    self._phase_weights_list[i],
                )
                self._ev_full[i] = float(
                    self._ev_phase[i][0, n_max - 1]
                    @ self._full_phase_list[i]
                )
            np.multiply(
                self._gamma_action[:, :, :, None],
                self._ev_state,
                out=self._q,
            )
            np.add(self._reward[None], self._q, out=self._q)
            ev_full = self._ev_full

        # Masked max over models.
        np.max(
            self._q,
            axis=1,
            where=self._valid[None],
            initial=-np.inf,
            out=self._best,
        )

        # Forced fallback where nothing is valid (§4.3.1): serve the whole
        # queue late on the fastest model — or, in drop mode, discard it
        # and idle (an instantaneous transition to the empty state).
        if self._drop_late:
            fb = self._drop_gamma * values[:, space.EMPTY]
            np.copyto(
                self._best, fb[:, None, None], where=self._no_valid[None]
            )
        elif self._split_view:
            # prod[l, 0, n] is the fallback product gamma[0, n] * ev[0, n].
            np.copyto(
                self._best,
                self._prod[:, 0, :, None],
                where=self._no_valid[None],
            )
        else:
            fb = self._gamma_action[:, 0, :, None] * self._ev_state[:, 0]
            np.copyto(self._best, fb, where=self._no_valid[None])

        choice = None
        if greedy:
            model = np.where(self._valid[None], self._q, -np.inf).argmax(axis=1)
            model[:, self._no_valid] = _FALLBACK
            choice = (model, np.broadcast_to(self._batches, model.shape))

        if self._p_count:
            q_cand = self._partial_candidates(values, active)
            if greedy:
                winner = np.concatenate(
                    [self._best[:, None], q_cand], axis=1
                ).argmax(axis=1)
                keep = winner == 0
                choice = (
                    np.where(keep, choice[0], self._plan_m_lut[winner]),
                    np.where(keep, choice[1], self._plan_b_lut[winner]),
                )
            # Float max is exact, so this equals the winner's value.
            np.maximum(q_cand.max(axis=1), self._best, out=self._best)

        new_values = self._new_values
        new_values[:, 2:] = self._best.reshape(self._loads, -1)
        new_values[:, space.EMPTY] = (
            self._gamma_empty * values[:, self._idx_one]
        )
        if self._drop_late:
            new_values[:, space.FULL] = (
                self._drop_gamma * values[:, space.EMPTY]
            )
        else:
            new_values[:, space.FULL] = self._gamma_full * ev_full
        return choice

    def _partial_candidates(
        self, values: np.ndarray, active: Sequence[int]
    ) -> np.ndarray:
        """Q of every variable-batching action ``(m, b)`` with ``b < n``.

        For each such action the leftover queue keeps ``n - b`` queries
        whose earliest slack is the conservative ``T_j - l`` (DESIGN.md §3),
        so the slack bin of the next state is deterministic and only the
        arrival count is stochastic.  Returns the ``(L, P, N, J)``
        candidate buffer, ``-inf`` where an entry does not apply.
        """
        space = self._space
        n_max = self._n_max
        v_full = values[:, space.FULL]

        # vpad[l, i + k] is the value of "base i+1 plus k arrivals"; rows
        # past N_w stand in for the overflow (FULL) state, so one windowed
        # contraction covers both the in-range mass and the tail.
        vpad = self._fold_vpad
        vpad[:, :n_max] = values[:, 2:].reshape(
            self._loads, n_max, self._j_count
        )
        vpad[:, n_max:] = v_full[:, None, None]
        windows = np.lib.stride_tricks.sliding_window_view(
            vpad, n_max + 1, axis=1
        )  # (L, N + 1, J, N + 1); windows[l, i, :, k] == vpad[l, i + k]

        # ev_stack[l, p, b_p + i] = E[V(next) | leftover base i + 1] — the
        # one per-entry kernel call, aligned to queue rows at assignment.
        ev_stack = self._fold_ev
        for i in active:
            counts = self._plan_counts_list[i]
            win = windows[i]
            for p, b in enumerate(self._plan_b):
                np.matmul(
                    win[: n_max - b], counts[p], out=ev_stack[i, p, b:]
                )
        # Overflow tail mass (exact: adds 0.0 where residual is 0).
        ev_stack += (
            self._plan_residual[:, :, None, None]
            * v_full[:, None, None, None]
        )
        # Leftover-slack requantization: one flat gather for every entry.
        q_cand = self._fold_q
        np.take(ev_stack, self._take_stack, out=q_cand)
        q_cand *= self._plan_gamma[:, :, None, None]
        q_cand += self._plan_reward[:, :, None, None]
        np.copyto(q_cand, -np.inf, where=self._plan_dead[None])
        return q_cand


def build_worker_mdp(config: WorkerMDPConfig) -> WorkerMDP:
    """Construct a worker MDP from its offline inputs."""
    return WorkerMDP(config)
