"""The per-worker model-selection MDP (§4).

:class:`WorkerMDP` assembles the state space (§4.2), action constraints
(§4.3), rewards (§4.1), and transition kernels (§4.4) for one worker, and
exposes the Bellman backups that the solvers in :mod:`repro.core.solvers`
drive to convergence.  Its kernels come from one batched builder call per
kind of row (full drains, partial-drain arrival counts) over the distinct
service latencies (:mod:`repro.core.transitions`), or, in a stacked bank,
from its load's slice of one call for the whole bank; construction
refuses kernels whose rows do not sum to 1 (Gamma arrivals with shape
< 1 under the split and exact views).

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
- the **policy-induced chain** (:meth:`WorkerMDP.policy_rows`) feeds the
  §5.1 stationary analysis (:mod:`repro.core.guarantees`).

An **action table** is a pair of ``(S,)`` intp arrays ``(model, batch)``
indexed by state id: the model index (``_FALLBACK`` for the forced
fallback, which serves the whole queue) and the batch.  EMPTY reads
``(_FALLBACK, 0)`` and is ignored; FULL reads ``(_FALLBACK, N_w)``.
:meth:`WorkerMDP.policy_of` encodes one into a ``Policy`` and
:meth:`WorkerMDP.action_table` decodes it back.

Exactness contract: the per-action / per-state loop formulation lives in
the test suite as an oracle (``tests/oracles/loop_mdp.py``), and value
iteration here is **float-identical** to it — every candidate Q value is
produced by the same NumPy kernel calls on the same operands, and the
stacked argmax keeps the loop's first-strict-maximum tie-breaking.
``tests/test_solver_equivalence.py`` asserts ``==`` value functions,
equal greedy tables and byte-identical ``Policy.save`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

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
    QuadraturePlan,
    SplitViewKernelBuilder,
    StateSpace,
    gaps_for_distribution,
)
from repro.errors import ConfigurationError, PolicyError
from repro.profiles.models import ModelProfile

if TYPE_CHECKING:  # pragma: no cover - guarantees imports this module
    from repro.core.guarantees import PolicyGuarantees

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

    ``greedy`` is the greedy action table ``(model, batch)`` (see the
    module docstring) when the backup was asked for it, else ``None``.
    ``margin`` is the smallest
    best-minus-runner-up gap of the backed-up Q values over all states
    (``+inf`` where one action is forced, ``0.0`` on an exact tie), which
    value iteration's certified stop reads; ``None`` when the backup does
    not report it (a greedy backup, a duration-aware discount, a dense
    MDP), and the solver then stops by its tolerance alone.
    """

    values: np.ndarray
    greedy: Optional[Tuple[np.ndarray, np.ndarray]] = None
    margin: Optional[float] = None


def _distinct(latencies: Sequence[float]) -> Tuple[List[float], List[int]]:
    """The distinct latencies, keyed by ``round(latency, 9)`` with the
    first latency per key kept, and each input's index into them."""
    slots: Dict[float, int] = {}
    distinct: List[float] = []
    index = []
    for latency in latencies:
        key = round(latency, 9)
        if key not in slots:
            slots[key] = len(distinct)
            distinct.append(latency)
        index.append(slots[key])
    return distinct, index


@dataclass(frozen=True, eq=False)
class _Skeleton:
    """The load-invariant structure of a worker MDP.

    None of it depends on the arrival load (nor on the worker count), so
    a stacked bank (:class:`repro.core.bank.StackedBankMDP`) builds it
    once and shares it across its cells, and a
    :class:`repro.core.generator.PolicyGenerator` shares one across all
    of its banks.  The renewal view's quadrature plans over the distinct
    latencies are built on first use, once per skeleton.
    """

    #: Pareto-pruned models, fastest first (action-index order).
    models: Tuple[ModelProfile, ...]
    grid: TimeGrid
    max_queue: int
    #: ``latency[m, b-1]``: p95 latency of model ``m`` at batch ``b``.
    latency: np.ndarray
    #: Distinct latencies of the full drains ``(m, n)``, and
    #: ``full_index[m, n-1]``, each drain's row among them.
    full_latencies: List[float]
    full_index: np.ndarray
    #: Distinct latencies of the partial drains ``(m, b < N_w)`` that fit
    #: some slack bin (variable batching only), and ``partial_index[m,
    #: b-1]``, each drain's count pmf among them (``-1``: none).
    partial_latencies: List[float]
    partial_index: np.ndarray

    @cached_property
    def service_plan(self) -> QuadraturePlan:
        """Quadrature plan of the renewal full-drain rows."""
        return QuadraturePlan.service(self.grid, self.full_latencies)

    @cached_property
    def count_plan(self) -> QuadraturePlan:
        """Quadrature plan of the renewal arrival-count pmfs."""
        return QuadraturePlan.counts(self.partial_latencies)

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
        full, full_index = _distinct(latency.ravel().tolist())
        partial = np.zeros(latency.shape, dtype=bool)
        if config.batching is BatchingMode.VARIABLE:
            partial[:, :-1] = latency[:, :-1] <= grid.values[-1]
        partial_latencies, index = _distinct(latency[partial].tolist())
        partial_index = np.full(latency.shape, -1, dtype=np.intp)
        partial_index[partial] = index
        return cls(
            tuple(models),
            grid,
            n,
            latency,
            full,
            np.array(full_index, dtype=np.intp).reshape(latency.shape),
            partial_latencies,
            partial_index,
        )


class WorkerMDP:
    """A fully-materialized worker MDP ready for solving.

    Use :func:`build_worker_mdp` (or ``WorkerMDP(config)``) to construct.
    """

    def __init__(self, config: WorkerMDPConfig) -> None:
        self._build(config, _Skeleton.of(config), None)

    @classmethod
    def _cell(
        cls,
        config: WorkerMDPConfig,
        skeleton: _Skeleton,
        kernels: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> "WorkerMDP":
        """A stacked-bank cell on the bank's shared ``skeleton``, with its
        load's slice of the bank's batched kernel call (full-drain rows
        and count pmfs over the skeleton's distinct latencies), or, with
        ``kernels=None``, building its own."""
        cell = cls.__new__(cls)
        cell._build(config, skeleton, kernels)
        return cell

    def _build(
        self,
        config: WorkerMDPConfig,
        skeleton: _Skeleton,
        kernels: Optional[Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        self._config = config
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

        # Transition kernels (§4.4): full-drain rows (per phase under the
        # exact view) and partial-drain count pmfs over the skeleton's
        # distinct latencies, gathered per action.
        self._space = StateSpace(max_queue=n, grid_size=len(self._grid))
        # Per-state queue length and slack (FULL reads (N_w, 0.0)), and
        # the occupied states' policy keys, in state-id order.
        self._state_n = np.concatenate(
            ([0, n], np.repeat(np.arange(1, n + 1), len(self._grid)))
        )
        self._state_slack = np.concatenate(([0.0, 0.0], np.tile(grid_values, n)))
        self._state_keys = [
            (q, j) for q in range(1, n + 1) for j in range(len(self._grid))
        ]
        self._phase_weights: Optional[np.ndarray] = None
        self._full_phase: Optional[np.ndarray] = None
        exact = None
        if config.view is TransitionView.EXACT_ROUND_ROBIN:
            exact = ExactRoundRobinKernelBuilder(
                self._grid, config.arrivals, config.num_workers, n
            )
            self._phase_weights, self._full_phase = self._build_phase_weights(
                exact
            )
        if kernels is None:
            kernels = self._build_kernels(skeleton, exact)
        rows, self._counts = kernels
        self._count_index = skeleton.partial_index
        # (M, N, S) full-drain rows, or (M, N, K, S) per phase.
        self._rows: Optional[np.ndarray] = None
        self._rows_by_phase: Optional[np.ndarray] = None
        if exact is None:
            self._rows = rows[skeleton.full_index]
        else:
            self._rows_by_phase = rows[skeleton.full_index]

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
        worst = _worst_row_sum(self)
        if abs(worst - 1.0) > _ROW_SUM_SLACK:
            raise ConfigurationError(
                f"TransitionView.{config.view.name} builds no stochastic "
                f"kernel for {config.arrivals!r}: a transition row sums to "
                f"{worst!r}; use TransitionView.ROUND_ROBIN_MARGINAL for "
                "this arrival family"
            )
        # The one-cell optimality kernel, built on the first backup.
        self._kernel: Optional[BellmanKernel] = None

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
    def _build_kernels(
        self, skeleton: _Skeleton, exact: Optional[ExactRoundRobinKernelBuilder]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Full-drain rows and count pmfs over the skeleton's distinct
        latencies, one builder call each."""
        full, partial = skeleton.full_latencies, skeleton.partial_latencies
        if exact is not None:
            return exact.service_rows(full), exact.count_rows(partial)
        config = self._config
        if config.view is TransitionView.POISSON_SPLIT:
            split = SplitViewKernelBuilder(
                self._grid, config.per_worker_arrivals(), self._max_queue
            )
            return split.service_rows(full), split.count_rows(partial)
        renewal = EquilibriumRenewalKernelBuilder(
            self._grid,
            gaps_for_distribution(config.per_worker_arrivals()),
            self._max_queue,
        )
        # A one-load gap model: take its only load.
        return (
            renewal.service_rows(skeleton.service_plan)[:, 0],
            renewal.count_rows(skeleton.count_plan)[:, 0],
        )

    def _build_phase_weights(
        self, exact: ExactRoundRobinKernelBuilder
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(N, J, K) phase distributions for every occupied state, and the
        FULL state's (K,) weights."""
        n_max, j_count = self._max_queue, len(self._grid)
        weights = np.zeros((n_max, j_count, exact.num_workers), dtype=np.float64)
        for j in range(j_count):
            # One batched pmf evaluation covers all queue lengths at this
            # slack (bit-identical to per-(n, j) phase_weights calls).
            weights[:, j, :] = exact.phase_weights_table(n_max, self._grid[j])
        return weights, exact.phase_weights(n_max, 0.0)

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
                counts = self._counts[self._count_index[m, b - 1]]  # (N + 1,)
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
        per state, used for policy extraction, and otherwise the kernel's
        greedy margin (see :class:`BackupResult`).
        """
        kernel = self._kernel
        if kernel is None:
            kernel = self._kernel = BellmanKernel([self])
        if want_greedy:
            new_values, model, batch = kernel.greedy(values[None])
            return BackupResult(
                values=new_values[0].copy(), greedy=(model[0], batch[0])
            )
        new_values = kernel.sweep(values[None], (0,))
        margin = None if kernel.margins is None else float(kernel.margins[0])
        return BackupResult(values=new_values[0].copy(), margin=margin)

    # ------------------------------------------------------------------
    # Per-(state, action) terms and the policy-induced chain
    # ------------------------------------------------------------------
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
        if b == n:
            if self._rows is not None:
                return self._rows[m, n - 1]
            weights = (
                self._full_phase
                if state_id == space.FULL
                else self._phase_weights[n - 1, j]
            )
            return weights @ self._rows_by_phase[m, n - 1]
        # Partial drain: the earliest remaining deadline is the conservative
        # closure T_j - l (DESIGN.md §3), which lower-bounds the true
        # leftover slack and is never later than any new arrival's deadline,
        # so the next slack bin is deterministic; only the arrival count is
        # random.
        index = self._count_index[m, b - 1]
        if index < 0:
            raise ConfigurationError(
                f"partial drain {(m, b)} has no arrival counts: only variable "
                "batching builds them, for latencies that fit a slack bin"
            )
        counts = self._counts[index]
        slack = 0.0 if state_id == space.FULL else self._grid[j]
        j_left = self._grid.floor_index(slack - self._latency[m, b - 1])
        row = np.zeros(space.size)
        for k in range(self._max_queue - (n - b) + 1):
            row[space.index(n - b + k, j_left)] = counts[k]
        row[space.FULL] = max(0.0, 1.0 - row.sum())
        return row

    def policy_rows(self, model: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """The ``(S, S)`` transition matrix of the chain an action table
        ``(model, batch)`` induces.

        Full drains under a split-family view gather their rows from the
        precomputed ``(M, N, S)`` row bank, and drop-mode fallbacks are
        one-hot rows to EMPTY, both with array operations; partial drains
        and the exact view's per-state phase mixtures go through
        :meth:`transition_row`, so each reduction keeps its one-state
        operand shapes.
        """
        space = self._space
        size = space.size
        rows = np.zeros((size, size), dtype=np.float64)
        rows[space.EMPTY, space.index(1, self._grid.slo_index)] = 1.0
        ids = np.arange(1, size)
        m, b, n = model[1:], batch[1:], self._state_n[1:]
        late = m == _FALLBACK
        if self._config.drop_late:
            rows[ids[late], space.EMPTY] = 1.0
            ids, m, b, n = ids[~late], m[~late], b[~late], n[~late]
        else:
            m, b = np.where(late, 0, m), np.where(late, n, b)
        if self._rows is not None:
            full = b == n
            rows[ids[full]] = self._rows[m[full], n[full] - 1]
            ids = ids[~full]
        for state_id in ids.tolist():
            rows[state_id] = self.transition_row(
                state_id, (int(model[state_id]), int(batch[state_id]))
            )
        return rows

    def action_terms(
        self, model: np.ndarray, batch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-state §5.1 ``(queries served, accuracy, SLO satisfied)``
        of an action table; the fallback serves the whole queue late."""
        late = model == _FALLBACK
        m = np.where(late, 0, model)
        b = np.where(late, self._state_n, batch)
        queries = b.astype(np.float64)
        accuracy = np.where(late, 0.0, self._accuracy[m])
        satisfied = ~late & (self._latency[m, b - 1] <= self._state_slack)
        return queries, accuracy, satisfied

    # ------------------------------------------------------------------
    # Policy encoding and decoding
    # ------------------------------------------------------------------
    def extract_policy(self, values: np.ndarray) -> Policy:
        """Greedy policy for ``values``, packaged for online use."""
        return self.policy_of(*self.backup(values, want_greedy=True).greedy)

    def policy_of(
        self,
        model: np.ndarray,
        batch: np.ndarray,
        guarantees: Optional["PolicyGuarantees"] = None,
    ) -> Policy:
        """Package an action table ``(model, batch)`` as a :class:`Policy`.

        ``guarantees`` fills the metadata's ``expected_*`` fields.
        """
        names = self.model_names
        pairs = list(zip(model[2:].tolist(), batch[2:].tolist()))
        made = {
            (m, b): Action(names[max(m, 0)], b, is_late=m == _FALLBACK)
            for m, b in set(pairs)
        }
        actions = dict(zip(self._state_keys, map(made.__getitem__, pairs)))
        cfg = self._config
        metadata = PolicyMetadata(
            task=cfg.model_set.task,
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
        if guarantees is not None:
            metadata = replace(
                metadata,
                expected_accuracy=guarantees.expected_accuracy,
                expected_violation_rate=guarantees.expected_violation_rate,
            )
        return Policy(
            grid=self._grid,
            max_queue=self._max_queue,
            actions=actions,
            metadata=metadata,
        )

    def action_table(self, policy: Policy) -> Tuple[np.ndarray, np.ndarray]:
        """Decode ``policy`` into this MDP's action table ``(model, batch)``.

        Raises :class:`~repro.errors.PolicyError` naming every mismatch
        when the policy was made for another state space or model set:
        its SLO, grid values or ``max_queue`` differ from this MDP's, or
        its actions name models this MDP does not have.
        """
        theirs, mine = policy.grid, self._grid
        index = {name: i for i, name in enumerate(self.model_names)}
        actions = policy.states()
        foreign = sorted({a.model for a in actions.values()} - index.keys())
        mismatches = []
        if theirs.slo_ms != mine.slo_ms:
            mismatches.append(f"SLO {theirs.slo_ms:g} ms, not {mine.slo_ms:g} ms")
        if theirs.values != mine.values:
            mismatches.append(f"grid values ({len(theirs)}, not {len(mine)})")
        if policy.max_queue != self._max_queue:
            mismatches.append(f"max_queue {policy.max_queue}, not {self._max_queue}")
        if foreign:
            mismatches.append(f"models {foreign} not among {list(index)}")
        if mismatches:
            raise PolicyError("policy does not fit this MDP: " + "; ".join(mismatches))
        encode = {
            a: (_FALLBACK if a.is_late else index[a.model], a.batch_size)
            for a in set(actions.values())
        }
        table = [(_FALLBACK, 0), (_FALLBACK, self._max_queue)]
        table += [encode[actions[key]] for key in self._state_keys]
        model, batch = np.array(table, dtype=np.intp).T
        return model, batch

    def initial_values(self) -> np.ndarray:
        """Zero value vector of the right shape."""
        return np.zeros(self._space.size, dtype=np.float64)


#: Largest ``|row sum - 1|`` of a built MDP's transition data.  The
#: certified stop's span bound needs stochastic rows (shifting ``V`` by a
#: constant ``c`` must shift every Q value by ``gamma * c``); stochastic
#: rows miss 1 by a few ulps.
_ROW_SUM_SLACK = 1e-13


def _worst_row_sum(cell: WorkerMDP) -> float:
    """The row sum farthest from 1 over a cell's transition data:
    full-drain rows (per phase, and the phase weights, under the exact
    view) and partial-drain counts plus their overflow mass."""
    if cell._rows is not None:
        sums = [cell._rows.sum(axis=-1)]
    else:
        sums = [
            cell._rows_by_phase.sum(axis=-1),
            cell._phase_weights.sum(axis=-1),
            cell._full_phase.sum(),
        ]
    sums.append(cell._plan_residual + [c.sum() for c in cell._plan_counts])
    flat = np.concatenate([np.ravel(x) for x in sums])
    return float(flat[np.argmax(np.abs(flat - 1.0))])


class BellmanKernel:
    """The Bellman optimality backup over a stack of worker MDPs.

    Built from cells that share every load-invariant input (models, grid,
    SLO, batching, view, extensions) and differ only in their arrival
    load: one cell for :meth:`WorkerMDP.backup`, a whole load grid for
    :class:`repro.core.bank.StackedBankMDP`.  The load-dependent arrays
    are stacked into ``(L, ...)`` layouts; :meth:`sweep` backs up every
    active load and :meth:`greedy` adds each load's argmax action table.

    Under one discount for every transition, :meth:`sweep` also leaves
    each load's greedy margin in :attr:`margins`: the smallest gap, over
    all states, between the best candidate Q value (every valid full
    drain, the forced fallback where none is valid, every applicable
    partial drain) and the runner-up, counted with multiplicity so an
    exact tie reads ``0.0``; a state with a single candidate reads
    ``+inf``, as do EMPTY and FULL, which are forced.  Both terms are
    candidate values themselves (max selects, never rounds), so a load's
    margin is bitwise the same in whatever stack it sits.  The span bound
    that turns a margin into a certificate needs one ``gamma`` and
    transition rows that sum to 1 (every built MDP's do, to within
    ``_ROW_SUM_SLACK``), so duration-aware discounts leave :attr:`margins`
    ``None``.

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

        # Greedy margins (see the class docstring) and their buffers.
        self.margins: Optional[np.ndarray] = (
            None if cfg.duration_aware_discount else np.empty(loads)
        )
        self._n_valid = self._valid.sum(axis=0)  # (N, J)
        self._below = np.empty((loads, m_count, n_max, j_count), dtype=bool)
        self._second = np.empty((loads, n_max, j_count))

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
            # ev_stack[l, p, max(n, b_p), jmap[p, j]], resolved once into
            # one fancy-index array so each sweep is a single ``take``.
            # Rows below ``b_p`` are never written; their candidates are
            # dead, so they read row ``b_p`` instead and are masked.
            rows = np.maximum(
                np.arange(n_max, dtype=np.intp), self._plan_b[:, None]
            )
            self._take_stack = (
                (
                    np.arange(loads * p_count, dtype=np.intp).reshape(
                        loads, p_count, 1, 1
                    )
                    * n_max
                    + rows[:, :, None]
                )
                * j_count
                + first._plan_jmap[None, :, None, :]
            )
            self._fold_vpad = np.empty((loads, 2 * n_max + 1, j_count))
            self._fold_ev = np.empty(
                (loads, self._p_count, n_max, j_count)
            )
            self._fold_q = np.empty_like(self._fold_ev)
            self._fold_below = np.empty(self._fold_q.shape, dtype=bool)

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
        overwrites, and refreshes :attr:`margins` for the Q values of
        ``values``.  Inactive (converged) loads skip their reductions; the
        batched elementwise passes still touch their rows and margins,
        which are stale and must not be read.
        """
        self._backup(values, active, greedy=False)
        return self._new_values

    def greedy(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backup of every load plus each load's greedy action table.

        Returns the ``(L, S)`` values and the ``(L, S)`` ``model`` and
        ``batch`` arrays of every load's action table (see the module
        docstring).  Ties go to the first maximum — the lowest
        model index among full drains, then the full-drain best ahead of
        the partial drains in plan order — which is the strict ``>``
        update order of a sequential per-action fold.
        """
        model, batch = self._backup(values, range(self._loads), greedy=True)
        space = self._space
        tables = np.empty((2, self._loads, space.size), dtype=np.intp)
        tables[0, :, 2:] = model.reshape(self._loads, -1)
        tables[1, :, 2:] = batch.reshape(self._loads, -1)
        tables[:, :, space.EMPTY] = ((_FALLBACK,), (0,))
        tables[:, :, space.FULL] = ((_FALLBACK,), (self._n_max,))
        return self._new_values, tables[0], tables[1]

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
        margins = self.margins is not None and not greedy
        if margins:
            # Runner-up full drain: the best valid Q strictly below the
            # best, or the best itself when two valid models tie on it.
            below = np.less(self._q, self._best[:, None], out=self._below)
            below &= self._valid[None]
            second = np.max(
                self._q, axis=1, where=below, initial=-np.inf,
                out=self._second,
            )
            tie = self._n_valid - np.count_nonzero(below, axis=1) >= 2
            np.copyto(second, self._best, where=tie)

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
            part_best = q_cand.max(axis=1)
            if margins:
                # The partial drains' own runner-up (dead entries are
                # -inf), then the runner-up of the union with the full
                # drains: the lesser of the two bests, or either side's
                # own runner-up.
                below = np.less(
                    q_cand, part_best[:, None], out=self._fold_below
                )
                part_second = np.max(q_cand, axis=1, where=below, initial=-np.inf)
                tie = self._p_count - np.count_nonzero(below, axis=1) >= 2
                np.copyto(part_second, part_best, where=tie)
                np.maximum(second, part_second, out=second)
                np.maximum(
                    second, np.minimum(part_best, self._best), out=second
                )
            # Float max is exact, so this equals the winner's value.
            np.maximum(part_best, self._best, out=self._best)
        if margins:
            np.subtract(self._best, second, out=second)
            np.min(second.reshape(self._loads, -1), axis=1, out=self.margins)

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
        # Leftover-slack requantization: one flat gather for every entry.
        q_cand = self._fold_q
        np.take(ev_stack, self._take_stack, out=q_cand)
        # Overflow tail mass (exact: adds 0.0 where residual is 0).  It is
        # constant along (n, j), so adding it after the gather gives the
        # same sums and leaves ``ev_stack`` as its last sweep wrote it.
        q_cand += (
            self._plan_residual[:, :, None, None]
            * v_full[:, None, None, None]
        )
        q_cand *= self._plan_gamma[:, :, None, None]
        q_cand += self._plan_reward[:, :, None, None]
        np.copyto(q_cand, -np.inf, where=self._plan_dead[None])
        return q_cand


def build_worker_mdp(config: WorkerMDPConfig) -> WorkerMDP:
    """Construct a worker MDP from its offline inputs."""
    return WorkerMDP(config)
