"""Worker-MDP transition probabilities (§4.4, Appendix I).

A service action ``a = (m, b)`` taken in state ``s = (n, T_j)`` occupies the
worker for the profiled latency ``l = l_w(m, b)``.  The next state is
determined by (I) how many queries arrive at the worker during ``l`` and
(II) *when* the first of them arrives — the first arrival after the decision
defines the earliest deadline, hence the slack bin, of the next state.

The paper decomposes ``l`` into intervals (Fig. 4):

- **B** ``[0, T_B)``: before the first arrival's slack window — zero worker
  arrivals allowed;
- **C** ``[T_B, T_B + T_C)``: the window in which the first worker arrival
  must land for the next slack to quantize to bin ``j'``;
- **D** ``[T_B + T_C, l]``: the remainder, absorbing the rest of the
  arrivals.

For a next state ``(n', T_{j'})`` the window is the set of first-arrival
times ``u`` with ``T_{j'} <= SLO - (l - u) < T_{j'+1}``, intersected with
``[0, l]``; exactly the paper's ``T_B = max(0, l + T_{j'} - SLO)`` etc.

Three builders implement the views (see
:class:`repro.core.config.TransitionView`):

- :class:`SplitViewKernelBuilder` — the worker's arrival process is the
  arrival family at ``load / K``.  Exact for ``K = 1``: with one worker the
  round-robin phase is degenerate and the interval-A conditioning of Eq. 2
  cancels between numerator and denominator, so transition rows do not
  depend on the current slack at all — only on ``(m, b, n)``.
- :class:`EquilibriumRenewalKernelBuilder` — the worker's round-robin
  marginal as a renewal process, over one or many loads at once.
- :class:`ExactRoundRobinKernelBuilder` — the paper's Eq. 2 in full: the
  worker receives every K-th central-queue arrival, transition rows are
  conditioned on the round-robin *phase* ``r = k_A % K``, and the phase
  distribution is inferred from interval A (the time the earliest queued
  query has already spent waiting).

Every builder has one batched method per kind of row, each over a list
of latencies (under the renewal view, or their :class:`QuadraturePlan`)
and holding no cache: ``service_rows`` (full-drain rows; per phase
under the exact view, per load under the renewal view) and
``count_rows`` (the arrival-count pmfs a partial drain reads).
:class:`repro.core.mdp.WorkerMDP` calls each once and writes the
partial-drain rows itself.

Shortest-queue-first balancing (Appendix I) reuses the split-view builder
with the conditional per-worker rate of Gupta et al. [18]; see
:func:`repro.balancers.sqf_worker_rate_qps`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution
from repro.core.discretization import TimeGrid

__all__ = [
    "StateSpace",
    "SplitViewKernelBuilder",
    "EquilibriumRenewalKernelBuilder",
    "ExactRoundRobinKernelBuilder",
    "QuadraturePlan",
    "RenewalGaps",
    "GammaGaps",
    "DeterministicGaps",
    "gaps_for_distribution",
    "gamma_cdfs",
]

#: Probability mass below which kernel entries are treated as exactly zero.
_MASS_EPSILON = 1e-12

#: Gauss-Legendre rules of the renewal builder, computed once per process:
#: 8 points per slack window, 64 for whole-service count integrals.
_WINDOW_NODES, _WINDOW_WEIGHTS = np.polynomial.legendre.leggauss(8)
_COUNT_NODES, _COUNT_WEIGHTS = np.polynomial.legendre.leggauss(64)

#: Largest ``x`` the Poisson-sum recurrence of :func:`gamma_cdfs` takes:
#: its first term ``exp(-x)`` is still a normal double here (it turns
#: subnormal past ~708 and underflows to 0.0 past ~745, which would read
#: as ``P = 1``); larger ``x`` goes to ``gammainc``.
_POISSON_SUM_MAX_X = 700.0

#: Quadrature nodes times loads one batched renewal-kernel pass evaluates.
_KERNEL_BLOCK = 1 << 14


def gamma_cdfs(orders: Sequence[float], x: np.ndarray) -> np.ndarray:
    """``gammainc(s, x)`` for every ``s`` in ascending ``orders`` at once.

    Returns an array of shape ``(len(orders),) + x.shape``.  When every
    order is an integer (Erlang CDFs), the rows come from one running
    Poisson-term recurrence ``P(s, x) = 1 - e^{-x} sum_{i<s} x^i / i!``
    (each term is the previous one times ``x / i``), which agrees with
    ``gammainc`` to ~1e-14 absolute (``tests/test_core_transitions.py``
    gates it at 1e-13).
    Non-integer orders, and elements with ``x`` past
    ``_POISSON_SUM_MAX_X``, are evaluated by ``gammainc``.  Every step is
    elementwise in ``x``, so batching ``x`` (e.g. across loads) cannot
    change a bit of any element.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    orders = [float(s) for s in orders]
    shape = (len(orders),) + x.shape
    if not all(s.is_integer() for s in orders):
        from scipy.special import gammainc

        return gammainc(np.array(orders)[:, None], flat[None]).reshape(shape)
    # Term i is e^{-x} x^i / i! = term i-1 times x / i; row r is 1 minus
    # the running sum of the terms i < orders[r].
    rows = [int(s) - 1 for s in orders]
    out = np.empty((len(rows), flat.size), dtype=np.float64)
    term = np.exp(-flat)
    total = term.copy()
    i = 1
    for r, last in enumerate(rows):
        while i <= last:
            term *= flat / i
            total += term
            i += 1
        np.subtract(1.0, total, out=out[r])
    np.maximum(out, 0.0, out=out)  # rounding can push the sum past 1
    if flat.size and flat.max() > _POISSON_SUM_MAX_X:
        from scipy.special import gammainc

        far = flat > _POISSON_SUM_MAX_X
        out[:, far] = gammainc(np.array(orders)[:, None], flat[far][None])
    return out.reshape(shape)


def _count_pmf(cdfs: np.ndarray) -> np.ndarray:
    """Renewal count pmf from k-fold gap-sum CDFs.

    ``cdfs[k - 1]`` is the CDF of ``k`` gaps (``k = 1..n``) on the leading
    axis; returns ``pmf[a] = P[exactly a arrivals]`` for ``a = 0..n - 1``
    on the same axis.  Elementwise in every trailing axis.
    """
    pmf = np.empty_like(cdfs)
    pmf[0] = 1.0 - cdfs[0]
    pmf[1:] = cdfs[:-1] - cdfs[1:]
    return np.clip(pmf, 0.0, 1.0, out=pmf)


@dataclass(frozen=True)
class StateSpace:
    """Index layout of a worker MDP's states.

    - index 0: the empty-queue state (``n = 0``; slack unconstrained) —
      the paper's ``(0, T_j)`` states collapse to one because the only
      action there is the arrival action (§4.3.4, Eq. 1);
    - index 1: the special full-queue state ``(phi, 0)`` (§4.2.3);
    - indices ``2 ..``: occupied states ``(n, j)`` for ``n`` in
      ``1..max_queue`` and ``j`` in ``0..len(grid)-1``, row-major in ``n``.
    """

    max_queue: int
    grid_size: int

    EMPTY: int = 0
    FULL: int = 1

    @property
    def size(self) -> int:
        """Total number of states."""
        return 2 + self.max_queue * self.grid_size

    def index(self, n: int, j: int) -> int:
        """State id of occupied state ``(n, j)``."""
        if not 1 <= n <= self.max_queue:
            raise ValueError(f"queue length {n} outside [1, {self.max_queue}]")
        if not 0 <= j < self.grid_size:
            raise ValueError(f"grid index {j} outside [0, {self.grid_size})")
        return 2 + (n - 1) * self.grid_size + j

    def decode(self, state_id: int) -> Tuple[int, int]:
        """Inverse of :meth:`index`; EMPTY decodes to ``(0, -1)`` and FULL
        to ``(max_queue, 0)`` (its §4.2.3 transition-equivalent)."""
        if state_id == self.EMPTY:
            return (0, -1)
        if state_id == self.FULL:
            return (self.max_queue, 0)
        offset = state_id - 2
        if not 0 <= offset < self.max_queue * self.grid_size:
            raise ValueError(f"state id {state_id} out of range")
        return (offset // self.grid_size + 1, offset % self.grid_size)

    def occupied_view(self, vector: np.ndarray) -> np.ndarray:
        """Reshape the occupied block of a state vector to ``(N, J)``."""
        return vector[2:].reshape(self.max_queue, self.grid_size)


def _service_windows(
    grid: TimeGrid, latency_ms: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per next-slack-bin interval lengths ``(T_B, T_C, T_D)``.

    Bin ``j'`` corresponds to first-arrival times in
    ``[T_j' + l - SLO, T_{j'+1} + l - SLO)`` clamped to ``[0, l]``.
    """
    values = grid.as_array()
    uppers = np.append(values[1:], grid.slo_ms)  # == grid.upper(j) per bin
    lo = np.clip(values + latency_ms - grid.slo_ms, 0.0, latency_ms)
    hi = np.clip(uppers + latency_ms - grid.slo_ms, 0.0, latency_ms)
    # Bin 0 also absorbs *negative* slack: when the service outlasts the
    # SLO (a forced late action, §4.3.1), arrivals in [0, l - SLO) have
    # already missed their deadlines and quantize to slack 0.
    lo[0] = 0.0
    hi = np.maximum(hi, lo)
    return lo, hi - lo, latency_ms - hi


@dataclass(frozen=True, eq=False)
class QuadraturePlan:
    """The load-invariant quadrature geometry of renewal rows.

    Gauss-Legendre windows over a list of latencies, window-major: window
    ``k`` owns nodes ``k * nodes`` to ``(k + 1) * nodes`` of ``u`` (first-
    arrival times), ``weights`` and ``left`` (``latency - u``), and fills
    row ``row[k]`` (its latency's index) at slack bin ``column[k]``
    (always 0 in a count plan).
    Nothing here depends on the arrival load, so a worker MDP skeleton
    builds its plans once for every load it is solved at.
    """

    latencies: Tuple[float, ...]
    nodes: int
    u: np.ndarray
    weights: np.ndarray
    left: np.ndarray
    row: np.ndarray
    column: np.ndarray

    @property
    def windows(self) -> int:
        """Number of quadrature windows."""
        return self.row.size

    @classmethod
    def service(cls, grid: TimeGrid, latencies: Sequence[float]) -> "QuadraturePlan":
        """8-point windows over each latency's live next-slack bins
        (:func:`_service_windows`) — the full-drain rows' integrals."""
        parts, rows, columns = [], [], []
        for j, latency_ms in enumerate(latencies):
            lo, width, _ = _service_windows(grid, latency_ms)
            live = np.nonzero(width > 0.0)[0]
            # Gauss-Legendre nodes for every live window at once: (W, Q).
            half = 0.5 * width[live]
            u = lo[live][:, None] + half[:, None] * (_WINDOW_NODES[None, :] + 1.0)
            parts.append((latency_ms, u, _WINDOW_WEIGHTS[None, :] * half[:, None]))
            rows.append(np.full(live.size, j))
            columns.append(live)
        return cls._of(latencies, _WINDOW_NODES.size, parts, rows, columns)

    @classmethod
    def counts(cls, latencies: Sequence[float]) -> "QuadraturePlan":
        """One 64-point window over each positive latency's whole service
        — the arrival-count pmfs' integrals."""
        parts, rows = [], []
        for j, latency_ms in enumerate(latencies):
            if latency_ms > 0.0:
                half = 0.5 * latency_ms
                parts.append(
                    (latency_ms, half * (_COUNT_NODES + 1.0), _COUNT_WEIGHTS * half)
                )
                rows.append([j])
        return cls._of(latencies, _COUNT_NODES.size, parts, rows, [[0]] * len(rows))

    @classmethod
    def _of(cls, latencies, nodes, parts, rows, columns) -> "QuadraturePlan":
        """Concatenate per-latency ``(latency, u, w)`` parts."""

        def flat(arrays, dtype=np.float64) -> np.ndarray:
            return np.concatenate(
                [np.ravel(a) for a in arrays] or [np.zeros(0)]
            ).astype(dtype, copy=False)

        return cls(
            tuple(latencies),
            nodes,
            flat(u for _, u, _ in parts),
            flat(w for _, _, w in parts),
            flat(latency - u for latency, u, _ in parts),
            flat(rows, np.intp),
            flat(columns, np.intp),
        )


class SplitViewKernelBuilder:
    """Transition rows under the per-worker split view.

    Full-drain rows are keyed by the service latency ``l`` alone; they do
    not depend on the current state's slack (see module docstring).
    """

    def __init__(
        self,
        grid: TimeGrid,
        worker_arrivals: ArrivalDistribution,
        max_queue: int,
    ) -> None:
        self._grid = grid
        self._arrivals = worker_arrivals
        self._space = StateSpace(max_queue=max_queue, grid_size=len(grid))

    @property
    def space(self) -> StateSpace:
        """The state space the kernels are laid out over."""
        return self._space

    def service_rows(self, latencies: Sequence[float]) -> np.ndarray:
        """``(len(latencies), S)`` transition rows after draining the whole
        queue (maximal batching, Eq. 2 with ``b = n``) in each latency.

        Each row is a probability vector over the full state space:
        ``P[EMPTY]`` is zero arrivals, occupied entries follow the
        B/C/D window decomposition, and ``P[FULL]`` absorbs the truncated
        tail (Eq. 3).
        """
        space = self._space
        n_max = space.max_queue
        rows = np.zeros((len(latencies), space.size), dtype=np.float64)
        for row, latency_ms in zip(rows, latencies):
            row[space.EMPTY] = self._arrivals.pmf(0, latency_ms)
            t_b, t_c, t_d = _service_windows(self._grid, latency_ms)
            occupied = space.occupied_view(row)  # (N, J) view into `row`
            live = np.nonzero(t_c > 0.0)[0]
            if live.size:
                # One batched pmf evaluation per window family; each matrix
                # row is bit-identical to the per-bin pmf_vector call.
                p_b0s = self._arrivals.pmf_matrix(0, t_b[live])[:, 0]
                pmf_cs = self._arrivals.pmf_matrix(n_max, t_c[live])
                pmf_ds = self._arrivals.pmf_matrix(n_max, t_d[live])
                for i, j in enumerate(live):
                    p_b0 = p_b0s[i]
                    if p_b0 <= _MASS_EPSILON:
                        continue
                    conv = np.convolve(pmf_cs[i], pmf_ds[i])[: n_max + 1]
                    # k_C >= 1: subtract the k_C = 0 term of the convolution.
                    probs = p_b0 * (conv - pmf_cs[i][0] * pmf_ds[i])
                    occupied[:, j] = np.maximum(probs[1:], 0.0)
            row[space.FULL] = max(0.0, 1.0 - row.sum())
        return rows

    def count_rows(self, latencies: Sequence[float]) -> np.ndarray:
        """``(len(latencies), max_queue + 1)`` pmfs ``P[k arrivals during
        latency]`` for ``k = 0..max_queue``; each row's missing mass is the
        overflow-to-FULL probability of a partial drain."""
        counts = np.zeros(
            (len(latencies), self._space.max_queue + 1), dtype=np.float64
        )
        for row, latency_ms in zip(counts, latencies):
            row[:] = self._arrivals.pmf_vector(self._space.max_queue, latency_ms)
        return counts


def _per_load(values: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a ``(L,)`` per-load array to broadcast over ``ndim`` axes."""
    return values.reshape(values.shape + (1,) * ndim)


class RenewalGaps:
    """Inter-arrival gap distribution of a worker's renewal arrival process.

    One instance covers ``loads`` arrival loads of one family at once: a
    worker MDP passes scalar parameters (``loads == 1``), a stacked policy
    bank passes per-load parameter arrays.  The equilibrium-renewal kernel
    builder needs these primitives, each with a load axis:

    - ``gap_cdf(u)``: CDF of one gap, ``(loads,) + u.shape``;
    - ``kfold_cdfs(n, t)``: CDFs of the sums of ``k = 1..n`` i.i.d. gaps,
      ``(n, loads) + t.shape``;
    - ``equilibrium_cdf(t)``: CDF of the forward recurrence time (time to
      the next arrival seen from an arbitrary time point),
      ``(1/mean) int_0^t (1-F)``, ``(loads,) + t.shape``;
    - ``mean_ms``: the mean gap (``_means`` holds it per load).

    Every primitive is elementwise in the per-load parameters, so a load's
    slice is bitwise what a one-load instance computes.
    """

    mean_ms: float
    _means: np.ndarray

    @property
    def loads(self) -> int:
        """Number of arrival loads evaluated at once."""
        return self._means.size

    def gap_cdf(self, u: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def kfold_cdfs(self, n: int, t: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def equilibrium_cdf(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def equilibrium_density(self, u: np.ndarray) -> np.ndarray:
        """Density of the forward recurrence time: ``(1 - F(u)) / mean``."""
        u = np.asarray(u, dtype=np.float64)
        return (1.0 - self.gap_cdf(u)) / _per_load(self._means, u.ndim)


class GammaGaps(RenewalGaps):
    """Gamma(shape, scale) gaps — Erlang when ``shape`` is an integer.

    Round-robin thinning of a Poisson process with ``K`` workers yields
    Erlang(``K``) worker gaps; thinning a Gamma(``a``) renewal process
    yields Gamma(``a * K``) gaps.  ``shape = 1`` is the Poisson worker.
    ``scale_ms`` may be an array of per-load scales (one shared shape).
    """

    def __init__(self, shape: float, scale_ms: Union[float, np.ndarray]) -> None:
        scales = np.atleast_1d(np.asarray(scale_ms, dtype=np.float64))
        if shape <= 0 or not (scales > 0).all():
            raise ValueError("shape and scale_ms must be > 0")
        self.shape = float(shape)
        self.scale_ms = float(scale_ms) if np.ndim(scale_ms) == 0 else scales
        self.mean_ms = self.shape * self.scale_ms
        self._scales = scales
        self._means = self.shape * scales

    def _x(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        return np.maximum(t, 0.0)[None] / _per_load(self._scales, t.ndim)

    def gap_cdf(self, u: np.ndarray) -> np.ndarray:
        return gamma_cdfs((self.shape,), self._x(u))[0]

    def kfold_cdfs(self, n: int, t: np.ndarray) -> np.ndarray:
        return gamma_cdfs(self.shape * np.arange(1, n + 1), self._x(t))

    def equilibrium_cdf(self, t: np.ndarray) -> np.ndarray:
        # int_0^t (1 - F) = t - t F(t) + shape*scale*F_{shape+1}(t); / mean.
        t = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        cdf, cdf_next = gamma_cdfs((self.shape, self.shape + 1.0), self._x(t))
        means = _per_load(self._means, t.ndim)
        return np.minimum((t - t * cdf + means * cdf_next) / means, 1.0)


class DeterministicGaps(RenewalGaps):
    """Fixed inter-arrival gaps — the zero-burstiness limit.

    ``gap_ms`` may be an array of per-load gaps.
    """

    def __init__(self, gap_ms: Union[float, np.ndarray]) -> None:
        gaps = np.atleast_1d(np.asarray(gap_ms, dtype=np.float64))
        if not (gaps > 0).all():
            raise ValueError("gap_ms must be > 0")
        self.gap_ms = float(gap_ms) if np.ndim(gap_ms) == 0 else gaps
        self.mean_ms = self.gap_ms
        self._means = gaps

    def gap_cdf(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        return (u[None] >= _per_load(self._means, u.ndim)).astype(np.float64)

    def kfold_cdfs(self, n: int, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        sums = np.arange(1, n + 1)[:, None] * self._means[None, :]  # (n, L)
        return (t[None, None] >= _per_load(sums, t.ndim)).astype(np.float64)

    def equilibrium_cdf(self, t: np.ndarray) -> np.ndarray:
        t = np.maximum(np.asarray(t, dtype=np.float64), 0.0)
        return np.minimum(t[None] / _per_load(self._means, t.ndim), 1.0)


def gaps_for_distribution(distribution: ArrivalDistribution) -> RenewalGaps:
    """Gap model of a per-worker arrival distribution.

    Poisson maps to exponential gaps (Gamma shape 1), Gamma to Gamma gaps,
    deterministic to fixed gaps.
    """
    from repro.arrivals.distributions import (
        DeterministicArrivals,
        GammaArrivals,
        PoissonArrivals,
    )

    if isinstance(distribution, GammaArrivals):
        return GammaGaps(
            shape=distribution.shape,
            scale_ms=distribution.mean_interarrival_ms / distribution.shape,
        )
    if isinstance(distribution, PoissonArrivals):
        return GammaGaps(shape=1.0, scale_ms=distribution.mean_interarrival_ms)
    if isinstance(distribution, DeterministicArrivals):
        return DeterministicGaps(distribution.mean_interarrival_ms)
    raise TypeError(
        f"no renewal-gap model for {type(distribution).__name__}; "
        "use the POISSON_SPLIT or EXACT_ROUND_ROBIN view instead"
    )


class EquilibriumRenewalKernelBuilder:
    """Transition rows for a worker whose arrivals form a renewal process.

    Used by the ``ROUND_ROBIN_MARGINAL`` view: round-robin thinning of the
    central arrival process gives each worker a *renewal* process (Erlang
    gaps for a Poisson central queue), whose increments are **not**
    independent — the naive product form of Eq. 2 does not apply.  Instead,
    rows are computed from the renewal structure directly:

    - the first arrival after a decision epoch has the *equilibrium*
      (forward-recurrence) distribution ``f_e(u) = (1 - F(u)) / mean`` —
      the stationary-phase analogue of the paper's interval-A phase
      conditioning;
    - subsequent arrivals renew with ordinary gaps, so the count of further
      arrivals in the remaining ``l - u`` has pmf
      ``F_{k}(l-u) - F_{k+1}(l-u)``.

    ``P[n' = a, slack bin j']`` is the window integral
    ``int_W f_e(u) * (F_{a-1}(l-u) - F_a(l-u)) du`` evaluated with
    Gauss-Legendre quadrature per window (exact window geometry, smooth
    integrands).  For exponential gaps this reproduces the Poisson split
    view exactly (memorylessness), which the test suite asserts.

    :meth:`service_rows` and :meth:`count_rows` build the rows of many
    latencies, and, with a gap model over several loads (a stacked policy
    bank), of every load, in batched passes.  The window geometry of
    those latencies is a :class:`QuadraturePlan`, which holds nothing
    load-dependent: a worker MDP skeleton builds its plans once and
    passes them in place of the latencies at every load.  Each block of
    the plan's windows is contracted once, over all of its windows and
    loads; the per-(latency, load) reductions this replaced are the
    oracle ``tests/oracles/renewal_rows.py``, and every row is bitwise
    equal to it.
    """

    def __init__(
        self,
        grid: TimeGrid,
        gaps: RenewalGaps,
        max_queue: int,
    ) -> None:
        self._grid = grid
        self._gaps = gaps
        self._space = StateSpace(max_queue=max_queue, grid_size=len(grid))

    @property
    def space(self) -> StateSpace:
        """The state space the kernels are laid out over."""
        return self._space

    def _quadrature(
        self, plan: QuadraturePlan
    ) -> Iterator[Tuple[slice, np.ndarray, np.ndarray]]:
        """Integrand terms of a plan's windows, one block at a time.

        Yields, per block of consecutive windows, their slice of the plan,
        the weighted equilibrium density ``w * f_e(u)``, ``(loads, W, Q)``,
        and the pmf of the further arrivals in the time ``latency - u``
        left after the first one, ``(max_queue, loads, W, Q)``.  A block
        holds at most ``_KERNEL_BLOCK`` nodes times loads (at least one
        window); every step is elementwise, so the blocking changes no bit.
        """
        loads, q = self._gaps.loads, plan.nodes
        step = max(1, _KERNEL_BLOCK // (q * loads))
        for start in range(0, plan.windows, step):
            block = slice(start, min(start + step, plan.windows))
            nodes = slice(block.start * q, block.stop * q)
            f_e = self._gaps.equilibrium_density(plan.u[nodes])
            pmf = _count_pmf(
                self._gaps.kfold_cdfs(self._space.max_queue, plan.left[nodes])
            )
            shape = (loads, block.stop - block.start, q)
            yield (
                block,
                (plan.weights[nodes] * f_e).reshape(shape),
                pmf.reshape((self._space.max_queue,) + shape),
            )

    def service_rows(
        self, latencies: Union[Sequence[float], QuadraturePlan]
    ) -> np.ndarray:
        """``(len(latencies), loads, S)`` full-drain transition rows, one
        per latency and load of the gap model.

        ``latencies`` may be given as their precomputed
        :meth:`QuadraturePlan.service` plan on this builder's grid (a
        worker MDP skeleton's).  Elementwise steps batch across latencies,
        windows and loads (see :meth:`_quadrature`); each block's window
        integrals are one ``einsum`` whose reduction runs over each
        window's contiguous nodes, so every row is bitwise what a
        one-latency, one-load call gives.
        """
        plan = (
            latencies
            if isinstance(latencies, QuadraturePlan)
            else QuadraturePlan.service(self._grid, latencies)
        )
        space = self._space
        loads = self._gaps.loads
        rows = np.zeros((len(plan.latencies), loads, space.size), dtype=np.float64)
        rows[:, :, space.EMPTY] = 1.0 - self._gaps.equilibrium_cdf(plan.latencies).T
        # Window k fills occupied states (n, column[k]) of its row, n = 1..N.
        occupied = space.index(1, 0) + space.grid_size * np.arange(space.max_queue)[:, None]
        for block, wfe, pmf in self._quadrature(plan):
            rows[plan.row[block], :, occupied + plan.column[block]] = np.einsum(
                "nawq,awq->nwa", pmf, wfe
            )

        totals = rows.sum(axis=2)
        over = totals > 1.0
        if over.any():
            # Quadrature overshoot (only possible for discontinuous gap
            # densities, e.g. deterministic gaps): renormalize.
            rows[over] /= totals[over][:, None]
            totals[over] = 1.0
        rows[:, :, space.FULL] = np.maximum(0.0, 1.0 - totals)
        return rows

    def count_rows(
        self, latencies: Union[Sequence[float], QuadraturePlan]
    ) -> np.ndarray:
        """``(len(latencies), loads, max_queue + 1)`` arrival-count pmfs
        ``P[k arrivals during latency]``, built like :meth:`service_rows`
        (``latencies`` may be their :meth:`QuadraturePlan.counts` plan);
        each block's whole-service integrals are one stacked ``matmul``,
        one matrix-vector product per latency and load."""
        plan = (
            latencies
            if isinstance(latencies, QuadraturePlan)
            else QuadraturePlan.counts(latencies)
        )
        loads = self._gaps.loads
        counts = np.zeros(
            (len(plan.latencies), loads, self._space.max_queue + 1), dtype=np.float64
        )
        counts[:, :, 0] = 1.0 - self._gaps.equilibrium_cdf(plan.latencies).T
        for block, wfe, pmf in self._quadrature(plan):
            # (W, loads, N, Q) @ (W, loads, Q, 1): one gemv per latency and load.
            pmf = np.ascontiguousarray(pmf.transpose(2, 1, 0, 3))
            wfe = wfe.transpose(1, 0, 2)[..., None]
            counts[plan.row[block], :, 1:] = (pmf @ wfe)[..., 0]
        np.clip(counts, 0.0, 1.0, out=counts)
        totals = counts.sum(axis=2)
        over = totals > 1.0
        if over.any():
            counts[over] /= totals[over][:, None]  # quadrature overshoot
        return counts


class ExactRoundRobinKernelBuilder:
    """The paper's exact Eq. 2 for ``K`` round-robin workers.

    Full-drain rows are produced *per phase* ``r`` (central arrivals since
    this worker's last arrival, mod ``K``); the caller mixes them with the
    phase distribution inferred from interval A via :meth:`phase_weights`.
    Partial-drain arrival counts are phase-marginalized
    (:meth:`count_rows`).
    """

    def __init__(
        self,
        grid: TimeGrid,
        central_arrivals: ArrivalDistribution,
        num_workers: int,
        max_queue: int,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self._grid = grid
        self._arrivals = central_arrivals
        self._k = num_workers
        self._space = StateSpace(max_queue=max_queue, grid_size=len(grid))

    @property
    def space(self) -> StateSpace:
        """The state space the kernels are laid out over."""
        return self._space

    @property
    def num_workers(self) -> int:
        """``K`` — the round-robin fan-out."""
        return self._k

    def phase_weights(self, n: int, slack_ms: float) -> np.ndarray:
        """Distribution of the round-robin phase ``r`` given state ``(n, T_j)``.

        Interval A (length ``SLO - T_j``) saw the ``n - 1`` worker arrivals
        after the earliest queued query, so the central queue received
        ``k_A in [(n-1)K, nK - 1]`` queries; ``r = k_A % K`` enumerates that
        range.  This is the denominator conditioning of Eq. 2.
        """
        t_a = max(self._grid.slo_ms - slack_ms, 0.0)
        k = self._k
        lo = (n - 1) * k
        pmf = self._arrivals.pmf_vector(lo + k - 1, t_a)
        weights = pmf[lo : lo + k].astype(np.float64, copy=True)
        total = weights.sum()
        if total <= _MASS_EPSILON:
            # Degenerate conditioning (deep in the distribution tail):
            # fall back to a uniform phase, which keeps rows well-defined.
            return np.full(k, 1.0 / k)
        return weights / total

    def phase_weights_table(self, n_max: int, slack_ms: float) -> np.ndarray:
        """``(n_max, K)`` phase distributions for every queue length at once.

        Row ``n - 1`` equals ``phase_weights(n, slack_ms)`` bit-for-bit:
        the counting pmfs are prefix-stable in ``kmax`` (element ``i`` of
        ``pmf_vector(kmax, t)`` does not depend on ``kmax``), so one long
        pmf evaluation replaces the ``n_max`` per-queue-length calls.
        """
        t_a = max(self._grid.slo_ms - slack_ms, 0.0)
        k = self._k
        big = self._arrivals.pmf_vector(n_max * k - 1, t_a)
        out = np.empty((n_max, k), dtype=np.float64)
        for n in range(1, n_max + 1):
            lo = (n - 1) * k
            weights = big[lo : lo + k].astype(np.float64, copy=True)
            total = weights.sum()
            if total <= _MASS_EPSILON:
                out[n - 1] = 1.0 / k
            else:
                out[n - 1] = weights / total
        return out

    def service_rows(self, latencies: Sequence[float]) -> np.ndarray:
        """``(len(latencies), K, S)`` full-drain transition rows, one per
        latency and phase ``r``."""
        space = self._space
        rows = np.zeros((len(latencies), self._k, space.size), dtype=np.float64)
        for phase_rows, latency_ms in zip(rows, latencies):
            self._fill_phase_rows(phase_rows, latency_ms)
        return rows

    def _fill_phase_rows(self, rows: np.ndarray, latency_ms: float) -> None:
        """Write the ``(K, S)`` per-phase rows of one latency into ``rows``."""
        space = self._space
        k = self._k
        n_max = space.max_queue
        t_b, t_c, t_d = _service_windows(self._grid, latency_ms)

        for r in range(k):
            # n' = 0: at most K - r - 1 central arrivals during the service.
            rows[r, space.EMPTY] = self._arrivals.cdf(k - r - 1, latency_ms)

        n_arr = np.arange(1, n_max + 1)
        occupied = rows[:, 2:].reshape(k, n_max, len(self._grid))
        for j in range(len(self._grid)):
            if t_c[j] <= 0.0:
                continue
            sup_c = self._arrivals.support_bound(t_c[j])
            sup_d = self._arrivals.support_bound(t_d[j])
            need = (n_max + 1) * k  # largest window offset we will read
            pmf_c = self._arrivals.pmf_vector(max(sup_c, need), t_c[j])
            pmf_d = self._arrivals.pmf_vector(max(sup_d, 1), t_d[j])
            sup_b = min(
                self._arrivals.support_bound(t_b[j]), k - 1
            )  # k_B < K - r <= K
            pmf_b = self._arrivals.pmf_vector(sup_b, t_b[j])

            # The next-queue mass depends on (r, k_b) only through
            # c_min = K - r - k_b: the window [n'K - r - k_b, (n'+1)K - r -
            # k_b) rewrites to [(n'-1)K + c_min, n'K + c_min).  Compute one
            # mass vector over n' per distinct c_min (K of them instead of
            # K(K+1)/2 convolutions) and reuse it across phases.
            mass_by_cmin: Dict[int, Optional[np.ndarray]] = {}

            def mass_for(c_min: int) -> Optional[np.ndarray]:
                if c_min in mass_by_cmin:
                    return mass_by_cmin[c_min]
                masked = pmf_c.copy()
                masked[:c_min] = 0.0
                if masked.sum() <= _MASS_EPSILON:
                    mass_by_cmin[c_min] = None
                    return None
                g = np.convolve(masked, pmf_d)
                cum = np.concatenate(([0.0], np.cumsum(g)))
                top = len(cum) - 1
                lo_t = (n_arr - 1) * k + c_min  # >= c_min >= 1
                hi_idx = np.minimum(n_arr * k + c_min, top)
                mass = cum[hi_idx] - cum[np.minimum(lo_t, top)]
                mass[lo_t >= top] = 0.0
                mass_by_cmin[c_min] = mass
                return mass

            for r in range(k):
                for k_b in range(min(sup_b, k - r - 1) + 1):
                    p_b = pmf_b[k_b]
                    if p_b <= _MASS_EPSILON:
                        continue
                    mass = mass_for(k - r - k_b)
                    if mass is None:
                        continue
                    add = mass > 0.0
                    occupied[r, add, j] += p_b * mass[add]

        totals = rows.sum(axis=1)
        rows[:, space.FULL] = np.maximum(0.0, 1.0 - totals)

    def count_rows(self, latencies: Sequence[float]) -> np.ndarray:
        """``(len(latencies), max_queue + 1)`` pmfs of the worker's arrival
        count during each latency, marginalized over the stationary
        (uniform) phase.

        A documented simplification: the partial-drain path is an
        extension, and the paper's Table 2 variable-batching numbers use a
        single worker, where phase-conditioned and marginal counts
        coincide.
        """
        k = self._k
        n_max = self._space.max_queue
        counts = np.zeros((len(latencies), n_max + 1), dtype=np.float64)
        for row, latency_ms in zip(counts, latencies):
            pmf = self._arrivals.pmf_vector((n_max + 1) * k - 1, latency_ms)
            # Uniform phase: P(worker gets a | phase r) averaged over r.
            for r in range(k):
                for a in range(n_max + 1):
                    lo, hi = a * k - r, (a + 1) * k - r - 1
                    lo = max(lo, 0)
                    if lo <= hi:
                        row[a] += pmf[lo : hi + 1].sum() / k
        return counts
