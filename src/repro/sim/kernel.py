"""The one discrete-event dispatch kernel behind simulation and serving (§6).

:class:`~repro.sim.simulator.Simulation` drives one kernel over all ``K``
workers; :class:`~repro.runtime.shard.ShardedController` drives one per
shard.  A kernel merges its (sorted) arrival list with a heap of
in-flight batch completions and processes events in virtual-time order:
arrivals before completions at equal times, equal-time completions in
dispatch order, so the event sequence never depends on how a run is split
into :meth:`DispatchKernel.advance` calls.

The kernel is parametrised by what the two callers differ in:

- **queue discipline** — per-worker queues (RAMSIS, §3.2) fed by inline
  round-robin or by ``balancer.assign(queue_lengths)`` (e.g. the
  shortest-queue-first balancer of Appendix I), or one central queue that
  idle workers grab batches from (the baselines, §7);
- **anticipated load** — an inline trace oracle (§7.2), the stock 500 ms
  :class:`~repro.sim.monitor.LoadMonitor` window inlined, or a probe /
  monitor method call;
- **execution latency** — ``latencies[w].execution_ms(model, batch) *
  speed[w]``, memoized per worker for cacheable latency models;
- **selectors** — one per worker, re-read on every decision, so a hot
  swap is a single store of a new list;
- **overload** — optional admission control at arrival and drop-late
  (drop the whole queue when the selected action is already late).

Queries are plain indices into the arrival list.  Every terminal record
goes into per-worker buffers (response times, and the accuracy of each
satisfied query); :func:`fold_kernels` folds them worker after worker in
global worker order through :func:`repro.sim.metrics.fold_worker_records`
— so a simulation and a sharded serve of the same arrivals report
float-identical metrics.  Observers sit behind one ``observed`` check: an
unobserved run makes no observer call and builds no argument dict.  An
observed run appends one ordered lifecycle capture; tracer rows,
registry series, attribution and audits are all made from it in
columns, off the dispatch path (:class:`LifecycleObserver`).
"""

from __future__ import annotations

import heapq
import sys
from collections import Counter, deque
from itertools import chain, repeat
from operator import getitem, itemgetter
from typing import Any, Callable, Deque, List, Optional, Sequence, Tuple

import numpy as np

from repro.arrivals.traces import LoadTrace
from repro.balancers import LoadBalancer, RoundRobinBalancer
from repro.errors import SimulationError
from repro.obs.attribution import LatencyAttributor, Lifecycle
from repro.obs.columns import COUNTER, INSTANT, SPAN, RowBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.profiles.models import ModelSet
from repro.selectors.base import ModelSelector
from repro.sim.latency_model import LatencyModel
from repro.sim.metrics import SimSeries, SimulationMetrics, fold_worker_records
from repro.sim.monitor import LoadMonitor, OracleLoadMonitor

__all__ = [
    "DispatchKernel",
    "LifecycleObserver",
    "fold_kernels",
    "normalize_arrivals",
    "REJECTED_MODEL",
    "DROPPED_MODEL",
]

#: Sentinel model labels for terminal events that never ran inference.
REJECTED_MODEL = "<rejected>"
DROPPED_MODEL = "<dropped>"

_INF = float("inf")


def normalize_arrivals(arrival_times) -> np.ndarray:
    """Arrival timestamps as a 1-D float64 array in non-decreasing order.

    Input that is already non-decreasing (trace sampling, shared arrival
    realizations) is checked in one linear pass and not re-sorted.
    """
    arrivals = np.ascontiguousarray(arrival_times, dtype=np.float64)
    if arrivals.ndim != 1:
        raise SimulationError(
            f"arrival_times must be 1-D, got shape {arrivals.shape}"
        )
    if arrivals.size > 1 and np.any(arrivals[1:] < arrivals[:-1]):
        arrivals = np.sort(arrivals)
    return arrivals


#: Args keys of the lifecycle rows, in the order every feed stores them.
_ARRIVAL_KEYS = ("query", "worker")
_CENTRAL_ARRIVAL_KEYS = ("query",)
_SERVE_KEYS = (
    "worker", "model", "batch", "queue_len", "slack_ms", "anticipated_qps",
)
_START_KEYS = ("query", "model", "batch", "wait_ms")
_DONE_KEYS = ("query", "worker", "model", "satisfied", "accuracy", "response_ms")
_DROPPED_KEYS = (
    "query", "worker", "model", "satisfied", "dropped", "accuracy", "response_ms",
)
_REJECTED_KEYS = _DROPPED_KEYS + ("rejected",)
#: The strings of the lifecycle rows' ``name`` and ``cat`` columns.
_ARRIVAL, _SERVE, _START, _COMPLETION, _QUEUE_DEPTH = range(5)
_NAMES = ("arrival", "serve", "service_start", "completion", "queue_depth")
_SIM, _COUNTER = 0, 1
_CATS = ("sim", "counter")

#: Capture entries, flat tuples of scalars (so the collector untracks
#: them), each stamped with the kernel's arrivals before it: ``(_DISPATCH,
#: arrived, t, w, model, batch, exec_ms, queue_len, slack_ms, anticipated,
#: *served)``, ``(_COMPLETE, arrived, t, w, model, accuracy, *served)``
#: and ``(_TERMINAL, arrived, t, w, model, rejected, *queries)``.
_DISPATCH, _COMPLETE, _TERMINAL = 0, 1, 2
#: Where each kind's query indices start in its entry.
_QUERIES_AT = np.array([10, 6, 6], np.int64)
#: An entry's length less its lifecycle records (a dispatch is one
#: decision and a service start per query).
_RECORDS_LESS = (9, 6, 6)


class LifecycleObserver:
    """The kernel's observer: one ordered lifecycle capture, folded and
    written off the dispatch path.

    Every dispatch (its service starts included), batch completion, drop
    and rejection appends one entry to :attr:`capture`, stamped with the
    kernel's arrivals so far; arrivals only advance :attr:`arrived`.  The
    capture is kept whenever there is a tracer, a ``registry``, an
    ``attributor`` or an attached auditor (:meth:`attach`).  Nothing reads
    it on the dispatch path: :meth:`drain` hands the entries captured
    since the last drain to a consumer, and :meth:`fold` reads them into
    :class:`~repro.obs.attribution.Lifecycle` columns (:meth:`columns`,
    the one reader of the entry layout) and folds those into the
    registry's ``sim_*`` series (:meth:`publish`), into the attributor (a
    :class:`~repro.obs.attribution.LatencyAttributor` folds them in bulk,
    any other hook-shaped tap gets its ``observe_*`` calls in the order,
    and with the arguments, of the events:
    :meth:`~repro.obs.attribution.Lifecycle.replay`) and, with the
    arrival times drained alongside, into the caller's
    :class:`~repro.obs.audit.GuaranteeAuditor`.  The capture is the only
    source of an attributor's and an auditor's records.  A simulation
    drains once, at the end of its run; a serving shard as its capture
    grows, on its snapshot ticks and at the end of its serve.

    The tracers' rows come from the same columns.  Every query's
    ``arrival`` / ``service_start`` / ``completion`` instant and every
    batch's ``serve`` span goes to its worker's tracer (``tracers[w]``;
    ``None`` entries are skipped; a central-queue arrival to
    ``tracers[0]``), with ``counters`` also a ``queue_depth`` counter
    after each arrival, dispatch and drop (the simulator's).  The rows
    are built in bulk, in kernel order, by :meth:`emit`: a fold keeps its
    columns pending and emits them first when the kernel has no events
    left or when a tracer's next block would fill
    (:attr:`~repro.obs.trace.RecordingTracer.room`); a serve also emits on
    its snapshot ticks and before it closes its feeds.  Each tracer gets
    its rows as one :class:`~repro.obs.columns.RowBatch` through
    :meth:`~repro.obs.trace.Tracer.record_batch`: a recorder adopts it,
    any other tracer gets one row call per row, as if the rows had been
    written one by one.

    Kernel-local worker ``w`` and query ``j`` are recorded as the global
    ids ``base + w * stride`` and ``base + j * stride`` — shard ``s`` of
    ``S`` uses ``(s, S)``, a simulation ``(0, 1)``.  A central-queue
    arrival has no worker yet (``w == -1``): its record carries none.
    """

    def __init__(
        self,
        kernel: "DispatchKernel",
        tracers: Sequence[Optional[Any]],
        attributor: Optional[Any] = None,
        registry: Optional[MetricsRegistry] = None,
        base: int = 0,
        stride: int = 1,
        counters: bool = False,
    ) -> None:
        self.kernel = kernel
        self.arrivals = kernel.arrivals
        self.deadlines = kernel.deadlines
        self.tracers = list(tracers)
        self.attributor = attributor
        self.registry = registry
        self.base = base
        self.stride = stride
        workers = len(kernel.in_flight)
        self.tracks = [f"worker-{base + w * stride}" for w in range(workers)]
        #: Each distinct tracer and the workers whose rows it gets
        #: (``None``: every worker's).
        self._sinks: List[Tuple[Any, Optional[np.ndarray]]] = []
        for tracer in dict.fromkeys(t for t in self.tracers if t is not None):
            owned = [w for w, t in enumerate(self.tracers) if t is tracer]
            self._sinks.append(
                (tracer, None if len(owned) == workers else np.array(owned))
            )
        #: The ordered lifecycle entries (``None`` with nothing to fold
        #: them into).
        self.capture: Optional[List[tuple]] = None
        #: Arrivals processed so far.
        self.arrived = 0
        # The arrivals of the last drain (a slice); lifecycle records
        # folded; the capture's entries and records :meth:`position` has
        # counted so far.
        self._drained = (0, 0)
        self._records = 0
        self._counted = (0, 0)
        self._series = None if registry is None else SimSeries(registry)
        # Rows: the columns folded since the last emit, the first arrival
        # not emitted, and what the rows read per arrival that the
        # capture does not hold -- the balancer's worker (round robin
        # needs none) and, for counters, the queue's depth.
        self._pending: List[Lifecycle] = []
        self._pending_rows = 0
        self._emitted = 0
        self._assigned: Optional[List[int]] = None
        self._depths: Optional[List[int]] = None
        if self._sinks:
            if kernel.assign is not None and not kernel.central:
                self._assigned = []
            if counters:
                self._depths = []
        if self._sinks or registry is not None or attributor is not None:
            self._start_capture()

    def _start_capture(self) -> None:
        if self.capture is None:
            self.capture = []
            # What the columns read per query, as arrays once.
            self._arrival_ms = np.asarray(self.arrivals, np.float64)
            self._deadline_ms = np.asarray(self.deadlines, np.float64)

    def attach(self, auditor: Any) -> None:
        """Fold ``auditor`` (a :class:`~repro.obs.audit.GuaranteeAuditor`)
        from the capture: it gets this observer's running count of
        arrivals and lifecycle records (:meth:`position`), which places
        each policy switch it is told of."""
        self._start_capture()
        auditor.attach(self.position)

    def position(self) -> Tuple[int, int]:
        """Arrivals processed and lifecycle records (decisions and query
        events) captured so far."""
        capture = self.capture
        entries, records = self._counted
        for entry in capture[entries:]:
            records += len(entry) - _RECORDS_LESS[entry[0]]
        self._counted = (len(capture), records)
        return self.arrived, self._records + records

    def arrival(self, w: int, j: int, t: float, depth: int) -> None:
        """Query ``j`` arrived at worker ``w`` (``-1``: the central
        queue); ``depth`` is its queue's length after it."""
        self.arrived = j + 1
        if self._assigned is not None:
            self._assigned.append(w)
        if self._depths is not None:
            self._depths.append(depth)

    def dispatch(
        self,
        w: int,
        t: float,
        model_name: str,
        batch: int,
        queue_len: int,
        slack_ms: float,
        anticipated: float,
        exec_ms: float,
        served: List[int],
        depth: int,
    ) -> None:
        """Worker ``w`` started ``served``; ``depth`` is the queue left."""
        if self.capture is not None:
            self.capture.append((
                _DISPATCH, self.arrived, t, w, model_name, batch, exec_ms,
                queue_len, slack_ms, anticipated, *served,
            ))

    def completion(
        self, w: int, t: float, model_name: str, accuracy: float, served: List[int]
    ) -> None:
        """Worker ``w`` finished the batch ``served``."""
        if self.capture is not None:
            self.capture.append(
                (_COMPLETE, self.arrived, t, w, model_name, accuracy, *served)
            )

    def terminal(
        self,
        w: int,
        queries: Sequence[int],
        t: float,
        model_name: str,
        rejected: bool = False,
    ) -> None:
        """``queries`` ended without inference: dropped (the whole queue)
        or rejected at admission (one query, response 0)."""
        if self.capture is not None:
            self.capture.append(
                (_TERMINAL, self.arrived, t, w, model_name, rejected, *queries)
            )

    # ------------------------------------------------------------------
    # Folds over the capture (off the dispatch path)
    # ------------------------------------------------------------------
    def drain(self) -> List[tuple]:
        """The entries captured since the last drain, in order; the
        observer forgets them (and the arrivals processed with them)."""
        if self.capture is None:
            return []
        entries, self.capture = self.capture, []
        self._drained = (self._drained[1], self.arrived)
        self._counted = (0, 0)
        return entries

    def fold(self, entries: Sequence[tuple], auditor: Optional[Any] = None) -> None:
        """Fold the last drained ``entries`` into the registry, the
        attributor and ``auditor`` (the arrivals drained with them too);
        their rows are emitted first when the kernel has no events left
        or a tracer's next block would fill, else kept for :meth:`emit`."""
        if self.capture is None:
            return
        lifecycle = self.columns(entries)
        records = lifecycle.d_batch.size + lifecycle.is_start.size
        self._records += records
        if self._sinks:
            self._pending.append(lifecycle)
            # At most one counter per arrival and per record.
            arrivals = self._drained[1] - self._drained[0]
            self._pending_rows += (records + arrivals) * (1 + (self._depths is not None))
            room = min(
                (t.room for t, _ in self._sinks if isinstance(t, RecordingTracer)),
                default=sys.maxsize,
            )
            if self._pending_rows >= room or self.kernel.next_ms() == _INF:
                self.emit()
        self.publish(lifecycle)
        attributor = self.attributor
        if isinstance(attributor, LatencyAttributor):
            attributor.fold(lifecycle)
        elif attributor is not None:
            lifecycle.replay(attributor)
        if auditor is not None:
            auditor.fold(lifecycle, self._arrival_ms[slice(*self._drained)])

    def columns(self, entries: Sequence[tuple]) -> Lifecycle:
        """Drained ``entries`` as lifecycle columns, with global worker
        and query ids: the one reader of the capture's entry layout."""
        n = len(entries)

        def field(i: int, dtype: type) -> np.ndarray:
            return np.fromiter(map(itemgetter(i), entries), dtype, n)

        kind = field(0, np.int64)
        arrived = field(1, np.int64)
        t = field(2, np.float64)
        gid = self.base + field(3, np.int64) * self.stride
        models = list(map(itemgetter(4), entries))
        names = list(dict.fromkeys(models))
        model = np.fromiter(map({m: i for i, m in enumerate(names)}.get, models), np.int64, n)
        # The batch of a dispatch, the accuracy of a completion, the
        # rejected flag of a terminal.
        arg = field(5, np.float64)
        dispatch = kind == _DISPATCH
        # Execution ms, queue length and slack of each dispatch, and the
        # load it anticipated.
        picked = [entries[i] for i in np.flatnonzero(dispatch).tolist()]
        decided = np.array([e[6:9] for e in picked], np.float64).reshape(-1, 3)
        anticipated = [e[9] for e in picked]
        batch = arg.astype(np.int64)
        cuts = _QUERIES_AT[kind]
        sizes = np.fromiter(map(len, entries), np.int64, n) - cuts
        j = np.fromiter(
            chain.from_iterable(map(getitem, entries, map(slice, cuts.tolist(), repeat(None)))),
            np.int64,
        )

        of = np.repeat(np.arange(kind.size), sizes)  # each query's entry
        q_kind = kind[of]
        q_t = t[of]
        lag = q_t - self._arrival_ms[j]
        start = q_kind == _DISPATCH
        end = ~start
        rejected = (q_kind == _TERMINAL) & (arg[of] != 0)
        ended = q_kind[end]
        closes = np.ones(j.size, np.bool_)
        closes[:-1] = of[1:] != of[:-1]
        return Lifecycle(
            names=names,
            d_worker=gid[dispatch],
            d_model=model[dispatch],
            d_batch=batch[dispatch],
            d_exec_ms=decided[:, 0],
            d_at=(np.cumsum(sizes, dtype=np.int64) - sizes)[dispatch],
            d_queue_len=decided[:, 1].astype(np.int64),
            d_slack_ms=decided[:, 2],
            is_start=start,
            s_query=self.base + j[start] * self.stride,
            s_worker=gid[of[start]],
            s_model=model[of[start]],
            s_batch=batch[of[start]],
            s_wait_ms=lag[start],
            e_query=self.base + j[end] * self.stride,
            e_worker=gid[of[end]],
            e_model=model[of[end]],
            e_response_ms=np.where(rejected, 0.0, lag)[end],
            e_satisfied=(ended == _COMPLETE)
            & (q_t[end] <= self._deadline_ms[j[end]]),
            e_dropped=ended == _TERMINAL,
            e_t_ms=q_t[end],
            e_accuracy=np.where(ended == _COMPLETE, arg[of[end]], 0.0),
            e_arrived=arrived[of[end]],
            d_t_ms=t[dispatch],
            d_anticipated=np.array(
                anticipated,
                np.float64 if set(map(type, anticipated)) <= {float} else object,
            ),
            d_arrived=arrived[dispatch],
            e_rejected=rejected[end],
            e_closes=closes[end],
        )

    def publish(self, lifecycle: Lifecycle) -> None:
        """Fold drained records into the registry's ``sim_*`` series, in
        bulk (nothing without a registry)."""
        if self._series is None:
            return
        name = lifecycle.names.__getitem__
        self._series.publish(
            lifecycle.d_batch.tolist(),
            Counter(map(name, lifecycle.d_model.tolist())),
            lifecycle.e_response_ms.tolist(),
            int(np.count_nonzero(~lifecycle.e_satisfied)),
            Counter(map(name, lifecycle.e_model.tolist())),
        )

    # ------------------------------------------------------------------
    # Rows (off the dispatch path)
    # ------------------------------------------------------------------
    def emit(self) -> None:
        """Hand each tracer the rows of everything folded since the last
        emit, and of the arrivals drained with it, in kernel order."""
        if not self._pending:
            return
        lifecycle = Lifecycle.concat(self._pending)
        a0, a1 = self._emitted, self._drained[1]
        self._pending, self._pending_rows, self._emitted = [], 0, a1
        batch, owner = self._rows(lifecycle, a0, a1)
        for tracer, owned in self._sinks:
            tracer.record_batch(
                batch if owned is None else batch.select(np.isin(owner, owned))
            )

    def _rows(self, lc: Lifecycle, a0: int, a1: int) -> Tuple[RowBatch, np.ndarray]:
        """The rows of ``lc`` and of arrivals ``a0`` to ``a1``, in kernel
        order, and each row's (kernel-local) worker.

        The records of ``lc`` form one stream, each decision just before
        the query event ``d_at`` places it at; an arrival's row goes
        before every record stamped with more arrivals than its own
        index, after the rest.  A counter follows its record."""
        base, stride = self.base, self.stride
        d_at, starts = lc.d_at, lc.is_start
        decisions, events = d_at.size, starts.size
        k = np.arange(events)
        d_pos = d_at + np.arange(decisions)
        q_pos = k + np.searchsorted(d_at, k, "right")
        s_pos, e_pos = q_pos[starts], q_pos[~starts]
        s_of = np.searchsorted(d_at, k[starts], "right") - 1
        stamp = np.empty(decisions + events, np.int64)
        stamp[d_pos] = lc.d_arrived
        stamp[s_pos] = lc.d_arrived[s_of]
        stamp[e_pos] = lc.e_arrived
        d_w = (lc.d_worker - base) // stride
        e_w = (lc.e_worker - base) // stride
        j = np.arange(a0, a1)
        if self.kernel.central:
            a_w = np.full(j.size, -1, np.int64)
        elif self._assigned is not None:
            a_w = np.array(self._assigned[: j.size], np.int64)
            del self._assigned[: j.size]
        else:
            a_w = j % len(self.tracks)

        # Counters: after each arrival, each decision's last start and
        # each drop's (or rejection's) last query.
        counted = self._depths is not None
        extra = np.zeros(decisions + events, np.int64)
        if counted:
            depths = np.array(self._depths[: j.size], np.float64)
            del self._depths[: j.size]
            dc_pos = d_pos + lc.d_batch
            tc = lc.e_dropped & lc.e_closes
            tc_pos = e_pos[tc]
            extra[dc_pos] = 1
            extra[tc_pos] = 1
        per_arrival = 1 + counted
        shift = np.concatenate(([0], np.cumsum(extra)))  # counters before
        row = np.arange(decisions + events) + shift[:-1] + per_arrival * (stamp - a0)
        at = np.searchsorted(stamp, j, "right")
        a_rows = per_arrival * (j - a0) + at + shift[at]
        total = decisions + events + int(shift[-1]) + per_arrival * j.size

        kind = np.full(total, INSTANT, np.int8)
        name = np.empty(total, np.int64)
        track = np.empty(total, np.int64)  # 0: balancer, 1: central, 2 + w
        cat = np.full(total, _SIM, np.int64)
        ts = np.empty(total, np.float64)
        dur = np.zeros(total, np.float64)
        value = np.zeros(total, np.float64)
        owner = np.empty(total, np.int64)

        def put(rows, what, where, when, who):
            name[rows] = what
            track[rows] = where
            ts[rows] = when
            owner[rows] = who

        d_rows, s_rows, e_rows = row[d_pos], row[s_pos], row[e_pos]
        put(a_rows, _ARRIVAL, 0, self._arrival_ms[a0:a1], np.maximum(a_w, 0))
        put(d_rows, _SERVE, 2 + d_w, lc.d_t_ms, d_w)
        kind[d_rows] = SPAN
        dur[d_rows] = lc.d_exec_ms
        put(s_rows, _START, 2 + d_w[s_of], lc.d_t_ms[s_of], d_w[s_of])
        put(e_rows, _COMPLETION, 2 + e_w, lc.e_t_ms, e_w)
        if counted:
            central = self.kernel.central
            for rows, w, t, depth in (
                (a_rows + 1, a_w, self._arrival_ms[a0:a1], depths),
                (row[dc_pos] + 1, d_w, lc.d_t_ms, lc.d_queue_len - lc.d_batch),
                (row[tc_pos] + 1, e_w[tc], lc.e_t_ms[tc], 0.0),
            ):
                put(rows, _QUEUE_DEPTH, 1 if central else 2 + w, t, np.maximum(w, 0))
                kind[rows] = COUNTER
                cat[rows] = _COUNTER
                value[rows] = depth

        query = base + j * stride
        shapes = [
            (_CENTRAL_ARRIVAL_KEYS, a_rows, [query]) if self.kernel.central
            else (_ARRIVAL_KEYS, a_rows, [query, base + a_w * stride]),
            (_SERVE_KEYS, d_rows, [
                lc.d_worker, (lc.d_model, lc.names), lc.d_batch, lc.d_queue_len,
                lc.d_slack_ms, lc.d_anticipated,
            ]),
            (_START_KEYS, s_rows, [
                lc.s_query, (lc.s_model, lc.names), lc.s_batch, lc.s_wait_ms,
            ]),
        ]
        ended = {
            "query": lc.e_query, "worker": lc.e_worker, "satisfied": lc.e_satisfied,
            "dropped": lc.e_dropped, "accuracy": lc.e_accuracy,
            "response_ms": lc.e_response_ms, "rejected": lc.e_rejected,
        }
        for keys, mask in (
            (_DONE_KEYS, ~lc.e_dropped),
            (_DROPPED_KEYS, lc.e_dropped & ~lc.e_rejected),
            (_REJECTED_KEYS, lc.e_rejected),
        ):
            shapes.append((keys, e_rows[mask], [
                (lc.e_model[mask], lc.names) if key == "model" else ended[key][mask]
                for key in keys
            ]))
        if counted:
            shapes.append(((), np.flatnonzero(kind == COUNTER), []))
        batch = RowBatch(
            {
                "kind": kind,
                "name": (name, _NAMES),
                "track": (track, ["balancer", "central", *self.tracks]),
                "cat": (cat, _CATS),
                "ts_ms": ts,
                "dur_ms": dur,
                "value": value,
            },
            shapes,
        )
        return batch, owner


class DispatchKernel:
    """Array-backed event loop over one group of workers.

    Parameters
    ----------
    arrivals:
        Non-decreasing arrival times (ms); query ``j`` is ``arrivals[j]``.
    slo_ms:
        Latency SLO; query ``j``'s deadline is ``arrivals[j] + slo_ms``.
    selectors:
        One selector per worker (a shared selector may repeat).
    latencies, speed:
        Per-worker latency model and speed factor.
    model_set:
        The served models.
    central:
        One central queue with an idle-worker pool instead of per-worker
        queues.
    balancer:
        Per-worker assignment; ``None`` or a :class:`RoundRobinBalancer`
        is inlined as query ``j`` -> worker ``j mod K``.
    monitor, trace, probe:
        The anticipated-load source.  ``probe(now)`` wins when given;
        otherwise a stock :class:`LoadMonitor` or
        :class:`OracleLoadMonitor` with no registry attached is inlined,
        any other monitor is called through its methods, and without a
        monitor the load is read off ``trace`` (the trace oracle).
    admission:
        Optional admission policy (``max_queue_depth``,
        ``min_slack_ms``) applied to per-worker arrivals.
    drop_late:
        Drop the whole queue when the selected action is already late.
    """

    def __init__(
        self,
        arrivals: List[float],
        slo_ms: float,
        selectors: List[ModelSelector],
        latencies: Sequence[LatencyModel],
        speed: Sequence[float],
        model_set: ModelSet,
        *,
        central: bool = False,
        balancer: Optional[LoadBalancer] = None,
        monitor: Optional[LoadMonitor] = None,
        trace: Optional[LoadTrace] = None,
        probe: Optional[Callable[[float], float]] = None,
        admission=None,
        drop_late: bool = False,
    ) -> None:
        workers = len(latencies)
        self.arrivals = arrivals
        self.deadlines = [t + slo_ms for t in arrivals]
        self.selectors = selectors
        self.latencies = list(latencies)
        self.speed = list(speed)
        self.get_model = model_set.get
        self.accuracy_of = {m.name: m.accuracy for m in model_set}
        self.central = central
        self.assign = (
            None
            if balancer is None or type(balancer) is RoundRobinBalancer
            else balancer.assign
        )
        self.admission = admission
        self.drop_late = drop_late
        self.observer: Optional[LifecycleObserver] = None
        #: Paced serving: the clock whose lag behind each completion's
        #: virtual instant is recorded (scaled to wall ms).
        self.clock = None
        self.added_wall_ms: List[float] = []

        # Anticipated load: exactly one of inline oracle, probe call or
        # inline window.  A monitor publishing to a registry is called, so
        # every call still publishes.
        self.on_arrival: Optional[Callable[[float], None]] = None
        self.window: Optional[Deque[float]] = None
        self.window_ms = 0.0
        oracle = None
        stock = monitor is not None and not monitor.publishing
        if probe is not None:
            pass
        elif monitor is None:
            oracle = trace
        elif stock and type(monitor) is LoadMonitor:
            self.window = deque()
            self.window_ms = monitor.window_ms
        elif stock and type(monitor) is OracleLoadMonitor:
            oracle = monitor.trace
        else:
            probe = monitor.anticipated_load_qps
            self.on_arrival = monitor.record_arrival
        self.probe = probe
        self.oracle = oracle

        self.memos: Optional[List[dict]] = (
            [dict() for _ in range(workers)] if latencies[0].cacheable else None
        )
        self.ai = 0
        #: Central discipline: every worker shares one queue.
        self.queues: List[Deque[int]] = (
            [deque()] * workers if central else [deque() for _ in range(workers)]
        )
        #: Central discipline: idle workers, popped lowest index first.
        self.idle: List[int] = list(range(workers - 1, -1, -1)) if central else []
        #: ``(t_done, model_name, accuracy, served indices)`` or ``None``
        #: when idle.
        self.in_flight: List[Optional[tuple]] = [None] * workers
        self.heap: List[Tuple[float, int, int]] = []
        self.sequence = 0
        self.responses: List[List[float]] = [[] for _ in range(workers)]
        self.accuracies: List[List[float]] = [[] for _ in range(workers)]
        self.model_counts: dict = {}
        self.decisions = 0
        self.batch_sum = 0
        self.rejected = 0
        self.dropped = 0

    def next_ms(self) -> float:
        """Virtual time of the kernel's next event (``inf`` when drained)."""
        t = self.arrivals[self.ai] if self.ai < len(self.arrivals) else _INF
        if self.heap and self.heap[0][0] < t:
            t = self.heap[0][0]
        return t

    def advance(self, until_ms: float = _INF) -> None:
        """Process every event at virtual time ``<= until_ms``, in order."""
        arrivals = self.arrivals
        deadlines = self.deadlines
        n = len(arrivals)
        heap = self.heap
        heappush = heapq.heappush
        heappop = heapq.heappop
        queues = self.queues
        queue0 = queues[0]
        in_flight = self.in_flight
        idle = self.idle
        responses = self.responses
        accuracies = self.accuracies
        model_counts = self.model_counts
        workers = len(in_flight)
        central = self.central
        assign = self.assign
        admission = self.admission
        drop_late = self.drop_late
        observer = self.observer
        observed = observer is not None
        clock = self.clock
        scale = 1.0 if clock is None else clock.time_scale
        added = self.added_wall_ms
        latencies = self.latencies
        speed = self.speed
        memos = self.memos
        get_model = self.get_model
        accuracy_of = self.accuracy_of
        probe = self.probe
        on_arrival = self.on_arrival
        window = self.window
        window_ms = self.window_ms
        recording = window is not None or on_arrival is not None
        oracle = self.oracle is not None
        if oracle:
            trace_qps = self.oracle.qps
            interval_ms = self.oracle.interval_ms
            horizon = self.oracle.duration_ms - 1e-9
        ai = self.ai
        sequence = self.sequence
        decisions = self.decisions
        batch_sum = self.batch_sum
        try:
            while True:
                next_arrival = arrivals[ai] if ai < n else _INF
                next_done = heap[0][0] if heap else _INF
                if next_arrival <= next_done:
                    if next_arrival > until_ms or ai == n:
                        break
                    now = next_arrival
                    j = ai
                    ai += 1
                    if recording:
                        if window is None:
                            on_arrival(now)
                        else:
                            # LoadMonitor.record_arrival: append, then evict
                            # (the appended element bounds the scan).
                            window.append(now)
                            cutoff = now - window_ms
                            while window[0] < cutoff:
                                window.popleft()
                    if central:
                        queue = queue0
                        queue.append(j)
                        if observed:
                            observer.arrival(-1, j, now, len(queue))
                        if not idle:
                            continue
                        w = idle.pop()
                    else:
                        if assign is None:
                            w = j % workers
                        else:
                            w = assign([len(q) for q in queues])
                        queue = queues[w]
                        if admission is not None and self._rejects(
                            admission, w, len(queue), deadlines[j], now
                        ):
                            self.rejected += 1
                            responses[w].append(0.0)
                            model_counts[REJECTED_MODEL] = (
                                model_counts.get(REJECTED_MODEL, 0) + 1
                            )
                            if observed:
                                observer.arrival(w, j, now, len(queue))
                                observer.terminal(w, (j,), now, REJECTED_MODEL, True)
                            continue
                        queue.append(j)
                        if observed:
                            observer.arrival(w, j, now, len(queue))
                        if in_flight[w] is not None:
                            continue
                else:
                    if next_done > until_ms:
                        break
                    now, _seq, w = heappop(heap)
                    _done, model_name, accuracy, served = in_flight[w]
                    in_flight[w] = None
                    resp = responses[w]
                    acc = accuracies[w]
                    for j in served:
                        resp.append(now - arrivals[j])
                        if now <= deadlines[j]:
                            acc.append(accuracy)
                    model_counts[model_name] = (
                        model_counts.get(model_name, 0) + len(served)
                    )
                    if observed:
                        observer.completion(w, now, model_name, accuracy, served)
                    if clock is not None:
                        lag_virtual = clock.now_ms() - now
                        added.append(max(0.0, lag_virtual) * scale)
                    queue = queues[w]
                    if not queue:
                        if central:
                            idle.append(w)
                        continue

                # ---- dispatch worker w on `queue` at `now` --------------
                queue_len = len(queue)
                slack_ms = deadlines[queue[0]] - now
                if oracle:
                    # Trace oracle: the load in effect at `now`, clamped
                    # into the trace.
                    c = now if now < horizon else horizon
                    if c < 0.0:
                        c = 0.0
                    anticipated = trace_qps[int(c // interval_ms)]
                elif probe is not None:
                    anticipated = probe(now)
                else:
                    # LoadMonitor.anticipated_load_qps: the trailing rate.
                    cutoff = now - window_ms
                    while window and window[0] < cutoff:
                        window.popleft()
                    if not window:
                        anticipated = 0.0
                    else:
                        elapsed = now if now < window_ms else window_ms
                        anticipated = (
                            len(window) / elapsed * 1000.0 if elapsed > 0 else 0.0
                        )
                selector = self.selectors[w]
                action = selector.select(
                    queue_length=queue_len,
                    earliest_slack_ms=slack_ms,
                    now_ms=now,
                    anticipated_load_qps=anticipated,
                )
                batch = action.batch_size
                if batch > queue_len:
                    batch = queue_len
                if batch < 1:
                    raise SimulationError(
                        f"selector {selector.name} returned batch {batch}"
                    )
                if action.is_late and drop_late:
                    # Drop the whole queue (the (n, T_j) abstraction only
                    # knows the earliest deadline is missed; DESIGN.md §3)
                    # and leave the worker idle.
                    self.dropped += queue_len
                    resp = responses[w]
                    for j in queue:
                        resp.append(now - arrivals[j])
                    model_counts[DROPPED_MODEL] = (
                        model_counts.get(DROPPED_MODEL, 0) + queue_len
                    )
                    if observed:
                        observer.terminal(w, queue, now, DROPPED_MODEL, False)
                    queue.clear()
                    if central:
                        idle.append(w)
                    continue
                if batch == queue_len:
                    served = list(queue)
                    queue.clear()
                else:
                    popleft = queue.popleft
                    served = [popleft() for _ in range(batch)]
                model_name = action.model
                if memos is not None:
                    memo = memos[w]
                    exec_ms = memo.get((model_name, batch))
                    if exec_ms is None:
                        exec_ms = (
                            latencies[w].execution_ms(get_model(model_name), batch)
                            * speed[w]
                        )
                        memo[(model_name, batch)] = exec_ms
                else:
                    exec_ms = (
                        latencies[w].execution_ms(get_model(model_name), batch)
                        * speed[w]
                    )
                accuracy = accuracy_of[model_name]
                decisions += 1
                batch_sum += batch
                done = now + exec_ms
                in_flight[w] = (done, model_name, accuracy, served)
                sequence += 1
                heappush(heap, (done, sequence, w))
                if observed:
                    observer.dispatch(
                        w, now, model_name, batch, queue_len, slack_ms,
                        anticipated, exec_ms, served, len(queue),
                    )
        finally:
            self.ai = ai
            self.sequence = sequence
            self.decisions = decisions
            self.batch_sum = batch_sum

    def _rejects(
        self, admission, w: int, queue_len: int, deadline_ms: float, now: float
    ) -> bool:
        """Admission verdict for an arrival at worker ``w`` at ``now``."""
        if (
            admission.max_queue_depth is not None
            and queue_len >= admission.max_queue_depth
        ):
            return True
        if admission.min_slack_ms is not None:
            flight = self.in_flight[w]
            start = now if flight is None else max(now, flight[0])
            return deadline_ms - start < admission.min_slack_ms
        return False


def fold_kernels(
    kernels: Sequence[DispatchKernel], track_responses: bool = True
) -> SimulationMetrics:
    """Every worker's records, folded in global worker order.

    Global worker ``g`` of ``S`` kernels is local worker ``g // S`` of
    ``kernels[g % S]`` (one kernel: ``g`` itself).
    """
    shards = len(kernels)
    total = sum(len(k.responses) for k in kernels)
    order = [(kernels[g % shards], g // shards) for g in range(total)]
    model_counts: Counter = Counter()
    for kernel in kernels:
        model_counts.update(kernel.model_counts)
    return fold_worker_records(
        [k.responses[w] for k, w in order],
        [k.accuracies[w] for k, w in order],
        model_counts=model_counts,
        decisions=sum(k.decisions for k in kernels),
        batch_sum=sum(k.batch_sum for k in kernels),
        track_responses=track_responses,
    )
