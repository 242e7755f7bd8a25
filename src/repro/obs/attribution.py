"""Tail-latency attribution: per-phase decomposition, blame, burn rate.

The guarantee machinery answers *whether* P(latency <= SLO) holds; this
module answers *why* it stopped holding.  :class:`LatencyAttributor`
folds a source's per-query lifecycle — one decision per dispatched
batch, one service start and one completion per query, read into
:class:`Lifecycle` columns — into three streaming products:

- **Phase tables.**  Every query's end-to-end latency is decomposed into
  *admission/queue wait* (arrival to dispatch), *batch wait* (dispatch
  latency beyond the queue-wait floor — structurally zero in the
  discrete-event engines, where batches form instantaneously, and kept
  in the schema for the wall-clock runtime), *service* (the residual),
  and *drop slack* (the whole latency of a dropped query).  The split is
  exact by construction: the service residual is corrected by at most
  one ulp so ``queue + batch + service + drop == response`` holds as
  floats for every query (the acceptance test sums them with ``==``).
  Phases aggregate per (SLO class, model, worker) row with mergeable
  sums, so parallel-sweep replays fold to tables float-identical to a
  serial run's.
- **Model-choice blame.**  Each serve decision is charged the profiled
  latency gap between the chosen model and the fastest model at that
  batch size (``profile.latency_ms(batch)`` — the deterministic p95 the
  selectors plan with).  Without a bound model set the gap falls back to
  the fastest *observed* mean serve duration per (worker, batch).  Blame
  is computed from the accumulated decision table at reporting time, so
  it is independent of observation order.
- **Burn rate + exemplars.**  Multi-window rolling violation rates
  (default 1k/10k completions) divided by the violation budget give an
  SLO burn rate per window; crossing the threshold emits an
  :class:`~repro.obs.audit.AuditAlert` (kind ``slo-burn-rate``) through
  the same callback/alert-stream plumbing as the guarantee auditor and
  publishes ``audit_burn_rate`` / ``audit_burn_alerts_total`` metrics.
  Completions above a rolling tail quantile (default p99 of a streaming
  histogram) are retained as full span-chain exemplars, capped at a
  fixed count, keeping the worst offenders inspectable after the run.

One fold, :meth:`LatencyAttributor.fold`, reads :class:`Lifecycle`
columns from either of two sources:

- Kernel: ``SimulationConfig(attributor=...)`` or a serving shard's
  ``attributors=`` — the dispatch kernel's observer
  (:class:`repro.sim.kernel.LifecycleObserver`) appends one ordered
  lifecycle capture and reads its drained entries into columns, off the
  dispatch path: at the end of a simulation, and in a serve as a
  shard's capture grows, on its snapshot ticks and at the end of its
  serve.  So a simulation and a sharded serve of the same arrivals
  attribute identically, and burn-rate alerts fire when the capture is
  folded (with the events' virtual ``t_ms``, in event order).
- Offline: a columnar :class:`~repro.obs.columns.EventTable`
  (:meth:`Lifecycle.from_table`), in recorded order — e.g. the merged
  table of a parallel sweep, whose ``(seq, worker, n)`` order equals
  serial cell order (the parallel == serial contract).
  :func:`attribution_from_tracer` and :func:`attribution_from_jsonl`
  encode a recorded tracer or an ``events.jsonl`` / ``merged.jsonl``
  file as a table first and fold it the same way.

Either way the attributor ends exactly as one streaming hook call per
lifecycle record, in recorded order, would leave it; that per-record
form lives on as the oracle in ``tests/oracles/attribution_fold.py``.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from functools import reduce
from operator import add
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.obs.audit import AuditAlert
from repro.obs.columns import INSTANT, SPAN, EventTable
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.reconstruct import TORN_RECORD, _iter_jsonl
from repro.obs.trace import RecordingTracer

__all__ = [
    "PhaseBreakdown",
    "AttributionRow",
    "BurnWindow",
    "LatencyAttributor",
    "attribution_from_table",
    "attribution_from_tracer",
    "attribution_from_jsonl",
    "Lifecycle",
    "render_attribution_text",
]

#: Bump when the ``to_json_dict`` layout changes incompatibly.
ATTRIBUTION_SCHEMA = 1

#: Model label for dropped queries (mirrors the simulator's sentinel).
DROPPED_MODEL = "<dropped>"

_SERVE = "serve"
_SERVICE_START = "service_start"
_COMPLETION = "completion"


def _exact_phase_splits(
    response_ms: np.ndarray, wait_ms: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Split each ``response`` into ``(wait, service)`` with an exact
    float sum.

    The naive residual ``service = response - wait`` leaves
    ``wait + service != response`` for a few percent of double pairs
    (the subtraction rounds).  Recomputing the wait as the residual of
    the residual moves it by at most one ulp and makes the pair sum back
    exactly — empirically without exception, with a bounded fixpoint
    loop as a guard.  Deterministic in (response, wait), so every fold
    reproduces the same split.
    """
    # Python floats overflow to inf and nan silently; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        wait = np.array(wait_ms, np.float64)
        service = response_ms - wait
        unsplit = wait + service != response_ms
        for _ in range(4):
            if not unsplit.any():
                break
            response = response_ms[unsplit]
            step_wait = response - service[unsplit]
            step_service = response - step_wait
            wait[unsplit] = step_wait
            service[unsplit] = step_service
            unsplit[unsplit] = step_wait + step_service != response
    return wait, service


@dataclass(frozen=True)
class PhaseBreakdown:
    """One query's exact latency decomposition.

    ``queue_wait_ms + batch_wait_ms + service_ms + drop_ms ==
    response_ms`` holds exactly (see :func:`_exact_phase_splits`).
    """

    query_id: int
    worker: int
    model: str
    queue_wait_ms: float
    batch_wait_ms: float
    service_ms: float
    drop_ms: float
    response_ms: float
    satisfied: bool
    dropped: bool
    t_ms: float = 0.0


@dataclass
class AttributionRow:
    """Streaming aggregate for one (SLO class, model, worker) cell."""

    slo: str
    model: str
    worker: int
    queries: int = 0
    satisfied: int = 0
    dropped: int = 0
    violations: int = 0
    queue_wait_ms: float = 0.0
    batch_wait_ms: float = 0.0
    service_ms: float = 0.0
    drop_ms: float = 0.0
    response_ms: float = 0.0
    #: Served-but-late excess beyond the SLO (informational; not part of
    #: the exact phase partition).  Zero when the SLO is unknown.
    violation_excess_ms: float = 0.0

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-ready row (blame fields are attached by the attributor)."""
        return {
            "slo": self.slo,
            "model": self.model,
            "worker": self.worker,
            "queries": self.queries,
            "satisfied": self.satisfied,
            "dropped": self.dropped,
            "violations": self.violations,
            "queue_wait_ms": self.queue_wait_ms,
            "batch_wait_ms": self.batch_wait_ms,
            "service_ms": self.service_ms,
            "drop_ms": self.drop_ms,
            "response_ms": self.response_ms,
            "violation_excess_ms": self.violation_excess_ms,
        }


class BurnWindow:
    """Rolling violation window over the last ``size`` completions."""

    __slots__ = ("size", "_ring", "_head", "_filled", "violations", "alerts", "_armed")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"burn window size must be >= 1, got {size}")
        self.size = size
        self._ring: List[bool] = [False] * size
        self._head = 0
        self._filled = 0
        self.violations = 0
        self.alerts = 0
        self._armed = True

    @property
    def count(self) -> int:
        """Completions currently covered (<= ``size``)."""
        return self._filled

    @property
    def full(self) -> bool:
        """Whether the window has seen at least ``size`` completions."""
        return self._filled == self.size

    @property
    def rate(self) -> float:
        """Violation fraction over the covered completions."""
        return self.violations / self._filled if self._filled else 0.0

    def push_many(self, violations: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Fold outcomes in order, one push of the ring each.

        Returns the window's violation count and covered count after
        each push: the count before, plus the new outcomes so far, minus
        those the pushes evicted — the oldest held outcomes, then the
        earliest new ones.  Reads only the held outcomes it evicts, so a
        small fold costs little whatever the window size.
        """
        new = np.asarray(violations, np.bool_)
        n, size, filled = new.size, self.size, self._filled
        first = max(size - filled, 0)  # the first push that evicts
        evicting = max(n - first, 0)
        oldest = self._head if filled == size else 0
        ring = self._ring
        held = np.array(
            [ring[(oldest + i) % size] for i in range(min(evicting, filled))],
            np.bool_,
        )
        evicted = np.zeros(n, np.int64)
        evicted[first:] = np.concatenate([held, new])[:evicting]
        counts = self.violations + np.cumsum(new, dtype=np.int64) - np.cumsum(evicted)
        covered = np.minimum(np.arange(filled + 1, filled + n + 1), size)
        if n:
            kept = min(n, size)
            slots = (self._head + np.arange(n - kept, n)) % size
            for slot, value in zip(slots.tolist(), new[n - kept:].tolist()):
                ring[slot] = value
            self._head = (self._head + n) % size
            self._filled = int(covered[-1])
            self.violations = int(counts[-1])
        return counts, covered

    def check_alerts(
        self, burns: np.ndarray, covered: np.ndarray, threshold: float
    ) -> np.ndarray:
        """Positions where the alert fires, given each push's ``burns``
        and the ``covered`` counts :meth:`push_many` returned: the rising
        edges above ``threshold`` once full (hysteresis: once per
        excursion above ``threshold``)."""
        full = np.flatnonzero(covered == self.size)
        above = burns[full] > threshold
        before = np.concatenate([[not self._armed], above])[:-1]
        fired = full[above & ~before]
        if full.size:
            self._armed = not above[-1]
            self.alerts += int(fired.size)
        return fired


@dataclass
class Lifecycle:
    """One source's lifecycle records as the columns the fold reads.

    Decisions (one per dispatched batch) are in recorded order, and so
    are the query events: service starts and completions interleaved as
    ``is_start`` marks them, each kind's columns in that order.
    ``names[code]`` is the model behind every ``*_model`` code.  An event
    table is read by :meth:`from_table`; a kernel capture by
    :meth:`repro.sim.kernel.LifecycleObserver.columns`.
    """

    names: List[str]
    #: Decisions: global worker, model code, batch size, execution ms.
    d_worker: np.ndarray
    d_model: np.ndarray
    d_batch: np.ndarray
    d_exec_ms: np.ndarray
    #: Query events recorded before each decision: places the two
    #: streams in one order for :meth:`replay`.
    d_at: np.ndarray
    #: The state each decision was taken in: queue length and the
    #: earliest query's slack.
    d_queue_len: np.ndarray
    d_slack_ms: np.ndarray
    #: One flag per query event: a service start (else a completion).
    is_start: np.ndarray
    #: Service starts: query, worker, model code, batch size, queue wait.
    s_query: np.ndarray
    s_worker: np.ndarray
    s_model: np.ndarray
    s_batch: np.ndarray
    s_wait_ms: np.ndarray
    #: Completions (drops and rejections included): query, worker, model
    #: code, response, satisfied, dropped, the completion instant and
    #: the model's accuracy (0 for drops and rejections).
    e_query: np.ndarray
    e_worker: np.ndarray
    e_model: np.ndarray
    e_response_ms: np.ndarray
    e_satisfied: np.ndarray
    e_dropped: np.ndarray
    e_t_ms: np.ndarray
    e_accuracy: np.ndarray

    @classmethod
    def from_table(cls, table: EventTable) -> "Lifecycle":
        """An event table's lifecycle records, in row order: ``serve``
        spans with args, ``completion`` instants with a ``query`` and
        ``service_start`` instants with a ``query`` and a ``wait_ms``.
        Other records (older or foreign schemas) are skipped; a missing
        worker is read off a ``worker-<i>`` track, missing fields take
        the defaults the JSONL schema implies."""
        codes = table.columns["track"]
        workers = np.full(len(table.strings), -1, np.int64)
        for code in np.unique(codes).tolist():
            workers[code] = _worker_from_track(table.strings[code])
        track_worker = workers[codes]

        serves = table.rows(SPAN, _SERVE)
        serves = serves[table.has_args()[serves]]
        query = table.present("query")
        starts = np.zeros(len(table), np.bool_)
        starts[table.rows(INSTANT, _SERVICE_START)] = True
        starts &= query & table.present("wait_ms")
        ends = np.zeros(len(table), np.bool_)
        ends[table.rows(INSTANT, _COMPLETION)] = True
        ends &= query
        rows = np.flatnonzero(starts | ends)
        is_start = starts[rows]
        s_rows, e_rows = rows[is_start], rows[~is_start]

        # One code space for both streams' model strings.
        models, names = table.arg_strings("model", rows)
        index = {name: i for i, name in enumerate(names)}
        d_codes, d_names = table.arg_strings("model", serves)
        for name in d_names:
            if name not in index:
                index[name] = len(names)
                names.append(name)
        d_model = np.array([index[n] for n in d_names], np.int64)[d_codes]
        return cls(
            names=names,
            d_worker=table.arg_array("worker", serves, int, track_worker[serves]),
            d_model=d_model,
            d_batch=table.arg_array("batch", serves, int, 1),
            d_exec_ms=table.columns["dur_ms"][serves],
            d_at=np.searchsorted(rows, serves),
            d_queue_len=table.arg_array("queue_len", serves, int, 0),
            d_slack_ms=table.arg_array("slack_ms", serves, float, 0.0),
            is_start=is_start,
            s_query=table.arg_array("query", s_rows, int, 0),
            s_worker=track_worker[s_rows],
            s_model=models[is_start],
            s_batch=table.arg_array("batch", s_rows, int, 1),
            s_wait_ms=table.arg_array("wait_ms", s_rows, float, 0.0),
            e_query=table.arg_array("query", e_rows, int, 0),
            e_worker=table.arg_array("worker", e_rows, int, track_worker[e_rows]),
            e_model=models[~is_start],
            e_response_ms=table.arg_array("response_ms", e_rows, float, 0.0),
            e_satisfied=table.arg_array("satisfied", e_rows, bool, False),
            e_dropped=table.arg_array("dropped", e_rows, bool, False),
            e_t_ms=table.columns["ts_ms"][e_rows],
            e_accuracy=table.arg_array("accuracy", e_rows, float, 0.0),
        )


    def replay(self, tap: Any) -> None:
        """Call a hook-shaped tap once per record, in recorded order:
        ``observe_decision(worker, model, batch, exec_ms)`` per decision,
        ``observe_service_start(query, worker, model, batch, wait_ms)``
        and ``observe_completion(query, worker, model, response_ms,
        satisfied, t_ms=..., dropped=True)`` (``dropped`` only on drops)
        per query event.  What attaches a tap that is not a
        :class:`LatencyAttributor` (which folds the columns instead)."""
        names = self.names

        def rows(*columns: np.ndarray) -> Iterator[tuple]:
            return zip(*(column.tolist() for column in columns))

        decisions = rows(self.d_worker, self.d_model, self.d_batch, self.d_exec_ms)
        starts = rows(
            self.s_query, self.s_worker, self.s_model, self.s_batch, self.s_wait_ms
        )
        ends = rows(
            self.e_query, self.e_worker, self.e_model, self.e_response_ms,
            self.e_satisfied, self.e_t_ms, self.e_dropped,
        )
        flags = self.is_start.tolist()
        # Decision i sorts just before query event d_at[i].
        keys = np.concatenate([2 * self.d_at, 2 * np.arange(len(flags)) + 1])
        held = self.d_at.size
        for i in np.argsort(keys, kind="stable").tolist():
            if i < held:
                worker, model, batch, exec_ms = next(decisions)
                tap.observe_decision(worker, names[model], batch, exec_ms)
            elif flags[i - held]:
                query, worker, model, batch, wait_ms = next(starts)
                tap.observe_service_start(query, worker, names[model], batch, wait_ms)
            else:
                query, worker, model, response, satisfied, t, dropped = next(ends)
                extra = {"dropped": True} if dropped else {}
                tap.observe_completion(
                    query, worker, names[model], response, satisfied, t_ms=t, **extra
                )


class LatencyAttributor:
    """Streaming tail-latency attribution engine (see module docstring).

    ``slo_ms`` labels the rows and enables violation-excess tracking;
    ``models`` (any iterable of profiles with ``name`` and
    ``latency_ms(batch)``) switches blame to the profiled latency gap.
    ``violation_budget`` is the tolerated violation *rate* (e.g. the
    policy's ``1 - bound``); burn rate is the windowed violation rate
    divided by it.  ``alert_sink`` callables receive each
    :class:`~repro.obs.audit.AuditAlert` — pass an existing
    :meth:`GuaranteeAuditor.emit_alert <repro.obs.audit.GuaranteeAuditor>`
    to feed the auditor's alert stream.  Thread-safe: folds and readers
    serialize on one lock, so its tables can be read while it folds.
    """

    def __init__(
        self,
        slo_ms: Optional[float] = None,
        *,
        models: Optional[Iterable[Any]] = None,
        registry: Optional[MetricsRegistry] = None,
        burn_windows: Sequence[int] = (1000, 10000),
        burn_threshold: float = 1.0,
        violation_budget: Optional[float] = None,
        exemplar_quantile: float = 0.99,
        exemplar_capacity: int = 32,
        exemplar_warmup: int = 200,
        alert_sink: Optional[Callable[[AuditAlert], None]] = None,
        record_queries: bool = False,
    ) -> None:
        self.slo_ms = float(slo_ms) if slo_ms is not None else None
        self._models = list(models) if models is not None else None
        self._registry = registry
        self._burn_threshold = float(burn_threshold)
        self._budget = float(violation_budget) if violation_budget else None
        self._windows = [BurnWindow(int(s)) for s in sorted(set(burn_windows))]
        self._exemplar_quantile = float(exemplar_quantile)
        self._exemplar_capacity = int(exemplar_capacity)
        self._exemplar_warmup = int(exemplar_warmup)
        self._alert_sinks: List[Callable[[AuditAlert], None]] = (
            [alert_sink] if alert_sink is not None else []
        )
        self._record_queries = record_queries
        self.breakdowns: List[PhaseBreakdown] = []

        self._lock = threading.RLock()
        #: (worker, query_id) -> (wait_ms, model, batch) awaiting completion.
        self._pending: Dict[Tuple[int, int], Tuple[float, str, int]] = {}
        self._rows: Dict[Tuple[str, int], AttributionRow] = {}
        #: (worker, model, batch) -> [decisions, exec-duration sum].
        self._decisions: Dict[Tuple[int, str, int], List[float]] = {}
        # Deterministic reservoir (seeded by name) -> reproducible
        # thresholds for a fixed completion order, every replay path.
        self._response_hist = Histogram("attribution_response_ms")
        #: Min-heap of (response_ms, seq, chain) for top-K retention.
        self._exemplars: List[Tuple[float, int, Dict[str, Any]]] = []
        #: Completions folded so far; an exemplar's ``seq`` is its
        #: completion's number, so ties break by time.
        self._seq = 0

        if registry is not None:
            self._m_queries = registry.counter(
                "attribution_queries_total",
                help="completions folded into the attribution tables",
            )
            self._m_drops = registry.counter(
                "attribution_drops_total", help="dropped queries attributed"
            )
            self._m_queue_wait = registry.histogram(
                "attribution_queue_wait_ms",
                help="admission/queue-wait phase per query",
            )
            self._m_service = registry.histogram(
                "attribution_service_ms", help="service phase per query"
            )
            self._m_burn = {
                w.size: registry.gauge(
                    "audit_burn_rate",
                    help="windowed violation rate over the violation budget",
                    labels={"window": str(w.size)},
                )
                for w in self._windows
            }
            self._m_burn_alerts = {
                w.size: registry.counter(
                    "audit_burn_alerts_total",
                    help="burn-rate threshold crossings",
                    labels={"window": str(w.size)},
                )
                for w in self._windows
            }
        else:
            self._m_queries = self._m_drops = None
            self._m_queue_wait = self._m_service = None
            self._m_burn = self._m_burn_alerts = {}

    # ------------------------------------------------------------------
    # Alert plumbing (GuaranteeAuditor-compatible)
    # ------------------------------------------------------------------
    def add_alert_callback(self, callback: Callable[[AuditAlert], None]) -> None:
        """Register a callback for burn-rate alerts."""
        self._alert_sinks.append(callback)

    def _alert(self, alert: AuditAlert) -> None:
        for sink in self._alert_sinks:
            sink(alert)

    # ------------------------------------------------------------------
    # Burn-rate alerts
    # ------------------------------------------------------------------
    def _burn_alert(
        self, size: int, burn: float, violations: int, t_ms: float
    ) -> AuditAlert:
        detail = (
            f"burn {burn:.3f} > {self._burn_threshold:.3f} over the "
            f"last {size} queries ({violations}/{size} violations"
            + (f", budget {self._budget:.4f})" if self._budget is not None else ")")
        )
        return AuditAlert("slo-burn-rate", t_ms, detail)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _slo_label(self) -> str:
        return f"{self.slo_ms:g}" if self.slo_ms is not None else "-"

    def _blame_per_decision(self) -> Dict[Tuple[int, str, int], float]:
        """Per-(worker, model, batch) blame for one decision, >= 0.

        With a bound model set: the profiled p95 gap to the fastest
        model at that batch size (state-independent, like the planner's
        own latency table).  Without: the gap of the observed mean serve
        duration to the fastest observed mean on the same (worker,
        batch) — models never observed contribute no floor.
        """
        blame: Dict[Tuple[int, str, int], float] = {}
        if self._models:
            floor: Dict[int, float] = {}
            profiled: Dict[Tuple[str, int], float] = {}
            batches = {b for (_w, _m, b) in self._decisions}
            for b in batches:
                lats = []
                for m in self._models:
                    lat = float(m.latency_ms(b))
                    profiled[(m.name, b)] = lat
                    lats.append(lat)
                floor[b] = min(lats)
            for (w, m, b) in self._decisions:
                lat = profiled.get((m, b))
                blame[(w, m, b)] = (
                    max(0.0, lat - floor[b]) if lat is not None else 0.0
                )
            return blame
        observed: Dict[Tuple[int, str, int], float] = {
            key: cell[1] / cell[0] for key, cell in self._decisions.items()
        }
        floor_wb: Dict[Tuple[int, int], float] = {}
        for (w, _m, b), mean in observed.items():
            prev = floor_wb.get((w, b))
            if prev is None or mean < prev:
                floor_wb[(w, b)] = mean
        for key, mean in observed.items():
            w, _m, b = key
            blame[key] = max(0.0, mean - floor_wb[(w, b)])
        return blame

    def rows(self) -> List[Dict[str, Any]]:
        """Attribution rows (JSON-ready) with blame, deterministically
        sorted by (slo, model, worker)."""
        with self._lock:
            blame = self._blame_per_decision()
            row_blame: Dict[Tuple[str, int], List[float]] = {}
            for (w, m, b), cell in self._decisions.items():
                agg = row_blame.setdefault((m, w), [0.0, 0.0, 0.0])
                agg[0] += cell[0]
                agg[1] += cell[0] * b
                agg[2] += cell[0] * blame[(w, m, b)]
            out = []
            for key in sorted(self._rows):
                row = self._rows[key].to_json_dict()
                decisions, batch_sum, blame_ms = row_blame.get(
                    key, [0.0, 0.0, 0.0]
                )
                row["decisions"] = int(decisions)
                row["batch_sum"] = int(batch_sum)
                row["blame_ms"] = blame_ms
                row["blame_per_query_ms"] = (
                    blame_ms / batch_sum if batch_sum else 0.0
                )
                out.append(row)
            return out

    def to_json_dict(self) -> Dict[str, Any]:
        """The full attribution snapshot (deterministic, JSON-ready)."""
        with self._lock:
            rows = self.rows()
            # Floats add left to right in row order: builtin ``sum``
            # compensates its float additions from Python 3.12 on, which
            # would make the bytes depend on the interpreter.
            totals = {
                key: reduce(add, (r[key] for r in rows), 0)
                for key in (
                    "queries", "satisfied", "dropped", "violations",
                    "queue_wait_ms", "batch_wait_ms", "service_ms", "drop_ms",
                    "response_ms", "violation_excess_ms", "blame_ms",
                )
            }
            return {
                "schema": ATTRIBUTION_SCHEMA,
                "slo_ms": self.slo_ms,
                "rows": rows,
                "totals": totals,
                "decisions": [
                    {
                        "worker": w,
                        "model": m,
                        "batch": b,
                        "count": int(cell[0]),
                        "exec_sum_ms": cell[1],
                    }
                    for (w, m, b), cell in sorted(self._decisions.items())
                ],
                "burn": {
                    "budget": self._budget,
                    "threshold": self._burn_threshold,
                    "alerts": sum(w.alerts for w in self._windows),
                    "windows": [
                        {
                            "size": w.size,
                            "count": w.count,
                            "violations": w.violations,
                            "rate": w.rate,
                            "burn": w.rate / self._budget if self._budget else w.rate,
                            "alerts": w.alerts,
                        }
                        for w in self._windows
                    ],
                },
                "exemplars": {
                    "quantile": self._exemplar_quantile,
                    "capacity": self._exemplar_capacity,
                    "warmup": self._exemplar_warmup,
                    "chains": [
                        entry[2]
                        for entry in sorted(
                            self._exemplars, key=lambda e: (-e[0], e[1])
                        )
                    ],
                },
            }

    def render_text(self, limit: Optional[int] = None) -> str:
        """The attribution tables as aligned text (``ramsis explain``)."""
        return render_attribution_text(self.to_json_dict(), limit=limit)

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def fold(self, source: Union["Lifecycle", EventTable]) -> "LatencyAttributor":
        """Fold a source's lifecycle records, in recorded order, in columns.

        ``source`` is :class:`Lifecycle` columns — a drained kernel
        capture (:meth:`repro.sim.kernel.LifecycleObserver.columns`) — or
        an event table, read with :meth:`Lifecycle.from_table`.  From any
        prior state this leaves every table, burn ring, reservoir,
        exemplar, registry series and alert exactly as one streaming hook
        call per lifecycle record in recorded order would (for finite
        latencies): decisions feed only the decision table and query
        events only the phase / burn / exemplar state, so the result does
        not depend on how the two streams interleave.

        Decisions group by (worker, model, batch) in first-seen order; one
        stable sort on (worker, query) pairs each completion with its
        service start (a start left unpaired stays pending for the next
        fold); phase sums add in recorded order per (model, worker) row;
        burn windows are read off a violation cumulative sum; and the
        exemplars are the top ``exemplar_capacity`` candidates by
        (response, completion number).  Only the tail threshold steps per
        completion, because the reservoir it reads draws from its RNG
        (:meth:`~repro.obs.metrics.Histogram.observe_quantiles`).
        """
        if isinstance(source, EventTable):
            source = Lifecycle.from_table(source)
        with self._lock:
            self._fold_decisions(source)
            self._fold_queries(source)
        return self

    def _fold_decisions(self, lc: "Lifecycle") -> None:
        """The decisions into the per-(worker, model, batch) table."""
        if not lc.d_worker.size:
            return
        workers, models, batches = lc.d_worker, lc.d_model, lc.d_batch
        exec_ms = lc.d_exec_ms
        firsts, group = _first_seen_groups(workers, models, batches)
        # A new cell starts at its first duration (not 0.0 + it), so
        # that row joins the cell instead of the row-order sums.
        summed = np.ones(workers.size, np.bool_)
        sums = np.empty(firsts.size)
        cells = []
        for g, (first, worker, model, batch) in enumerate(zip(
            firsts.tolist(), workers[firsts].tolist(),
            models[firsts].tolist(), batches[firsts].tolist(),
        )):
            key = (worker, lc.names[model], batch)
            cell = self._decisions.get(key)
            if cell is None:
                cell = self._decisions[key] = [0.0, float(exec_ms[first])]
                summed[first] = False
            sums[g] = cell[1]
            cells.append(cell)
        np.add.at(sums, group[summed], exec_ms[summed])
        counts = np.bincount(group, minlength=firsts.size)
        for cell, count, total in zip(cells, counts.tolist(), sums.tolist()):
            cell[0] += count
            cell[1] = total

    def _fold_queries(self, lc: "Lifecycle") -> None:
        """The service starts and completions into the phase rows, the
        burn windows, the exemplars and the registry series."""
        is_start = lc.is_start
        if not is_start.size:
            return
        names = list(lc.names)
        index = {name: i for i, name in enumerate(names)}

        def code(name: str) -> int:
            found = index.get(name)
            if found is None:
                found = index[name] = len(names)
                names.append(name)
            return found

        s_query, s_worker, s_model = lc.s_query, lc.s_worker, lc.s_model
        s_batch, s_wait = lc.s_batch, lc.s_wait_ms
        e_query, e_worker, e_model = lc.e_query, lc.e_worker, lc.e_model
        response, satisfied = lc.e_response_ms, lc.e_satisfied
        dropped, t_ms = lc.e_dropped, lc.e_t_ms
        ends = e_query.size

        # Pairing: in a stable sort on (worker, query), a completion's
        # pending start is the event just before it under the same key,
        # if that event is a start; a key's first event, if a
        # completion, takes what was pending before this fold.
        key_worker = np.empty(is_start.size, np.int64)
        key_worker[is_start], key_worker[~is_start] = s_worker, e_worker
        key_query = np.empty(is_start.size, np.int64)
        key_query[is_start], key_query[~is_start] = s_query, e_query
        order = np.lexsort((key_query, key_worker))
        sorted_start = is_start[order]
        same = (key_worker[order][1:] == key_worker[order][:-1]) & (
            key_query[order][1:] == key_query[order][:-1]
        )
        position = np.cumsum(is_start) - 1  # index among starts
        e_position = np.cumsum(~is_start) - 1  # index among completions
        pair = np.full(ends, -1, np.int64)
        after = np.flatnonzero(~sorted_start[1:] & same & sorted_start[:-1]) + 1
        pair[e_position[order[after]]] = position[order[after - 1]]
        paired = pair >= 0
        p_wait = np.zeros(ends)
        p_model = np.zeros(ends, np.int64)
        p_batch = np.zeros(ends, np.int64)
        p_wait[paired] = s_wait[pair[paired]]
        p_model[paired] = s_model[pair[paired]]
        p_batch[paired] = s_batch[pair[paired]]
        opens = np.concatenate([[True], ~same])
        closes = np.concatenate([~same, [True]])
        pending = self._pending
        if pending:
            for i in e_position[order[opens & ~sorted_start]].tolist():
                found = pending.get((e_worker[i].item(), e_query[i].item()))
                if found is not None:
                    p_wait[i], model, p_batch[i] = found
                    p_model[i] = code(model)
                    paired[i] = True
            # A key this fold touches is pending after it only if its
            # last event is a start (re-entered below).
            touched = set(zip(key_worker.tolist(), key_query.tolist()))
            for key in [key for key in pending if key in touched]:
                del pending[key]
        for i in position[order[closes & sorted_start]].tolist():
            pending[(s_worker[i].item(), s_query[i].item())] = (
                s_wait[i].item(), names[s_model[i]], s_batch[i].item()
            )

        served = ~dropped
        paired &= served
        blank = e_model == code("")
        model = e_model.copy()
        model[dropped & blank] = code(DROPPED_MODEL)
        model[paired & blank] = p_model[paired & blank]
        batch = np.where(paired, p_batch, 0)
        queue = np.zeros(ends)
        service = np.where(served, response, 0.0)
        queue[paired], service[paired] = _exact_phase_splits(
            response[paired], p_wait[paired]
        )
        drop = np.where(dropped, response, 0.0)
        batch_wait = np.zeros(ends)
        excess = np.zeros(ends)
        if self.slo_ms is not None:
            late = response - self.slo_ms
            excess[~satisfied & (late > 0.0)] = late[~satisfied & (late > 0.0)]

        # Rows: counts in bulk, float sums added in row order.
        firsts, group = _first_seen_groups(model, e_worker)
        rows_of = []
        for name, worker in zip(model[firsts].tolist(), e_worker[firsts].tolist()):
            key = (names[name], worker)
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = AttributionRow(
                    slo=self._slo_label(), model=key[0], worker=worker
                )
            rows_of.append(row)
        size = firsts.size
        for row, count, hits, drops in zip(
            rows_of,
            np.bincount(group, minlength=size).tolist(),
            np.bincount(group[satisfied], minlength=size).tolist(),
            np.bincount(group[dropped], minlength=size).tolist(),
        ):
            row.queries += count
            row.satisfied += hits
            row.violations += count - hits
            row.dropped += drops
        for field, values in (
            ("queue_wait_ms", queue), ("batch_wait_ms", batch_wait),
            ("service_ms", service), ("drop_ms", drop),
            ("response_ms", response), ("violation_excess_ms", excess),
        ):
            sums = np.array([getattr(row, field) for row in rows_of], np.float64)
            np.add.at(sums, group, values)
            for row, total in zip(rows_of, sums.tolist()):
                setattr(row, field, total)

        # Each completion's PhaseBreakdown fields, one list per field.
        latencies, times = response.tolist(), t_ms.tolist()
        columns = (
            e_query.tolist(), e_worker.tolist(), [names[m] for m in model.tolist()],
            queue.tolist(), batch_wait.tolist(), service.tolist(), drop.tolist(),
            latencies, satisfied.tolist(), dropped.tolist(), times,
        )
        if self._record_queries:
            self.breakdowns.extend(map(PhaseBreakdown, *columns))
        seq = self._seq + 1 + np.arange(ends)
        self._seq += ends
        self._fold_burn(~satisfied, times)
        self._fold_exemplars(response, latencies, seq, batch.tolist(), columns)

        if self._m_queries is not None:
            self._m_queries.inc(ends)
            self._m_drops.inc(int(dropped.sum()))
            self._m_queue_wait.observe_many(queue[served].tolist())
            self._m_service.observe_many(service[served].tolist())

    def _fold_burn(self, violations: np.ndarray, t_ms: List[float]) -> None:
        """Every window's rates, gauge series and alerts over the
        completions' ``violations``, the alerts emitted in completion then
        window order."""
        alerts = []
        for w, window in enumerate(self._windows):
            counts, covered = window.push_many(violations)
            burns = counts / covered
            if self._budget:
                burns = burns / self._budget
            gauge = self._m_burn.get(window.size)
            if gauge is not None:
                gauge.set_many(burns.tolist(), t_ms)
            fired = window.check_alerts(burns, covered, self._burn_threshold)
            counter = self._m_burn_alerts.get(window.size)
            for i in fired.tolist():
                if counter is not None:
                    counter.inc()
                alerts.append((i, w, self._burn_alert(
                    window.size, burns[i].item(), counts[i].item(), t_ms[i]
                )))
        for _i, _w, alert in sorted(alerts, key=lambda a: a[:2]):
            self._alert(alert)

    def _fold_exemplars(
        self,
        response: np.ndarray,
        latencies: List[float],
        seq: np.ndarray,
        batch: List[int],
        columns: Tuple[List[Any], ...],
    ) -> None:
        """The completions' tail thresholds (each read before its own
        response joins the reservoir), then the top ``exemplar_capacity``
        of the held and new candidates (at or above their threshold) by
        (response, seq) — what the bounded heap keeps, whatever order the
        candidates arrive in."""
        thresholds = self._response_hist.observe_quantiles(
            latencies, self._exemplar_quantile, self._exemplar_warmup
        )
        if self._exemplar_capacity < 1:
            return
        ready = next(
            (i for i, t in enumerate(thresholds) if t is not None), len(thresholds)
        )
        picks = ready + np.flatnonzero(
            ~(response[ready:] < np.array(thresholds[ready:], np.float64))
        )
        if not picks.size:
            return
        held = self._exemplars
        keep = np.lexsort((
            np.concatenate([np.array([e[1] for e in held], np.int64), seq[picks]]),
            np.concatenate([np.array([e[0] for e in held], np.float64), response[picks]]),
        ))[-self._exemplar_capacity:]
        kept = []
        for k in keep.tolist():
            if k < len(held):
                kept.append(held[k])
                continue
            i = picks[k - len(held)].item()
            phases = PhaseBreakdown(*(column[i] for column in columns))
            kept.append((
                latencies[i], seq[i].item(),
                _exemplar_chain(phases, batch[i], thresholds[i]),
            ))
        heapq.heapify(kept)
        self._exemplars = kept


def render_attribution_text(
    snapshot: Dict[str, Any], limit: Optional[int] = None
) -> str:
    """An attribution snapshot (:meth:`LatencyAttributor.to_json_dict`,
    live or a stored ``attribution.json``) as aligned text tables: the
    ``limit`` highest-latency rows, the burn-rate windows and the tail
    exemplars."""
    from repro.experiments.reporting import format_table

    rows = sorted(snapshot["rows"], key=lambda r: -r["response_ms"])
    if limit is not None:
        rows = rows[:limit]
    body = []
    for r in rows:
        n = max(r["queries"], 1)
        body.append(
            [
                r["slo"],
                r["model"],
                str(r["worker"]),
                str(r["queries"]),
                f"{r['queue_wait_ms'] / n:.2f}",
                f"{r['service_ms'] / n:.2f}",
                f"{r['drop_ms'] / n:.2f}",
                f"{r['blame_per_query_ms']:.2f}",
                f"{r['violations'] / n:.1%}",
                str(r["dropped"]),
            ]
        )
    table = format_table(
        [
            "slo", "model", "worker", "queries", "wait ms", "service ms",
            "drop ms", "blame/q ms", "viol %", "drops",
        ],
        body,
        title="Latency attribution (per-query phase means)",
    )
    lines = [table, "", "SLO burn rate:"]
    for w in snapshot["burn"]["windows"]:
        lines.append(
            "  window {:>6}  rate {:.4f}  burn {:.3f}  alerts {}".format(
                w["size"], w["rate"], w["burn"], w["alerts"]
            )
        )
    exemplars = snapshot["exemplars"]
    chains = exemplars["chains"]
    lines += [
        "",
        f"Tail exemplars (p{exemplars['quantile'] * 100:g} "
        f"threshold, {len(chains)} retained):",
    ]
    for chain in chains[:5]:
        lines.append(
            "  q{query} worker {worker} {model}: {response_ms:.1f} ms "
            "(wait {queue_wait_ms:.1f}, service {service_ms:.1f}, "
            "drop {drop_ms:.1f})".format(**chain)
        )
    return "\n".join(lines)


def _exemplar_chain(
    phases: PhaseBreakdown, batch: int, threshold: float
) -> Dict[str, Any]:
    """A retained tail query's span chain (one ``exemplars.chains`` entry)."""
    return {
        "query": phases.query_id,
        "worker": phases.worker,
        "model": phases.model,
        "batch": batch,
        "queue_wait_ms": phases.queue_wait_ms,
        "batch_wait_ms": phases.batch_wait_ms,
        "service_ms": phases.service_ms,
        "drop_ms": phases.drop_ms,
        "response_ms": phases.response_ms,
        "satisfied": phases.satisfied,
        "dropped": phases.dropped,
        "completed_ms": phases.t_ms,
        "arrival_ms": phases.t_ms - phases.response_ms,
        "threshold_ms": threshold,
    }


def _first_seen_groups(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Group rows by equal values across ``columns``: returns each
    group's first row, groups numbered in first-seen order, and each
    row's group."""
    order = np.lexsort(columns[::-1])
    change = np.zeros(max(order.size - 1, 0), np.bool_)
    for column in columns:
        ranked = column[order]
        change |= ranked[1:] != ranked[:-1]
    opens = np.concatenate([[True], change]) if order.size else change
    firsts = order[opens]  # stable sort: a group's smallest row leads it
    rank = np.argsort(firsts, kind="stable")
    relabel = np.empty(rank.size, np.int64)
    relabel[rank] = np.arange(rank.size)
    group = np.empty(order.size, np.int64)
    group[order] = relabel[np.cumsum(opens) - 1]
    return firsts[rank], group


def _worker_from_track(track: str) -> int:
    """Worker index from a ``worker-<i>`` / ``w<j>/worker-<i>`` track."""
    _, sep, tail = track.rpartition("worker-")
    if sep:
        try:
            return int(tail)
        except ValueError:
            return -1
    return -1


def attribution_from_table(table: EventTable, **kwargs: Any) -> LatencyAttributor:
    """A fresh attributor folded over an event table.

    On a merged run the table's order is the serial ``(seq, worker, n)``
    cell order, so the resulting tables are float-identical to a serially
    attached attributor's.
    """
    return LatencyAttributor(**kwargs).fold(table)


def attribution_from_tracer(
    tracer: RecordingTracer, **kwargs: Any
) -> LatencyAttributor:
    """A fresh attributor folded over a recorded trace's table."""
    return attribution_from_table(tracer.table, **kwargs)


def attribution_from_jsonl(
    path: Union[str, Path], **kwargs: Any
) -> LatencyAttributor:
    """A fresh attributor folded over a JSONL event log.

    Works on ``events.jsonl`` and exported ``merged.jsonl`` logs
    (timestamp-ordered).  Truncated trailing lines (a crashed writer)
    are skipped with a warning, like the reconstruction folds.  Note
    that exported logs are globally timestamp-sorted: on a *multi-cell*
    merged log, query ids may collide across cells, which can swap the
    queue-wait pairing between two colliding queries — aggregate sums
    are unaffected; for exact tables fold the run's ``merged.cols``
    (what ``write_merged_artifacts`` and ``ramsis explain`` do).
    """
    records = _iter_jsonl(Path(path), "obs.attribution", TORN_RECORD)
    return attribution_from_table(EventTable.from_records(records), **kwargs)
