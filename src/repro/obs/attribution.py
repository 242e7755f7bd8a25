"""Tail-latency attribution: per-phase decomposition, blame, burn rate.

The guarantee machinery answers *whether* P(latency <= SLO) holds; this
module answers *why* it stopped holding.  :class:`LatencyAttributor`
folds the per-query lifecycle the dispatch kernel reports through three
typed hooks (``observe_decision`` per batch, ``observe_service_start`` /
``observe_completion`` per query) into three streaming products:

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

Attachment points:

- Kernel: ``SimulationConfig(attributor=...)`` or a serving shard's
  ``attributors=`` — the dispatch kernel's observer
  (:class:`repro.sim.kernel.LifecycleObserver`) appends one ordered
  lifecycle capture and :meth:`~repro.sim.kernel.LifecycleObserver.replay`
  calls the ``observe_*`` hooks from it, off the dispatch path: at the
  end of a simulation, and on a shard's snapshot ticks and at the end of
  its serve.  So a simulation and a sharded serve of the same arrivals
  attribute identically, and burn-rate alerts fire when the capture is
  folded (with the events' virtual ``t_ms``, in event order).
- Offline: :meth:`LatencyAttributor.fold` runs the same hooks over a
  columnar :class:`~repro.obs.columns.EventTable` in recorded order —
  e.g. the merged table of a parallel sweep, whose ``(seq, worker, n)``
  order equals serial cell order (the parallel == serial contract).
  :func:`attribution_from_tracer` and :func:`attribution_from_jsonl`
  encode a recorded tracer or an ``events.jsonl`` / ``merged.jsonl``
  file as a table first and fold it the same way.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.obs.audit import AuditAlert
from repro.obs.columns import INSTANT, MISSING, SPAN, EventTable
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
    "exact_phase_split",
    "render_attribution_text",
]

#: Bump when the ``to_json_dict`` layout changes incompatibly.
ATTRIBUTION_SCHEMA = 1

#: Model label for dropped queries (mirrors the simulator's sentinel).
DROPPED_MODEL = "<dropped>"

_SERVE = "serve"
_SERVICE_START = "service_start"
_COMPLETION = "completion"


def exact_phase_split(response_ms: float, wait_ms: float) -> Tuple[float, float]:
    """Split ``response`` into ``(wait, service)`` with an exact float sum.

    The naive residual ``service = response - wait`` leaves
    ``wait + service != response`` for a few percent of double pairs
    (the subtraction rounds).  Recomputing the wait as the residual of
    the residual moves it by at most one ulp and makes the pair sum back
    exactly — empirically without exception, with a bounded fixpoint
    loop as a guard.  Deterministic in (response, wait), so every replay
    path reproduces the same split.
    """
    service = response_ms - wait_ms
    if wait_ms + service == response_ms:
        return wait_ms, service
    for _ in range(4):
        wait_ms = response_ms - service
        service = response_ms - wait_ms
        if wait_ms + service == response_ms:
            break
    return wait_ms, service


@dataclass(frozen=True)
class PhaseBreakdown:
    """One query's exact latency decomposition.

    ``queue_wait_ms + batch_wait_ms + service_ms + drop_ms ==
    response_ms`` holds exactly (see :func:`exact_phase_split`).
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

    @property
    def phase_sum_ms(self) -> float:
        """Left-to-right sum of the four phases (== ``response_ms``)."""
        return (
            self.queue_wait_ms + self.batch_wait_ms + self.service_ms
            + self.drop_ms
        )


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

    def add(self, phases: PhaseBreakdown, excess_ms: float) -> None:
        """Fold one query's breakdown into the row."""
        self.queries += 1
        if phases.satisfied:
            self.satisfied += 1
        else:
            self.violations += 1
        if phases.dropped:
            self.dropped += 1
        self.queue_wait_ms += phases.queue_wait_ms
        self.batch_wait_ms += phases.batch_wait_ms
        self.service_ms += phases.service_ms
        self.drop_ms += phases.drop_ms
        self.response_ms += phases.response_ms
        self.violation_excess_ms += excess_ms

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

    def push(self, violation: bool) -> None:
        """Fold one completion outcome into the ring."""
        if self._filled == self.size:
            if self._ring[self._head]:
                self.violations -= 1
        else:
            self._filled += 1
        self._ring[self._head] = violation
        if violation:
            self.violations += 1
        self._head += 1
        if self._head == self.size:
            self._head = 0

    def check_alert(self, burn: float, threshold: float) -> bool:
        """Hysteresis: fire once per excursion above ``threshold``."""
        if not self.full:
            return False
        if burn > threshold:
            if self._armed:
                self._armed = False
                self.alerts += 1
                return True
            return False
        self._armed = True
        return False


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
    to feed the auditor's alert stream.  Thread-safe: hooks and readers
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
        #: Min-heap of (response_ms, order, chain) for top-K retention.
        self._exemplars: List[Tuple[float, int, Dict[str, Any]]] = []
        self._order = 0

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
    # Kernel hooks
    # ------------------------------------------------------------------
    def observe_decision(
        self, worker: int, model: str, batch: int, exec_ms: float
    ) -> None:
        """Fold one serve decision (one batch dispatched)."""
        with self._lock:
            cell = self._decisions.get((worker, model, batch))
            if cell is None:
                self._decisions[(worker, model, batch)] = [1.0, exec_ms]
            else:
                cell[0] += 1.0
                cell[1] += exec_ms

    def observe_service_start(
        self, query_id: int, worker: int, model: str, batch: int, wait_ms: float
    ) -> None:
        """Record a query's dispatch: its queue wait is now known."""
        with self._lock:
            self._pending[(worker, query_id)] = (wait_ms, model, batch)

    def observe_completion(
        self,
        query_id: int,
        worker: int,
        model: str,
        response_ms: float,
        satisfied: bool,
        t_ms: float = 0.0,
        dropped: bool = False,
    ) -> None:
        """Fold one completed (or dropped) query into every aggregate."""
        with self._lock:
            pending = self._pending.pop((worker, query_id), None)
            if dropped:
                model = model or DROPPED_MODEL
                queue_wait = batch_wait = service = 0.0
                drop = response_ms
                batch = 0
            else:
                batch_wait = drop = 0.0
                if pending is not None:
                    wait_ms, p_model, batch = pending
                    if not model:
                        model = p_model
                    queue_wait, service = exact_phase_split(
                        response_ms, wait_ms
                    )
                else:
                    # No service_start seen (schema gap or truncated
                    # shard): the whole latency counts as service.
                    queue_wait = 0.0
                    service = response_ms
                    batch = 0
            phases = PhaseBreakdown(
                query_id=query_id,
                worker=worker,
                model=model,
                queue_wait_ms=queue_wait,
                batch_wait_ms=batch_wait,
                service_ms=service,
                drop_ms=drop,
                response_ms=response_ms,
                satisfied=satisfied,
                dropped=dropped,
                t_ms=t_ms,
            )
            excess = 0.0
            if not satisfied and self.slo_ms is not None:
                excess = max(0.0, response_ms - self.slo_ms)
            key = (model, worker)
            row = self._rows.get(key)
            if row is None:
                row = self._rows[key] = AttributionRow(
                    slo=self._slo_label(), model=model, worker=worker
                )
            row.add(phases, excess)
            if self._record_queries:
                self.breakdowns.append(phases)

            self._observe_burn(satisfied, t_ms)
            self._observe_exemplar(phases, batch)

            if self._m_queries is not None:
                self._m_queries.inc()
                if dropped:
                    self._m_drops.inc()
                else:
                    self._m_queue_wait.observe(queue_wait)
                    self._m_service.observe(service)

    # ------------------------------------------------------------------
    # Burn rate
    # ------------------------------------------------------------------
    def _observe_burn(self, satisfied: bool, t_ms: float) -> None:
        violation = not satisfied
        for window in self._windows:
            window.push(violation)
            burn = self._burn(window)
            gauge = self._m_burn.get(window.size)
            if gauge is not None:
                gauge.set(burn, t_ms=t_ms)
            if window.check_alert(burn, self._burn_threshold):
                counter = self._m_burn_alerts.get(window.size)
                if counter is not None:
                    counter.inc()
                detail = (
                    f"burn {burn:.3f} > {self._burn_threshold:.3f} over the "
                    f"last {window.size} queries "
                    f"({window.violations}/{window.size} violations"
                    + (
                        f", budget {self._budget:.4f})"
                        if self._budget is not None
                        else ")"
                    )
                )
                self._alert(AuditAlert("slo-burn-rate", t_ms, detail))

    def _burn(self, window: BurnWindow) -> float:
        rate = window.rate
        return rate / self._budget if self._budget else rate

    # ------------------------------------------------------------------
    # Exemplars
    # ------------------------------------------------------------------
    def _observe_exemplar(self, phases: PhaseBreakdown, batch: int) -> None:
        hist = self._response_hist
        threshold = None
        if hist.count >= self._exemplar_warmup:
            threshold = hist.quantile(self._exemplar_quantile)
        hist.observe(phases.response_ms)
        if threshold is None or phases.response_ms < threshold:
            return
        if self._exemplar_capacity < 1:
            return
        chain = {
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
        self._order += 1
        entry = (phases.response_ms, self._order, chain)
        if len(self._exemplars) < self._exemplar_capacity:
            heapq.heappush(self._exemplars, entry)
        elif entry[:2] > self._exemplars[0][:2]:
            heapq.heapreplace(self._exemplars, entry)

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
            totals = {
                "queries": sum(r["queries"] for r in rows),
                "satisfied": sum(r["satisfied"] for r in rows),
                "dropped": sum(r["dropped"] for r in rows),
                "violations": sum(r["violations"] for r in rows),
                "queue_wait_ms": sum(r["queue_wait_ms"] for r in rows),
                "batch_wait_ms": sum(r["batch_wait_ms"] for r in rows),
                "service_ms": sum(r["service_ms"] for r in rows),
                "drop_ms": sum(r["drop_ms"] for r in rows),
                "response_ms": sum(r["response_ms"] for r in rows),
                "violation_excess_ms": sum(
                    r["violation_excess_ms"] for r in rows
                ),
                "blame_ms": sum(r["blame_ms"] for r in rows),
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
                            "burn": self._burn(w),
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
    # Offline fold
    # ------------------------------------------------------------------
    def fold(self, table: EventTable) -> "LatencyAttributor":
        """Fold a recorded event table through the kernel hooks, in its
        recorded order.

        ``serve`` spans feed only the decision table and instants only
        the phase / burn / exemplar state, so this is order-equivalent to
        the live interleaved stream.  Records without the lifecycle keys
        (older or foreign schemas) are skipped.
        """
        has_args = table.has_args()
        workers_of: Dict[str, int] = {}

        def track_workers(rows: np.ndarray) -> List[int]:
            out = []
            for track in table.strings_at("track", rows):
                worker = workers_of.get(track)
                if worker is None:
                    worker = workers_of[track] = _worker_from_track(track)
                out.append(worker)
            return out

        serves = table.rows(SPAN, _SERVE)
        serves = serves[has_args[serves]]
        for track_worker, worker, model, batch, exec_ms in zip(
            track_workers(serves),
            table.arg("worker", serves),
            table.arg("model", serves),
            table.arg("batch", serves),
            table.columns["dur_ms"][serves].tolist(),
        ):
            self.observe_decision(
                int(track_worker if worker is MISSING else worker),
                str("" if model is MISSING else model),
                int(1 if batch is MISSING else batch),
                float(exec_ms),
            )

        query = table.present("query")
        starts = np.zeros(len(table), np.bool_)
        starts[table.rows(INSTANT, _SERVICE_START)] = True
        starts &= query & table.present("wait_ms")
        ends = np.zeros(len(table), np.bool_)
        ends[table.rows(INSTANT, _COMPLETION)] = True
        ends &= query
        rows = np.flatnonzero(starts | ends)
        for (
            is_start, track_worker, query_id, worker, model, batch, wait_ms,
            response_ms, satisfied, dropped, ts_ms,
        ) in zip(
            starts[rows].tolist(),
            track_workers(rows),
            table.arg("query", rows),
            table.arg("worker", rows),
            table.arg("model", rows),
            table.arg("batch", rows),
            table.arg("wait_ms", rows),
            table.arg("response_ms", rows),
            table.arg("satisfied", rows),
            table.arg("dropped", rows),
            table.columns["ts_ms"][rows].tolist(),
        ):
            model = "" if model is MISSING else model
            if is_start:
                self.observe_service_start(
                    int(query_id),
                    track_worker,
                    str(model),
                    int(1 if batch is MISSING else batch),
                    float(wait_ms),
                )
            else:
                self.observe_completion(
                    int(query_id),
                    int(track_worker if worker is MISSING else worker),
                    str(model),
                    float(0.0 if response_ms is MISSING else response_ms),
                    bool(False if satisfied is MISSING else satisfied),
                    t_ms=float(ts_ms),
                    dropped=bool(False if dropped is MISSING else dropped),
                )
        return self


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
    """A fresh attributor folded over a recorded trace (spans, then
    events, each in recorded order)."""
    return attribution_from_table(EventTable.from_tracer(tracer), **kwargs)


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
