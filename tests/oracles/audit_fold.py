"""The guarantee audit one hook call per lifecycle record: the oracle of
:meth:`repro.obs.audit.GuaranteeAuditor.fold`.

:class:`HookAuditor` is the auditor with its per-record streaming hooks
— ``observe_arrival`` per arrival (one trailing-rate step and one
Page–Hinkley step), ``observe_decision`` per dispatched batch (one
occupancy count) and ``observe_completion`` per query (one window step)
— as the dispatch kernel's observer once called them live, with the
Page–Hinkley sums stepped one ``+=`` at a time (:func:`hook_update`).
:class:`~tests.oracles.lifecycle_observer.DictLifecycleObserver` feeds
it live from a kernel (``observer.attach(auditor)``).  The columnar
fold reads the same records in bulk, drain by drain; from any prior
state it must leave the windows, occupancy, drift detector, registry
series, ``audit_*`` records and alerts exactly as these hooks do.

:func:`lifecycle` builds fold input by hand: a
:class:`~repro.obs.attribution.Lifecycle` of decisions and completions.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from repro.obs.attribution import Lifecycle
from repro.obs.audit import AuditAlert, DriftEvent, GuaranteeAuditor, PageHinkley

__all__ = ["HookAuditor", "hook_update", "lifecycle"]


def hook_update(detector: PageHinkley, value: float) -> Optional[str]:
    """One Page–Hinkley step of ``detector`` on ``value``, one ``+=`` per
    sum: :meth:`PageHinkley.update_many` must leave the same state."""
    v = value / detector._reference - 1.0
    detector._n += 1
    detector._cum_up += v - detector._delta
    detector._min_up = min(detector._min_up, detector._cum_up)
    detector._cum_down += v + detector._delta
    detector._max_down = max(detector._max_down, detector._cum_down)
    if detector._n < detector._min_samples:
        return None
    if detector._cum_up - detector._min_up > detector._threshold:
        return "up"
    if detector._max_down - detector._cum_down > detector._threshold:
        return "down"
    return None


class _RateEstimator:
    """Trailing moving-average arrival rate — the load monitor's rule,
    replicated here so the auditor's drift signal is independent of
    whatever monitor the run uses (e.g. the oracle), and so ``obs`` keeps
    no import edge into the ``sim`` layer."""

    __slots__ = ("_window_ms", "_arrivals")

    def __init__(self, window_ms: float) -> None:
        self._window_ms = window_ms
        self._arrivals: Deque[float] = deque()

    def record(self, t_ms: float) -> float:
        """Fold one arrival at ``t_ms`` and return the current rate (QPS)."""
        arrivals = self._arrivals
        arrivals.append(t_ms)
        cutoff = t_ms - self._window_ms
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
        horizon = min(t_ms, self._window_ms)
        if horizon <= 0.0:
            return 0.0
        return len(arrivals) / horizon * 1000.0


class HookAuditor(GuaranteeAuditor):
    """The guarantee auditor fed one lifecycle record at a time."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rate = _RateEstimator(self._cfg.drift_window_ms)

    def observe_completion(
        self, t_ms: float, satisfied: bool, accuracy: float
    ) -> None:
        """A query ended at ``t_ms`` (``accuracy`` 0 when unsatisfied)."""
        if t_ms > self._last_ts_ms:
            self._last_ts_ms = t_ms
        if self._win_total == 0:
            self._win_start_ms = t_ms
        self._win_total += 1
        self._total += 1
        if satisfied:
            self._win_satisfied += 1
            self._satisfied += 1
            self._win_accuracy_sum += accuracy
            self._accuracy_sum += accuracy
        if self._win_total >= self._cfg.window_queries:
            self._close_window(t_ms)

    def observe_decision(
        self, queue_len: int, slack_ms: float, end_ms: float
    ) -> None:
        """A worker decided in state ``(queue_len, slack_ms)``; its batch
        runs until ``end_ms``."""
        if end_ms > self._last_ts_ms:
            self._last_ts_ms = end_ms
        policy = self._policy
        if policy is None:
            return
        if queue_len > policy.max_queue:
            key = "full"
        else:
            key = f"{queue_len},{policy.grid.floor_index(slack_ms)}"
        self._occupancy[key] = self._occupancy.get(key, 0) + 1
        self._epochs += 1

    def observe_arrival(self, t_ms: float) -> None:
        """A query arrived at ``t_ms`` (feeds the load-drift audit)."""
        if t_ms > self._last_ts_ms:
            self._last_ts_ms = t_ms
        realized = self._rate.record(t_ms)
        if self._detector is None or not self._drift_armed:
            return
        direction = hook_update(self._detector, realized)
        if direction is None:
            return
        # Only flag once the realized level actually sits outside the
        # active policy's tolerance band (the PH statistic is cumulative
        # and can fire on a past excursion that already receded).
        reference = self._detector.reference
        if direction == "up" and realized <= reference * (1.0 + self._cfg.drift_delta):
            return
        if direction == "down" and realized >= reference * (1.0 - self._cfg.drift_delta):
            return
        event = DriftEvent(
            t_ms=t_ms,
            direction=direction,
            realized_qps=realized,
            reference_qps=reference,
        )
        self._drift_events.append(event)
        self._drift_armed = False  # one alarm per policy period
        if self._c_drift is not None:
            self._c_drift.inc()
        self.inner.instant(
            "audit_drift",
            "audit",
            t_ms,
            category="audit",
            args=event.to_json_dict(),
        )
        self._alert(
            AuditAlert(kind="load-drift", t_ms=t_ms, detail=event.to_json_dict())
        )


def lifecycle(
    decisions: Sequence[Tuple[int, float]] = (),
    completions: Sequence[Tuple[float, bool, float]] = (),
    dropped: bool = False,
) -> Lifecycle:
    """Fold input of ``decisions`` ``(queue_len, slack_ms)`` followed by
    ``completions`` ``(t_ms, satisfied, accuracy)`` (``accuracy`` is
    read only when satisfied), on one worker and one model; completion
    ``i`` is query ``i``'s, a drop or rejection when ``dropped``."""
    d, e = len(decisions), len(completions)
    queue_len = np.array([q for q, _ in decisions], np.int64)
    slack_ms = np.array([s for _, s in decisions], np.float64)
    t = np.array([c[0] for c in completions], np.float64)
    satisfied = np.array([c[1] for c in completions], np.bool_)
    accuracy = np.array([c[2] for c in completions], np.float64)
    ints = np.zeros(d, np.int64)
    ends = np.zeros(e, np.int64)
    return Lifecycle(
        names=["model"],
        d_worker=ints,
        d_model=ints,
        d_batch=ints + 1,
        d_exec_ms=np.ones(d),
        d_at=ints,
        d_queue_len=queue_len,
        d_slack_ms=slack_ms,
        is_start=np.zeros(e, np.bool_),
        s_query=ends[:0],
        s_worker=ends[:0],
        s_model=ends[:0],
        s_batch=ends[:0],
        s_wait_ms=np.zeros(0),
        e_query=np.arange(e),
        e_worker=ends,
        e_model=ends,
        e_response_ms=np.zeros(e),
        e_satisfied=satisfied,
        e_dropped=np.full(e, dropped),
        e_t_ms=t,
        e_accuracy=np.where(satisfied, accuracy, 0.0),
        # A drop or rejection comes right after its own arrival; the
        # completions of a plain drain come before any arrival.
        e_arrived=np.arange(1, e + 1) if dropped else ends,
    )
