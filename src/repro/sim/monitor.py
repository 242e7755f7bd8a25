"""Query-load monitoring (§3.2.2, §6 "Load Monitor").

RAMSIS and all baselines share one load monitor that tracks query load as a
moving average of central-queue arrivals over a 500 ms window.  For the
constant-load experiments (§7.2) the paper assumes the monitor perfectly
predicts the load to isolate MS&S quality from prediction error;
:class:`OracleLoadMonitor` provides that mode.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.arrivals.traces import LoadTrace
from repro.obs.metrics import MetricsRegistry

__all__ = ["LoadMonitor", "OracleLoadMonitor"]


class LoadMonitor:
    """Moving-average arrival-rate estimator.

    ``record_arrival`` is called for every central-queue arrival;
    ``anticipated_load_qps(now)`` returns the average rate over the trailing
    ``window_ms`` (500 ms in the paper).  ``realized_load_qps`` always
    reports the trailing moving average, so subclasses that *anticipate*
    differently (the oracle) can be compared against what actually arrived
    — :meth:`attach_registry` publishes both as gauge time series.
    """

    def __init__(self, window_ms: float = 500.0) -> None:
        if window_ms <= 0:
            raise ValueError(f"window_ms must be > 0, got {window_ms}")
        self._window_ms = window_ms
        self._arrivals: Deque[float] = deque()
        self._c_arrivals = None
        self._g_anticipated = None
        self._g_realized = None

    @property
    def window_ms(self) -> float:
        """Averaging window length."""
        return self._window_ms

    @property
    def publishing(self) -> bool:
        """Whether a registry is attached (every call then publishes)."""
        return self._c_arrivals is not None

    def attach_registry(self, registry: Optional[MetricsRegistry]) -> None:
        """Publish arrivals and anticipated/realized load into ``registry``
        (pass ``None`` to detach)."""
        if registry is None:
            self._c_arrivals = self._g_anticipated = self._g_realized = None
            return
        self._c_arrivals = registry.counter(
            "monitor_arrivals_total", help="arrivals seen by the load monitor"
        )
        self._g_anticipated = registry.gauge(
            "monitor_anticipated_load_qps",
            help="load the monitor reports to selectors",
        )
        self._g_realized = registry.gauge(
            "monitor_realized_load_qps",
            help="trailing moving-average arrival rate",
        )

    def record_arrival(self, t_ms: float) -> None:
        """Note one arrival at time ``t_ms`` (non-decreasing)."""
        arrivals = self._arrivals
        arrivals.append(t_ms)
        cutoff = t_ms - self._window_ms
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
        if self._c_arrivals is not None:
            self._c_arrivals.inc()
            self._g_realized.set(self.realized_load_qps(t_ms), t_ms=t_ms)
            self._g_anticipated.set(self.anticipated_load_qps(t_ms), t_ms=t_ms)

    def anticipated_load_qps(self, now_ms: float) -> float:
        """Estimated query load at ``now_ms`` in queries per second.

        Before a full window has elapsed, the denominator is the elapsed
        time so early estimates are not biased low.
        """
        return self.realized_load_qps(now_ms)

    def realized_load_qps(self, now_ms: float) -> float:
        """Trailing moving-average arrival rate at ``now_ms`` (QPS)."""
        arrivals = self._arrivals
        cutoff = now_ms - self._window_ms
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
        if not arrivals:
            return 0.0
        horizon = min(now_ms, self._window_ms)
        if horizon <= 0:
            return 0.0
        return len(arrivals) / horizon * 1000.0

    def reset(self) -> None:
        """Forget all recorded arrivals.

        Attached gauges are cleared too — a monitor reused across runs
        would otherwise export the previous run's load series — and
        republished at zero so the post-reset state is visible rather
        than NaN.  The arrivals counter stays monotonic, per the usual
        counter semantics.
        """
        self._arrivals.clear()
        for gauge in (self._g_anticipated, self._g_realized):
            if gauge is not None:
                gauge.clear()
                gauge.set(0.0)


class OracleLoadMonitor(LoadMonitor):
    """A monitor that reads the true load off the trace (§7.2's setting)."""

    def __init__(self, trace: LoadTrace) -> None:
        super().__init__(window_ms=500.0)
        self._trace = trace

    @property
    def trace(self) -> LoadTrace:
        """The trace whose true load this monitor reports."""
        return self._trace

    def anticipated_load_qps(self, now_ms: float) -> float:
        clamped = min(max(now_ms, 0.0), self._trace.duration_ms - 1e-9)
        return self._trace.load_at(clamped)
