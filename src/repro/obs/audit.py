"""Live guarantee auditing: online validation of the §5.1 bounds.

The §5.1 analysis promises that a policy's **expected accuracy** is a lower
bound on online accuracy per satisfied query and its **expected SLO
violation rate** an upper bound on the online violation rate.  Offline the
repo checks this in batch (Tables 3/4); :class:`GuaranteeAuditor` checks it
*while a run is in flight*, turning the static guarantees into a runtime
contract:

1. **Bound audit** — per sliding window of completions, the observed
   violation rate and accuracy per satisfied query are estimated with a
   confidence interval (Wilson for proportions, Hoeffding for the bounded
   accuracy mean) and compared against the active policy's
   :class:`~repro.core.guarantees.PolicyGuarantees`.  A window is verdicted
   ``ok`` unless the *entire* interval sits on the wrong side of the bound
   (``bound-breach-beyond-CI``) — sampling noise alone never raises a
   breach.
2. **Occupancy audit** — every MS&S decision observes the worker state
   ``(n, T_j)``; the empirical decision-epoch histogram is compared by
   total-variation distance against the §5.1 stationary distribution
   (:func:`~repro.core.guarantees.stationary_occupancy`), validating the
   power-iteration machinery online.
3. **Load-drift audit** — a two-sided Page–Hinkley detector runs on the
   realized arrival rate (the auditor keeps its own moving-average
   monitor) and flags when load leaves the active policy's profiled
   operating point before the selector has switched policies.

The auditor is not called on the dispatch path.  Attached as
``SimulationConfig(auditor=...)`` or a serving shard's ``auditors=``, it
is folded from the dispatch kernel's lifecycle capture
(:class:`~repro.sim.kernel.LifecycleObserver`), as the latency
attributor is: :meth:`GuaranteeAuditor.fold` reads a drain's
:class:`~repro.obs.attribution.Lifecycle` columns and the arrival times
processed with them, in columns, and leaves the state, records and
alerts of one audit step per arrival, decision and completion in kernel
order.  A simulation folds once, when its run ends; a serve as each
shard's capture grows and at its end.  The auditor emits its own
``audit_*`` events onto an ``audit`` track of an optional ``inner``
tracer (e.g. the run's :class:`~repro.obs.trace.RecordingTracer`), so
verdicts flow through the JSONL/Chrome exporters unchanged.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.guarantees import PolicyGuarantees, TotalVariation
from repro.core.policy import Policy
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from repro.obs.attribution import Lifecycle

__all__ = [
    "wilson_interval",
    "hoeffding_interval",
    "PageHinkley",
    "AuditBounds",
    "AuditConfig",
    "AuditAlert",
    "WindowVerdict",
    "DriftEvent",
    "OccupancySummary",
    "AuditReport",
    "GuaranteeAuditor",
    "sharded_audit_json",
]

#: Window verdict when the whole confidence interval violates a bound.
BREACH = "bound-breach-beyond-CI"
#: Window verdict when the bound is compatible with the observations.
OK = "ok"
#: Verdict when no predicted bound was configured for the check.
UNCHECKED = "unchecked"


# ----------------------------------------------------------------------
# Interval estimators
# ----------------------------------------------------------------------
def wilson_interval(
    successes: int, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Returns the trivial ``(0, 1)`` interval when ``total`` is zero, so
    empty windows can never breach a bound.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if total <= 0:
        return (0.0, 1.0)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2.0 * total)) / denom
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total))
        / denom
    )
    return (max(0.0, center - half), min(1.0, center + half))


def hoeffding_interval(
    mean: float, total: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Hoeffding interval for the mean of ``total`` values bounded in [0, 1]."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if total <= 0:
        return (0.0, 1.0)
    epsilon = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * total))
    return (max(0.0, mean - epsilon), min(1.0, mean + epsilon))


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------
class PageHinkley:
    """Two-sided Page–Hinkley change detector on a normalized stream.

    Samples are fed as ``value / reference - 1`` so the tolerance
    (``delta``) and alarm threshold (``threshold``) are fractions of the
    reference level, independent of the absolute load.  ``update`` returns
    ``"up"``/``"down"`` on the step that crosses the threshold, else
    ``None``; :meth:`reset` re-arms the detector around a new reference.
    """

    def __init__(
        self,
        reference: float,
        delta: float = 0.15,
        threshold: float = 8.0,
        min_samples: int = 30,
    ) -> None:
        if reference <= 0.0:
            raise ValueError(f"reference must be > 0, got {reference}")
        self._reference = reference
        self._delta = delta
        self._threshold = threshold
        self._min_samples = min_samples
        self.reset(reference)

    @property
    def reference(self) -> float:
        """The level deviations are measured against."""
        return self._reference

    def reset(self, reference: Optional[float] = None) -> None:
        """Re-arm around ``reference`` (default: keep the current one)."""
        if reference is not None:
            if reference <= 0.0:
                raise ValueError(f"reference must be > 0, got {reference}")
            self._reference = reference
        self._n = 0
        self._cum_up = 0.0
        self._min_up = 0.0
        self._cum_down = 0.0
        self._max_down = 0.0

    def update(self, value: float) -> Optional[str]:
        """Fold one observation; returns the drift direction on alarm."""
        alarm = self.update_many(np.array([value]))
        return None if alarm is None else alarm[1]

    def update_many(
        self,
        values: np.ndarray,
        up_ok: Optional[np.ndarray] = None,
        down_ok: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[int, str]]:
        """Fold ``values`` in order up to the first alarm that its
        direction's mask (``up_ok`` / ``down_ok``, default all) admits at
        that sample: returns ``(index, direction)`` with the detector
        folded through that sample, or ``None`` with every value folded.
        The sums run in order (``np.cumsum``), so the state is bitwise
        that of one :meth:`update` per value."""
        v = values / self._reference - 1.0
        up = np.cumsum(np.concatenate(([self._cum_up], v - self._delta)))[1:]
        low = np.minimum.accumulate(np.concatenate(([self._min_up], up)))[1:]
        down = np.cumsum(np.concatenate(([self._cum_down], v + self._delta)))[1:]
        high = np.maximum.accumulate(np.concatenate(([self._max_down], down)))[1:]
        n = self._n + np.arange(1, v.size + 1)
        rising = up - low > self._threshold
        falling = ~rising & (high - down > self._threshold)
        live = n >= self._min_samples
        rises = live & rising & (True if up_ok is None else up_ok)
        falls = live & falling & (True if down_ok is None else down_ok)
        hits = np.flatnonzero(rises | falls)
        last = hits[0] if hits.size else v.size - 1
        if v.size:
            self._n = int(n[last])
            self._cum_up, self._min_up = float(up[last]), float(low[last])
            self._cum_down, self._max_down = float(down[last]), float(high[last])
        if not hits.size:
            return None
        return int(last), "up" if rises[last] else "down"


# ----------------------------------------------------------------------
# Configuration and result records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AuditBounds:
    """The predicted §5.1 bounds a run is audited against."""

    accuracy_floor: float
    violation_ceiling: float

    @staticmethod
    def from_guarantees(guarantees: PolicyGuarantees) -> "AuditBounds":
        """Headline (per-query-weighted) bounds of a policy evaluation."""
        return AuditBounds(
            accuracy_floor=guarantees.expected_accuracy,
            violation_ceiling=guarantees.expected_violation_rate,
        )


@dataclass(frozen=True)
class AuditConfig:
    """Knobs of the streaming auditor (defaults documented in README)."""

    #: Completions per audit window.
    window_queries: int = 200
    #: Two-sided confidence level of the window intervals.
    confidence: float = 0.95
    #: TV distance above which the occupancy audit reports divergence.
    tv_threshold: float = 0.25
    #: Decision epochs required before the TV verdict is trusted.
    min_occupancy_epochs: int = 200
    #: Averaging window of the auditor's own realized-load monitor.
    drift_window_ms: float = 2000.0
    #: Page–Hinkley tolerance / alarm threshold (fractions of reference).
    drift_delta: float = 0.15
    drift_threshold: float = 8.0
    #: Arrivals required before the drift detector may alarm.
    drift_min_samples: int = 30

    def __post_init__(self) -> None:
        if self.window_queries < 1:
            raise ValueError(
                f"window_queries must be >= 1, got {self.window_queries}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")


@dataclass(frozen=True)
class AuditAlert:
    """One alert delivered to registered callbacks."""

    kind: str  # violation-bound-breach | accuracy-bound-breach |
    #          occupancy-divergence | load-drift
    t_ms: float
    detail: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WindowVerdict:
    """Bound-audit outcome of one completion window."""

    index: int
    start_ms: float
    end_ms: float
    queries: int
    satisfied: int
    violation_rate: float
    violation_ci: Tuple[float, float]
    accuracy: float
    accuracy_ci: Tuple[float, float]
    violation_verdict: str
    accuracy_verdict: str
    occupancy_tv: Optional[float] = None

    @property
    def ok(self) -> bool:
        """True when neither bound is breached beyond its CI."""
        return BREACH not in (self.violation_verdict, self.accuracy_verdict)

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "index": self.index,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "queries": self.queries,
            "satisfied": self.satisfied,
            "violation_rate": self.violation_rate,
            "violation_ci": list(self.violation_ci),
            "accuracy": self.accuracy,
            "accuracy_ci": list(self.accuracy_ci),
            "violation_verdict": self.violation_verdict,
            "accuracy_verdict": self.accuracy_verdict,
            "occupancy_tv": self.occupancy_tv,
        }


@dataclass(frozen=True)
class DriftEvent:
    """One load-drift alarm."""

    t_ms: float
    direction: str  # "up" | "down"
    realized_qps: float
    reference_qps: float

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "t_ms": self.t_ms,
            "direction": self.direction,
            "realized_qps": self.realized_qps,
            "reference_qps": self.reference_qps,
        }


@dataclass(frozen=True)
class OccupancySummary:
    """Final occupancy-audit outcome."""

    tv_distance: float
    decision_epochs: int
    threshold: float
    trusted: bool  # enough epochs to evaluate the threshold

    @property
    def diverged(self) -> bool:
        """True when the empirical occupancy left the predicted one."""
        return self.trusted and self.tv_distance > self.threshold

    def to_json_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "tv_distance": self.tv_distance,
            "decision_epochs": self.decision_epochs,
            "threshold": self.threshold,
            "trusted": self.trusted,
            "diverged": self.diverged,
        }


@dataclass(frozen=True)
class AuditReport:
    """Everything the auditor concluded about one run."""

    bounds: Optional[AuditBounds]
    windows: Tuple[WindowVerdict, ...]
    violation_breaches: int
    accuracy_breaches: int
    occupancy: Optional[OccupancySummary]
    drift_events: Tuple[DriftEvent, ...]
    policy_switches: int
    total_queries: int
    satisfied_queries: int
    observed_violation_rate: float
    observed_accuracy: float

    @property
    def ok(self) -> bool:
        """True when no bound breach, occupancy divergence, or drift."""
        return (
            self.violation_breaches == 0
            and self.accuracy_breaches == 0
            and not (self.occupancy is not None and self.occupancy.diverged)
            and not self.drift_events
        )

    @property
    def verdict(self) -> str:
        """``ok`` or a comma-joined list of what went wrong."""
        if self.ok:
            return OK
        problems = []
        if self.violation_breaches:
            problems.append("violation-bound-breach")
        if self.accuracy_breaches:
            problems.append("accuracy-bound-breach")
        if self.occupancy is not None and self.occupancy.diverged:
            problems.append("occupancy-divergence")
        if self.drift_events:
            problems.append("load-drift")
        return ",".join(problems)

    def to_json_dict(self) -> Dict[str, Any]:
        """The ``ramsis audit`` report schema."""
        return {
            "verdict": self.verdict,
            "ok": self.ok,
            "bounds": (
                None
                if self.bounds is None
                else {
                    "accuracy_floor": self.bounds.accuracy_floor,
                    "violation_ceiling": self.bounds.violation_ceiling,
                }
            ),
            "windows": [w.to_json_dict() for w in self.windows],
            "violation_breaches": self.violation_breaches,
            "accuracy_breaches": self.accuracy_breaches,
            "occupancy": (
                None if self.occupancy is None else self.occupancy.to_json_dict()
            ),
            "drift_events": [d.to_json_dict() for d in self.drift_events],
            "policy_switches": self.policy_switches,
            "total_queries": self.total_queries,
            "satisfied_queries": self.satisfied_queries,
            "observed_violation_rate": self.observed_violation_rate,
            "observed_accuracy": self.observed_accuracy,
        }

    def render_text(self) -> str:
        """Human-readable multi-line report."""
        from repro.experiments.reporting import format_table

        lines: List[str] = [f"Audit verdict: {self.verdict}"]
        if self.bounds is not None:
            lines.append(
                f"predicted bounds: accuracy >= "
                f"{self.bounds.accuracy_floor * 100:.2f}%, violations <= "
                f"{self.bounds.violation_ceiling * 100:.3f}%"
            )
        lines.append(
            f"observed: accuracy {self.observed_accuracy * 100:.2f}%, "
            f"violations {self.observed_violation_rate * 100:.3f}% over "
            f"{self.total_queries} queries"
        )
        if self.occupancy is not None:
            occ = self.occupancy
            status = "diverged" if occ.diverged else (
                "ok" if occ.trusted else "insufficient epochs"
            )
            lines.append(
                f"occupancy: TV {occ.tv_distance:.4f} over "
                f"{occ.decision_epochs} decision epochs "
                f"(threshold {occ.threshold:g}) — {status}"
            )
        if self.drift_events:
            for d in self.drift_events:
                lines.append(
                    f"load drift ({d.direction}) at t={d.t_ms / 1000.0:.1f}s: "
                    f"realized {d.realized_qps:.1f} QPS vs policy reference "
                    f"{d.reference_qps:.1f} QPS"
                )
        else:
            lines.append("load drift: none")
        if self.policy_switches:
            lines.append(f"policy switches observed: {self.policy_switches}")
        if self.windows:
            rows = []
            for w in self.windows:
                rows.append(
                    (
                        w.index,
                        f"{w.end_ms / 1000.0:.1f}",
                        w.queries,
                        f"{w.violation_rate * 100:.2f}%"
                        f" [{w.violation_ci[0] * 100:.2f}, {w.violation_ci[1] * 100:.2f}]",
                        w.violation_verdict,
                        f"{w.accuracy * 100:.2f}%"
                        f" [{w.accuracy_ci[0] * 100:.2f}, {w.accuracy_ci[1] * 100:.2f}]",
                        w.accuracy_verdict,
                    )
                )
            lines.append("")
            lines.append(
                format_table(
                    [
                        "window",
                        "t end (s)",
                        "queries",
                        "violation rate [CI %]",
                        "verdict",
                        "accuracy [CI %]",
                        "verdict",
                    ],
                    rows,
                    title="Per-window bound audit",
                )
            )
        return "\n".join(lines)


def sharded_audit_json(audits: Sequence[AuditReport]) -> Dict[str, Any]:
    """A sharded serve's ``audit.json``: each shard's report
    (:meth:`AuditReport.to_json_dict`) under ``shards``, plus the run's
    ``ok``, bound ``breaches`` and closed ``windows`` that ``ramsis
    report`` summarizes."""
    return {
        "ok": all(a.ok for a in audits),
        "windows": [w.to_json_dict() for a in audits for w in a.windows],
        "breaches": sum(
            a.violation_breaches + a.accuracy_breaches for a in audits
        ),
        "shards": [a.to_json_dict() for a in audits],
    }


# ----------------------------------------------------------------------
# The streaming auditor
# ----------------------------------------------------------------------
class GuaranteeAuditor:
    """Folds a run's lifecycle records and audits them against §5.1.

    Parameters
    ----------
    bounds:
        Predicted bounds, as :class:`AuditBounds` or a
        :class:`~repro.core.guarantees.PolicyGuarantees`; ``None`` leaves
        the bound audit ``unchecked`` (occupancy/drift still run).
    policy:
        The active policy — supplies the slack grid and ``N_w`` used to
        quantize observed decision states, and the default drift
        reference (its generation load).
    expected_occupancy:
        The predicted decision-epoch distribution, normally
        ``stationary_occupancy(mdp, policy).decision_conditional()``.
        ``None`` disables the occupancy audit.
    inner:
        Optional tracer receiving the auditor's own ``audit_*`` records.
    registry:
        Optional metrics registry receiving ``audit_*`` counters/gauges.
    reference_load_qps:
        Drift-detector reference; defaults to ``policy.load_qps``.
    """

    def __init__(
        self,
        bounds: Optional[object] = None,
        *,
        policy: Optional[Policy] = None,
        expected_occupancy: Optional[Mapping[str, float]] = None,
        config: Optional[AuditConfig] = None,
        inner: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        reference_load_qps: Optional[float] = None,
    ) -> None:
        #: Where the ``audit_*`` records go (``NULL_TRACER`` if none).
        self.inner: Tracer = inner if inner is not None else NULL_TRACER
        if isinstance(bounds, PolicyGuarantees):
            bounds = AuditBounds.from_guarantees(bounds)
        if bounds is not None and not isinstance(bounds, AuditBounds):
            raise TypeError(
                f"bounds must be AuditBounds or PolicyGuarantees, got {type(bounds)}"
            )
        self._bounds: Optional[AuditBounds] = bounds
        self._policy = policy
        self._expected_tv = (
            TotalVariation(expected_occupancy) if expected_occupancy else None
        )
        self._cfg = config or AuditConfig()
        self._alert_callbacks: List[Callable[[AuditAlert], None]] = []

        # Window accumulator.
        self._windows: List[WindowVerdict] = []
        self._win_start_ms = 0.0
        self._win_total = 0
        self._win_satisfied = 0
        self._win_accuracy_sum = 0.0
        # Run-cumulative tallies.
        self._total = 0
        self._satisfied = 0
        self._accuracy_sum = 0.0
        self._violation_breaches = 0
        self._accuracy_breaches = 0

        # Occupancy accumulator (empirical decision-epoch histogram).
        self._occupancy: Dict[str, int] = {}
        self._epochs = 0

        # Drift detector over the auditor's own realized-load estimate:
        # the trailing moving-average arrival rate (the load monitor's
        # rule, replicated so the drift signal is independent of the
        # run's monitor), over the arrivals still inside its window.
        self._recent = np.empty(0)
        reference = reference_load_qps
        if reference is None and policy is not None:
            reference = policy.load_qps
        self._detector: Optional[PageHinkley] = None
        if reference is not None and reference > 0.0:
            self._detector = self._detector_for(reference)
        self._drift_events: List[DriftEvent] = []
        self._drift_armed = True
        self._policy_switches = 0
        self._last_ts_ms = 0.0
        self._report: Optional[AuditReport] = None
        # Where the fold stands: arrivals and lifecycle records folded,
        # the source's count of them (:meth:`attach`), and the policy
        # switches noted ahead of the fold.
        self._arrived = self._records = 0
        self._position: Callable[[], Tuple[int, int]] = lambda: (
            self._arrived, self._records
        )
        self._pending: List[Tuple[Tuple[int, int], Policy, float]] = []

        if registry is not None:
            self._c_windows = registry.counter(
                "audit_windows_total", help="audit windows closed"
            )
            self._c_breach_viol = registry.counter(
                "audit_breaches_total",
                help="windows breaching a §5.1 bound beyond CI",
                labels={"bound": "violation"},
            )
            self._c_breach_acc = registry.counter(
                "audit_breaches_total",
                help="windows breaching a §5.1 bound beyond CI",
                labels={"bound": "accuracy"},
            )
            self._c_drift = registry.counter(
                "audit_drift_alarms_total", help="load-drift alarms raised"
            )
            self._g_violation = registry.gauge(
                "audit_window_violation_rate",
                help="observed violation rate per audit window",
            )
            self._g_accuracy = registry.gauge(
                "audit_window_accuracy",
                help="observed accuracy per satisfied query per audit window",
            )
            self._g_tv = registry.gauge(
                "audit_occupancy_tv",
                help="TV distance of empirical occupancy vs §5.1 prediction",
            )
        else:
            self._c_windows = self._c_breach_viol = self._c_breach_acc = None
            self._c_drift = self._g_violation = self._g_accuracy = None
            self._g_tv = None

    # ------------------------------------------------------------------
    # Configuration / policy switches
    # ------------------------------------------------------------------
    @property
    def config(self) -> AuditConfig:
        """The auditor's knobs."""
        return self._cfg

    @property
    def bounds(self) -> Optional[AuditBounds]:
        """The bounds currently audited against."""
        return self._bounds

    def add_alert_callback(self, callback: Callable[[AuditAlert], None]) -> None:
        """Register an alert-rule callback (called synchronously)."""
        self._alert_callbacks.append(callback)

    def emit_alert(self, alert: AuditAlert) -> None:
        """Inject an externally produced alert into this auditor's stream.

        Lets sibling monitors — e.g.
        :class:`repro.obs.attribution.LatencyAttributor`'s SLO burn-rate
        tracker (``alert_sink=auditor.emit_alert``) — fan their alerts
        through the same registered callbacks as native audit alerts.
        """
        self._alert(alert)

    def attach(
        self, position: Callable[[], Tuple[int, int]], base: int = 0, stride: int = 1
    ) -> None:
        """Fold from a kernel observer's capture: ``position()`` counts its
        arrivals and lifecycle records, to place noted policy switches.
        The source's id layout (kernel-local query ``j`` is the global id
        ``base + j * stride``) is not needed: each completion carries the
        arrivals before it (:attr:`~repro.obs.attribution.Lifecycle.e_arrived`)."""
        self._position = position
        self._arrived = self._records = 0

    def note_policy(self, policy: Policy, now_ms: float) -> None:
        """Selector hook: the effective policy changed at ``now_ms``.

        Re-arms the drift detector around the new policy's load and, when
        the policy carries §5.1 metadata, switches the audited bounds.
        Matches :class:`~repro.selectors.ramsis.RamsisSelector`'s
        ``on_policy_change`` signature.  The switch is stamped with the
        attached source's position (zero before the run, the folded
        position when detached) and takes effect when the fold reaches
        that point: at once when nothing before it is left to fold.
        """
        at = self._position()
        if self._pending or at != (self._arrived, self._records):
            self._pending.append((at, policy, now_ms))
        else:
            self._switch(policy, now_ms)

    def _detector_for(self, reference: float) -> PageHinkley:
        cfg = self._cfg
        return PageHinkley(
            reference,
            delta=cfg.drift_delta,
            threshold=cfg.drift_threshold,
            min_samples=cfg.drift_min_samples,
        )

    def _switch(self, policy: Policy, now_ms: float) -> None:
        """Apply one noted policy change."""
        switched = self._policy is not policy and not (
            self._policy is None and self._policy_switches == 0
        )
        if switched:
            self._policy_switches += 1
        self._policy = policy
        meta = policy.metadata
        if meta.expected_accuracy is not None and meta.expected_violation_rate is not None:
            self._bounds = AuditBounds(
                accuracy_floor=meta.expected_accuracy,
                violation_ceiling=meta.expected_violation_rate,
            )
        if policy.load_qps > 0.0:
            self._detector = self._detector_for(policy.load_qps)
        self._drift_armed = True
        if switched:
            self.inner.instant(
                "audit_policy_switch",
                "audit",
                now_ms,
                category="audit",
                args={"load_qps": policy.load_qps},
            )

    # ------------------------------------------------------------------
    # The fold
    # ------------------------------------------------------------------
    def fold(self, lifecycle: "Lifecycle", arrivals: np.ndarray) -> "GuaranteeAuditor":
        """Fold one drain: its lifecycle columns and the arrival times
        (ms, non-decreasing) processed with them.

        From any prior state this leaves the windows, occupancy, drift
        detector, registry series, ``audit_*`` records and alerts exactly
        as one audit step per arrival, decision and completion in kernel
        order would.  Noted policy switches split the drain at their
        stamps; each completion's place among the arrivals is the count of
        arrivals recorded before it (``lifecycle.e_arrived``), so it
        follows the kernel's order.  Windows, the occupancy
        histogram, the trailing arrival rate and the Page–Hinkley sums
        are computed in columns, every sum in order.
        """
        lc, arrivals = lifecycle, np.asarray(arrivals, np.float64)
        ended = ~lc.is_start
        # Each decision's place among the drain's records (decisions and
        # query events), the unit switch stamps count in.
        records = lc.d_at + np.arange(lc.d_at.size)
        # Per completion: the drain's arrivals and decisions before it.
        before = (
            lc.e_arrived - self._arrived,
            np.searchsorted(lc.d_at, np.flatnonzero(ended), "right"),
        )
        rates = self._rates(arrivals)
        for times in (arrivals, lc.e_t_ms):
            if times.size:
                self._last_ts_ms = max(self._last_ts_ms, float(times.max()))
        end = (self._arrived + arrivals.size, self._records + records.size + ended.size)
        cuts = []  # (arrivals, decisions, completions) before each switch
        while self._pending and all(s <= e for s, e in zip(self._pending[0][0], end)):
            (a, r), policy, now_ms = self._pending.pop(0)
            r -= self._records
            d = int(np.searchsorted(records, r))
            cuts.append((a - self._arrived, d, int(np.count_nonzero(ended[: r - d])), policy, now_ms))
        lo = (0, 0, 0)
        for a, d, e, *switch in [*cuts, (arrivals.size, records.size, lc.e_t_ms.size)]:
            self._fold_segment(lc, arrivals, rates, before, lo, (a, d, e))
            if switch:
                self._switch(*switch)
            lo = (a, d, e)
        self._arrived, self._records = end
        return self

    def _rates(self, arrivals: np.ndarray) -> np.ndarray:
        """The trailing arrival rate (QPS) at each of ``arrivals``."""
        window = self._cfg.drift_window_ms
        times = np.concatenate([self._recent, arrivals])
        held = np.arange(self._recent.size + 1, times.size + 1)
        counts = held - np.searchsorted(times, arrivals - window)
        horizon = np.minimum(arrivals, window)
        rates = np.zeros(arrivals.size)
        np.divide(counts, horizon, out=rates, where=horizon > 0.0)
        if times.size:
            self._recent = times[np.searchsorted(times, times[-1] - window):]
        return rates * 1000.0

    def _fold_segment(self, lc, arrivals, rates, before, lo, hi) -> None:
        """Arrivals, decisions and completions ``lo`` to ``hi``, under one
        policy, with their records and alerts in kernel order."""
        (a0, d0, e0), (a1, d1, e1) = lo, hi
        drift = None
        detector = self._detector
        if detector is not None and self._drift_armed and a1 > a0:
            # Only flag once the realized level actually sits outside the
            # active policy's tolerance band (the PH statistic is
            # cumulative and can fire on a past excursion that already
            # receded).
            reference, delta = detector.reference, self._cfg.drift_delta
            realized = rates[a0:a1]
            alarm = detector.update_many(
                realized,
                realized > reference * (1.0 + delta),
                realized < reference * (1.0 - delta),
            )
            if alarm is not None:
                self._drift_armed = False  # one alarm per policy period
                i, direction = alarm
                drift = a0 + i, DriftEvent(
                    float(arrivals[a0 + i]), direction, float(realized[i]), reference
                )
        t = lc.e_t_ms[e0:e1].tolist()
        satisfied, accuracy = lc.e_satisfied[e0:e1], lc.e_accuracy[e0:e1]
        counted, start, size = d0, 0, self._cfg.window_queries
        for q in range(size - self._win_total - 1, e1 - e0, size):
            self._add_completions(t, satisfied, accuracy, start, q + 1)
            decided = int(before[1][e0 + q])
            self._add_states(lc, counted, decided)
            counted, start = decided, q + 1
            if drift is not None and drift[0] < before[0][e0 + q]:
                self._raise_drift(drift[1])
                drift = None
            self._close_window(t[q])
        self._add_completions(t, satisfied, accuracy, start, e1 - e0)
        self._add_states(lc, counted, d1)
        if drift is not None:
            self._raise_drift(drift[1])

    def _raise_drift(self, event: DriftEvent) -> None:
        self._drift_events.append(event)
        if self._c_drift is not None:
            self._c_drift.inc()
        self.inner.instant(
            "audit_drift",
            "audit",
            event.t_ms,
            category="audit",
            args=event.to_json_dict(),
        )
        self._alert(
            AuditAlert(kind="load-drift", t_ms=event.t_ms, detail=event.to_json_dict())
        )

    def _add_states(self, lc: "Lifecycle", lo: int, hi: int) -> None:
        """Count decisions ``lo`` to ``hi`` into the occupancy histogram,
        each state on the active policy's grid (none without a policy)."""
        policy = self._policy
        if policy is None or hi <= lo:
            return
        queue_len, slack_ms = lc.d_queue_len[lo:hi], lc.d_slack_ms[lo:hi]
        grid = np.asarray(policy.grid.values)
        # TimeGrid.floor_index over the array.
        index = np.clip(np.searchsorted(grid, slack_ms, "right") - 1, 0, grid.size - 1)
        index[slack_ms <= 0.0] = 0
        full = queue_len > policy.max_queue
        states = np.where(full, -1, queue_len * grid.size + index)
        for code, count in Counter(states.tolist()).items():
            key = "full" if code < 0 else f"{code // grid.size},{code % grid.size}"
            self._occupancy[key] = self._occupancy.get(key, 0) + count
        self._epochs += hi - lo

    def _add_completions(self, t, satisfied, accuracy, lo: int, hi: int) -> None:
        """Completions ``lo`` to ``hi`` into the open window and the run
        tallies, the accuracy sums in order."""
        if hi <= lo:
            return
        if self._win_total == 0:
            self._win_start_ms = t[lo]
        met = satisfied[lo:hi]
        gained = accuracy[lo:hi][met]
        hits = int(np.count_nonzero(met))
        self._win_total += hi - lo
        self._total += hi - lo
        self._win_satisfied += hits
        self._satisfied += hits
        if hits:
            self._win_accuracy_sum = float(np.cumsum([self._win_accuracy_sum, *gained])[-1])
            self._accuracy_sum = float(np.cumsum([self._accuracy_sum, *gained])[-1])

    # ------------------------------------------------------------------
    # Window evaluation
    # ------------------------------------------------------------------
    def _close_window(self, end_ms: float) -> None:
        total = self._win_total
        satisfied = self._win_satisfied
        violations = total - satisfied
        violation_rate = 0.0 if total == 0 else violations / total
        accuracy = 0.0 if satisfied == 0 else self._win_accuracy_sum / satisfied
        violation_ci = wilson_interval(
            violations, total, self._cfg.confidence
        )
        accuracy_ci = hoeffding_interval(accuracy, satisfied, self._cfg.confidence)

        if self._bounds is None:
            violation_verdict = accuracy_verdict = UNCHECKED
        else:
            # The §5.1 numbers are one-sided bounds: breach only when the
            # whole interval sits on the wrong side.
            violation_verdict = (
                BREACH if violation_ci[0] > self._bounds.violation_ceiling else OK
            )
            # An all-violations window has no satisfied queries to average;
            # treat its accuracy as unchecked rather than breached.
            if satisfied == 0:
                accuracy_verdict = UNCHECKED
            else:
                accuracy_verdict = (
                    BREACH if accuracy_ci[1] < self._bounds.accuracy_floor else OK
                )

        tv = self._current_tv()
        verdict = WindowVerdict(
            index=len(self._windows),
            start_ms=self._win_start_ms,
            end_ms=end_ms,
            queries=total,
            satisfied=satisfied,
            violation_rate=violation_rate,
            violation_ci=violation_ci,
            accuracy=accuracy,
            accuracy_ci=accuracy_ci,
            violation_verdict=violation_verdict,
            accuracy_verdict=accuracy_verdict,
            occupancy_tv=tv,
        )
        self._windows.append(verdict)
        self._win_total = 0
        self._win_satisfied = 0
        self._win_accuracy_sum = 0.0

        if self._c_windows is not None:
            self._c_windows.inc()
            self._g_violation.set(violation_rate, t_ms=end_ms)
            self._g_accuracy.set(accuracy, t_ms=end_ms)
            if tv is not None:
                self._g_tv.set(tv, t_ms=end_ms)
        self.inner.instant(
            "audit_window",
            "audit",
            end_ms,
            category="audit",
            args=verdict.to_json_dict(),
        )
        if violation_verdict == BREACH:
            self._violation_breaches += 1
            if self._c_breach_viol is not None:
                self._c_breach_viol.inc()
            self._alert(
                AuditAlert(
                    kind="violation-bound-breach",
                    t_ms=end_ms,
                    detail=verdict.to_json_dict(),
                )
            )
        if accuracy_verdict == BREACH:
            self._accuracy_breaches += 1
            if self._c_breach_acc is not None:
                self._c_breach_acc.inc()
            self._alert(
                AuditAlert(
                    kind="accuracy-bound-breach",
                    t_ms=end_ms,
                    detail=verdict.to_json_dict(),
                )
            )
        if (
            tv is not None
            and self._epochs >= self._cfg.min_occupancy_epochs
            and tv > self._cfg.tv_threshold
        ):
            self._alert(
                AuditAlert(
                    kind="occupancy-divergence",
                    t_ms=end_ms,
                    detail={"tv_distance": tv, "threshold": self._cfg.tv_threshold},
                )
            )

    def _current_tv(self) -> Optional[float]:
        if self._expected_tv is None or self._epochs == 0:
            return None
        # total_variation of the empirical occupancy, bit for bit.
        return self._expected_tv(self._occupancy, self._epochs)

    def _alert(self, alert: AuditAlert) -> None:
        for callback in self._alert_callbacks:
            callback(alert)

    # ------------------------------------------------------------------
    # Introspection / finalization
    # ------------------------------------------------------------------
    @property
    def windows(self) -> Tuple[WindowVerdict, ...]:
        """Windows closed so far."""
        return tuple(self._windows)

    @property
    def drift_events(self) -> Tuple[DriftEvent, ...]:
        """Drift alarms raised so far."""
        return tuple(self._drift_events)

    def empirical_occupancy(self) -> Dict[str, float]:
        """The normalized decision-epoch histogram observed so far."""
        if self._epochs == 0:
            return {}
        return {k: c / self._epochs for k, c in self._occupancy.items()}

    def finalize(self, now_ms: Optional[float] = None) -> AuditReport:
        """Close any partial window and freeze the report (idempotent)."""
        if self._report is not None:
            return self._report
        end = now_ms if now_ms is not None else self._last_ts_ms
        if self._win_total > 0:
            self._close_window(end)
        tv = self._current_tv()
        occupancy = (
            None
            if tv is None
            else OccupancySummary(
                tv_distance=tv,
                decision_epochs=self._epochs,
                threshold=self._cfg.tv_threshold,
                trusted=self._epochs >= self._cfg.min_occupancy_epochs,
            )
        )
        self._report = AuditReport(
            bounds=self._bounds,
            windows=tuple(self._windows),
            violation_breaches=self._violation_breaches,
            accuracy_breaches=self._accuracy_breaches,
            occupancy=occupancy,
            drift_events=tuple(self._drift_events),
            policy_switches=self._policy_switches,
            total_queries=self._total,
            satisfied_queries=self._satisfied,
            observed_violation_rate=(
                0.0 if self._total == 0 else 1.0 - self._satisfied / self._total
            ),
            observed_accuracy=(
                0.0 if self._satisfied == 0 else self._accuracy_sum / self._satisfied
            ),
        )
        return self._report
