"""The guarantee auditor's columnar fold against the per-record hook oracle.

A kernel's observer folds its lifecycle capture, with the arrival times
processed alongside, into a ``GuaranteeAuditor`` drain by drain: once
at the end of a simulation, and in a serve whenever a shard's capture
holds a slice of entries and at its end.  However the capture is split
into drains — one entry per drain, arbitrary cuts, each cut taking any
of the arrivals processed between its two entries — the auditor must
end exactly as the hook oracle (``tests/oracles/audit_fold.py``) fed
one record at a time, live, by the args-dict observer
(``tests/oracles/lifecycle_observer.py``): report, alert stream (kind,
``t_ms``, detail and order), ``audit_*`` records on ``inner`` (name,
timestamp, args and order) and registry series.  Sources: per-worker,
central and drop-late simulations, a 2 x 2 serve with admission
rejections and drops, and a simulation whose ``PolicySet``-driven
selector switches policies mid-run; the serve and the policy-set run
see arrivals with equal timestamps.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.traces import LoadTrace
from repro.core.config import WorkerMDPConfig
from repro.core.generator import PolicyGenerator, generate_policy
from repro.core.policy_set import PolicySet
from repro.obs.audit import AuditBounds, AuditConfig, GuaranteeAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.runtime import AdmissionControl, ShardedController
from repro.runtime.workload import WorkloadGenerator
from repro.selectors import GreedyDeadlineSelector, JellyfishPlusSelector, RamsisSelector
from repro.sim import simulator
from repro.sim.kernel import LifecycleObserver
from repro.sim.latency_model import DeterministicLatency
from repro.sim.monitor import LoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig
from tests.conftest import make_tiny_model_set
from tests.oracles.audit_fold import HookAuditor, lifecycle
from tests.oracles.lifecycle_observer import DictLifecycleObserver

OVERLOAD = LoadTrace.constant(300.0, 1_500.0, name="audit-fold-overload")
SERVE_OVERLOAD = LoadTrace.constant(1_000.0, 1_000.0, name="audit-fold-serve")
#: Load steps that move a load-keyed selector across its policies.
STEPS = LoadTrace(interval_ms=1_000.0, qps=(20.0, 90.0, 30.0, 400.0, 15.0))

SIMULATIONS = {
    "per-worker": (GreedyDeadlineSelector, {}),
    "central": (JellyfishPlusSelector, {}),
    "drop-late": (GreedyDeadlineSelector, {"drop_late": True, "num_workers": 3}),
}
SOURCES = [*SIMULATIONS, "policy-set", "serve-shard-0", "serve-shard-1"]


@lru_cache(maxsize=None)
def policies() -> Tuple[Any, PolicySet]:
    """A pinned policy for the occupancy grid and a three-load set."""
    config = WorkerMDPConfig(
        model_set=make_tiny_model_set(), slo_ms=100.0,
        arrivals=PoissonArrivals(25.0), num_workers=1, max_batch_size=8,
        fld_resolution=10,
    )
    pinned = generate_policy(config).policy
    return pinned, PolicySet.generate(PolicyGenerator(config), [10.0, 30.0, 60.0])


def auditor(cls) -> Tuple[Any, Dict[str, Any]]:
    """An alert-prone auditor: small windows, bounds that breach, an
    occupancy prediction that diverges and a drift reference far from
    the load; with its inner tracer, registry and alert list."""
    seen = {"inner": RecordingTracer(), "registry": MetricsRegistry(), "alerts": []}
    made = cls(
        AuditBounds(accuracy_floor=0.9, violation_ceiling=0.02),
        policy=policies()[0],
        expected_occupancy={"1,3": 0.5, "2,2": 0.5},
        config=AuditConfig(
            window_queries=23, tv_threshold=0.2, min_occupancy_epochs=10,
            drift_min_samples=10,
        ),
        inner=seen["inner"],
        registry=seen["registry"],
        reference_load_qps=40.0,
    )
    made.add_alert_callback(seen["alerts"].append)
    return made, seen


def outcome(made: GuaranteeAuditor, seen: Dict[str, Any]) -> Dict[str, str]:
    """Everything an audit leaves behind, as text (``repr`` keeps
    ``-0.0`` apart from ``0.0``)."""
    report = made.finalize()
    registry = seen["registry"].to_json_dict()
    return {
        "report": repr(report.to_json_dict()),
        "alerts": repr([(a.kind, a.t_ms, dict(a.detail)) for a in seen["alerts"]]),
        "inner": repr([(e.name, e.ts_ms, e.args) for e in seen["inner"].events]),
        "registry": json.dumps(
            [m for m in registry["metrics"] if m["name"].startswith("audit_")],
            sort_keys=True,
        ),
        "occupancy": repr(sorted(made.empirical_occupancy().items())),
    }


def _run(source: str, cls, oracle: bool) -> Tuple[GuaranteeAuditor, Dict[str, Any], list]:
    """Run ``source`` with one ``cls`` auditor attached; the oracle run
    goes through the args-dict observer.  Returns the auditor, what it
    emitted, and its switch notes ``(position, policy, now_ms)``."""
    made, seen = auditor(cls)
    notes: List[tuple] = []

    def note(policy, now_ms):
        notes.append((made._position(), policy, now_ms))
        made.note_policy(policy, now_ms)

    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(
                simulator, "_SimObserver",
                lambda kernel, central, monitor, tracer, cfg: DictLifecycleObserver(
                    kernel, [tracer] * len(kernel.in_flight)
                ),
            )
            patch.setattr("repro.runtime.shard.LifecycleObserver", DictLifecycleObserver)
        if source.startswith("serve"):
            shard = int(source[-1])
            others = [auditor(cls)[0] for _ in range(2)]
            others[shard] = made
            controller = ShardedController(
                make_tiny_model_set(), slo_ms=100.0, num_shards=2,
                workers_per_shard=2, latency_model=DeterministicLatency(),
                seed=3, drop_late=True,
                admission=AdmissionControl(max_queue_depth=6), paced=False,
            )
            arrivals = WorkloadGenerator(SERVE_OVERLOAD, 100.0, seed=5).sample()
            report = controller.serve(
                lambda s: GreedyDeadlineSelector(), SERVE_OVERLOAD,
                arrivals=np.round(arrivals), auditors=others,
            )
            assert report.rejected and report.dropped
        elif source == "policy-set":
            selector = RamsisSelector(policies()[1], on_policy_change=note)
            arrivals = WorkloadGenerator(STEPS, 100.0, seed=7).sample()
            config = SimulationConfig(
                model_set=make_tiny_model_set(), slo_ms=100.0, num_workers=2,
                max_batch_size=8, monitor=LoadMonitor(), auditor=made,
            )
            Simulation(config).run(
                selector, STEPS, arrival_times=np.round(arrivals / 5.0) * 5.0
            )
        else:
            selector, extra = SIMULATIONS[source]
            config = SimulationConfig(
                model_set=make_tiny_model_set(), slo_ms=100.0,
                max_batch_size=8, auditor=made, **{"num_workers": 2, **extra},
            )
            Simulation(config).run(selector(), OVERLOAD)
    return made, seen, notes


class Captured(NamedTuple):
    """One production run's capture, and the audits to compare."""

    observer: LifecycleObserver
    entries: Tuple[tuple, ...]
    #: Arrivals processed before each entry.
    arrived: Tuple[int, ...]
    arrivals: np.ndarray
    #: Switch notes ``(position, policy, now_ms)``.
    notes: list
    #: The report of the auditor the run folded, and ``outcome`` of it
    #: and of the hook oracle fed live.
    report: Dict[str, Any]
    live: Dict[str, str]
    oracle: Dict[str, str]


@lru_cache(maxsize=None)
def capture(source: str) -> Captured:
    """The production run of ``source``, recorded, and the oracle's."""
    drains: Dict[int, Tuple[LifecycleObserver, List[tuple]]] = {}
    fold = LifecycleObserver.fold
    calls: Dict[int, List[int]] = {}

    def recorded(observer, drained, auditor=None):
        drains.setdefault(id(auditor), (observer, []))[1].extend(drained)
        return fold(observer, drained, auditor)

    def logged(name):
        method = getattr(LifecycleObserver, name)

        def call(observer, *args, **kwargs):
            calls.setdefault(id(observer), []).append(observer.arrived)
            return method(observer, *args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LifecycleObserver, "fold", recorded)
        for name in ("dispatch", "completion", "terminal"):
            patch.setattr(LifecycleObserver, name, logged(name))
        made, seen, notes = _run(source, GuaranteeAuditor, oracle=False)
    observer, entries = drains[id(made)]
    arrived = calls[id(observer)]
    assert len(arrived) == len(entries)
    live = outcome(made, seen)
    oracle = outcome(*_run(source, HookAuditor, oracle=True)[:2])
    return Captured(
        observer, tuple(entries), tuple(arrived),
        observer._arrival_ms[: observer.arrived], notes,
        made.finalize().to_json_dict(), live, oracle,
    )


def refold(source: str, cuts: Sequence[Tuple[int, float]]) -> Dict[str, str]:
    """A fresh auditor folded from the capture in drains ending at each
    ``(entry, share)`` cut: the drain ends before that entry and takes
    ``share`` of the arrivals processed between it and the entry before."""
    observer, entries, arrived, arrivals, notes = capture(source)[:5]
    made, seen = auditor(GuaranteeAuditor)
    stamps = iter([at for at, _, _ in notes])
    made.attach(lambda: next(stamps), observer.base, observer.stride)
    for _, policy, now_ms in notes:
        made.note_policy(policy, now_ms)
    bounds = [(0, 0)]
    for entry, share in sorted(cuts):
        lo = arrived[entry - 1] if entry else 0
        hi = arrived[entry] if entry < len(entries) else arrivals.size
        take = max(lo + int(share * (hi - lo)), bounds[-1][1])
        bounds.append((entry, take))
    bounds.append((len(entries), arrivals.size))
    for (e0, a0), (e1, a1) in zip(bounds, bounds[1:]):
        made.fold(observer.columns(entries[e0:e1]), arrivals[a0:a1])
    return outcome(made, seen)


def assert_same(got: Dict[str, str], want: Dict[str, str]) -> None:
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("source", SOURCES)
def test_live_fold_equals_hook_oracle(source):
    """The auditor folded by the run itself ends as the live hooks do,
    and the run exercises what the oracle can tell apart."""
    captured = capture(source)
    assert_same(captured.live, captured.oracle)
    report = captured.report
    assert report["windows"] and report["drift_events"]
    assert "audit_window" in captured.live["inner"]
    if source == "policy-set":
        assert report["policy_switches"] >= 2


@pytest.mark.parametrize("source", SOURCES)
def test_single_entry_drains(source):
    captured = capture(source)
    cuts = [(i, 0.5) for i in range(1, len(captured.entries))]
    assert_same(refold(source, cuts), captured.oracle)


@settings(max_examples=25, deadline=None)
@given(
    source=st.sampled_from(SOURCES),
    cuts=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=12
    ),
)
def test_arbitrary_drains(source, cuts):
    captured = capture(source)
    entries = len(captured.entries)
    assert_same(
        refold(source, [(int(f * entries), share) for f, share in cuts]),
        captured.oracle,
    )


def test_rejections_keep_their_place_among_equal_arrivals():
    """A rejection on arrival comes right after its own arrival, before
    the later arrivals of the same instant: the windows it closes and a
    drift alarm on one of those arrivals keep the hooks' order."""
    times = np.repeat(np.arange(40) * 10.0, 5)
    config = AuditConfig(window_queries=1, drift_min_samples=8)
    runs = []
    for cls in (HookAuditor, GuaranteeAuditor):
        seen = {"inner": RecordingTracer(), "registry": MetricsRegistry(), "alerts": []}
        made = cls(config=config, inner=seen["inner"], registry=seen["registry"],
                   reference_load_qps=1.0)
        made.add_alert_callback(seen["alerts"].append)
        runs.append((made, seen))
    hook, folded = runs[0][0], runs[1][0]
    for t in times.tolist():
        hook.observe_arrival(t)
        hook.observe_completion(t, False, 0.0)
    folded.fold(lifecycle(completions=[(t, False, 0.0) for t in times], dropped=True), times)
    assert folded.drift_events[0].t_ms == 10.0
    assert_same(outcome(*runs[1]), outcome(*runs[0]))
