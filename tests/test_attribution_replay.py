"""An attributor's records come only from the kernel's lifecycle capture.

A simulation folds its capture into ``SimulationConfig.attributor`` when
the run ends; a serving shard folds it into its attributor as the
capture grows, on the serve loop's snapshot ticks and at the end of the
serve.  Either way a hook-shaped tap must get exactly the hook calls, in
order, that an observer calling it live would make: the reference loop
(``tests/oracles/sim_loop.py``) for a simulation, and
:class:`tests.test_runtime_shard.HookLog` (the production observer
logging the live calls) for a serve.  A ``LatencyAttributor``, folded in
columns instead, must fire the burn-rate alerts the per-record hook
oracle fires on that stream: when the capture is folded, but with the
same kinds, ``t_ms`` values, details and order.
"""

import pytest

from repro.arrivals.traces import LoadTrace
from repro.obs.attribution import LatencyAttributor
from repro.runtime import AdmissionControl, ShardedController
from repro.selectors import GreedyDeadlineSelector, JellyfishPlusSelector
from repro.selectors.base import QueueScope
from repro.sim.latency_model import DeterministicLatency
from tests.conftest import make_tiny_model_set
from tests.oracles.attribution_fold import HookAttributor
from tests.test_runtime_shard import HookLog, TickLog
from tests.test_sim_equivalence import LoadKeyedSelector, run_kernel, run_oracle

OVERLOAD = LoadTrace.constant(300.0, 3_000.0, name="replay-overload")
#: Drops and rejections on a 2 x 2 serve.
SERVE_OVERLOAD = LoadTrace.constant(1_000.0, 1_000.0, name="serve-overload")


class HookTap:
    """Attributor-shaped tap: every hook call it gets, in order."""

    def __init__(self):
        self.calls = []

    def observe_decision(self, *args, **kwargs):
        self.calls.append(("observe_decision", args, kwargs))

    def observe_service_start(self, *args, **kwargs):
        self.calls.append(("observe_service_start", args, kwargs))

    def observe_completion(self, *args, **kwargs):
        self.calls.append(("observe_completion", args, kwargs))

    def to_json_dict(self):
        return {"calls": len(self.calls)}


def low_threshold_attributor(alerts, cls=LatencyAttributor):
    """Fires a burn-rate alert on most excursions of a 10-query window."""
    return cls(
        slo_ms=100.0, burn_windows=(10, 50), violation_budget=0.1,
        alert_sink=lambda a: alerts.append((a.kind, a.t_ms, a.detail)),
    )


def replay_calls(calls, attributor):
    for name, args, kwargs in calls:
        getattr(attributor, name)(*args, **kwargs)


@pytest.mark.parametrize(
    "selector, extra",
    [
        (GreedyDeadlineSelector, {}),
        (GreedyDeadlineSelector, {"drop_late": True, "num_workers": 3}),
        (JellyfishPlusSelector, {}),
        (
            lambda: LoadKeyedSelector(QueueScope.CENTRAL, 8),
            {"drop_late": True, "num_workers": 3},
        ),
    ],
    ids=["per-worker", "per-worker-drops", "central", "central-drops"],
)
def test_simulation_replays_the_reference_stream(selector, extra):
    taps, alerts = [], []
    for run, cls in ((run_kernel, LatencyAttributor), (run_oracle, HookAttributor)):
        tap, fired = HookTap(), []
        run(selector, trace=OVERLOAD, attributor=tap, **extra)
        run(selector, trace=OVERLOAD,
            attributor=low_threshold_attributor(fired, cls), **extra)
        taps.append(tap.calls)
        alerts.append(fired)
    assert taps[0] == taps[1]
    if extra.get("drop_late"):
        assert any(kwargs.get("dropped") for _, _, kwargs in taps[0])
    assert alerts[0] == alerts[1]
    assert alerts[0]


def serve(tmp_path, monkeypatch, mode, attributors):
    """One 2 x 2 serve through :class:`HookLog`; the controller."""
    monkeypatch.setattr("repro.runtime.shard.LifecycleObserver", HookLog)
    kwargs = dict(
        latency_model=DeterministicLatency(), seed=3, drop_late=True,
        admission=AdmissionControl(max_queue_depth=6),
    )
    if mode == "paced-run-dir":
        kwargs.update(paced=True, time_scale=0.2, run_dir=str(tmp_path),
                      snapshot_interval_s=0.05)
    elif mode == "unpaced-run-dir":
        kwargs.update(paced=False, run_dir=str(tmp_path))
    else:
        kwargs.update(paced=False)
    controller = ShardedController(
        make_tiny_model_set(), slo_ms=100.0, num_shards=2, workers_per_shard=2,
        **kwargs,
    )
    report = controller.serve(
        lambda s: GreedyDeadlineSelector(), SERVE_OVERLOAD,
        attributors=attributors,
    )
    assert report.rejected and report.dropped
    return controller


@pytest.mark.parametrize("mode", ["unpaced", "unpaced-run-dir", "paced-run-dir"])
def test_serve_replays_the_live_stream(tmp_path, monkeypatch, mode):
    log = TickLog(monkeypatch)
    taps = [HookTap(), HookTap()]
    controller = serve(tmp_path / "taps", monkeypatch, mode, taps)
    for s, tap in enumerate(taps):
        assert tap.calls == controller._observers[s].calls
    if mode == "paced-run-dir":
        # Several ticks per shard folded into the caller's taps.
        assert log.ticks(4) >= 2 and log.ticks(5) >= 2

    alerts = [[], []]
    attributors = [low_threshold_attributor(fired) for fired in alerts]
    controller = serve(tmp_path / "alerts", monkeypatch, mode, attributors)
    for s, fired in enumerate(alerts):
        live = []
        replay_calls(
            controller._observers[s].calls,
            low_threshold_attributor(live, HookAttributor),
        )
        assert fired == live
        assert fired
