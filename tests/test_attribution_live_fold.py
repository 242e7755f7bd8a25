"""The kernel capture's columnar fold against the per-record hook oracle.

A kernel's observer folds its lifecycle capture into a
``LatencyAttributor`` in columns, drain by drain: once at the end of a
simulation, and in a serve whenever a shard's capture holds a slice of
entries, on its ticks and at its end.  However the capture is split into
drains — one entry per drain, a split between a dispatch and its
completion, arbitrary cuts — the attributor must end exactly as the hook
oracle (``tests/oracles/attribution_fold.py``) fed one record at a time
by :meth:`~repro.obs.attribution.Lifecycle.replay` of the whole capture:
snapshot, internal tables, rings, reservoir, exemplars, per-query
breakdowns, registry series and alert stream (kind, ``t_ms``, detail and
order), on per-worker, central and drop-late simulations and on a 2 x 2
serve with admission rejections.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import LoadTrace
from repro.obs.attribution import LatencyAttributor
from repro.obs.metrics import MetricsRegistry
from repro.runtime import AdmissionControl, ShardedController
from repro.selectors import GreedyDeadlineSelector, JellyfishPlusSelector
from repro.selectors.base import QueueScope
from repro.sim.kernel import LifecycleObserver
from repro.sim.latency_model import DeterministicLatency
from tests.conftest import make_tiny_model_set
from tests.oracles.attribution_fold import HookAttributor
from tests.test_attribution_fold import state
from tests.test_sim_equivalence import LoadKeyedSelector, run_kernel

OVERLOAD = LoadTrace.constant(300.0, 1_500.0, name="live-fold-overload")
SERVE_OVERLOAD = LoadTrace.constant(1_000.0, 1_000.0, name="live-fold-serve")

SIMULATIONS = {
    "per-worker": (GreedyDeadlineSelector, {}),
    "per-worker-drops": (GreedyDeadlineSelector, {"drop_late": True, "num_workers": 3}),
    "central": (JellyfishPlusSelector, {}),
    "central-drops": (
        lambda: LoadKeyedSelector(QueueScope.CENTRAL, 8),
        {"drop_late": True, "num_workers": 3},
    ),
}
SOURCES = [*SIMULATIONS, "serve-shard-0", "serve-shard-1"]


def _recording(run) -> List[Tuple[LifecycleObserver, List[tuple]]]:
    """Run ``run()`` with every observer fold recorded: each observer
    and its whole capture, in drain order."""
    captures: Dict[int, Tuple[LifecycleObserver, List[tuple]]] = {}
    fold = LifecycleObserver.fold

    def recorded(observer, entries, auditor=None):
        captures.setdefault(id(observer), (observer, []))[1].extend(entries)
        return fold(observer, entries, auditor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LifecycleObserver, "fold", recorded)
        run()
    return list(captures.values())


@lru_cache(maxsize=None)
def capture(source: str) -> Tuple[LifecycleObserver, Tuple[tuple, ...]]:
    """One observer and its whole lifecycle capture."""
    if source in SIMULATIONS:
        selector, extra = SIMULATIONS[source]
        (found,) = _recording(lambda: run_kernel(
            selector, trace=OVERLOAD, attributor=LatencyAttributor(), **extra
        ))
        return found[0], tuple(found[1])
    controller = ShardedController(
        make_tiny_model_set(), slo_ms=100.0, num_shards=2, workers_per_shard=2,
        latency_model=DeterministicLatency(), seed=3, drop_late=True,
        admission=AdmissionControl(max_queue_depth=6), paced=False,
    )
    reports = []
    shards = _recording(lambda: reports.append(controller.serve(
        lambda s: GreedyDeadlineSelector(), SERVE_OVERLOAD,
        attributors=[LatencyAttributor(), LatencyAttributor()],
    )))
    assert reports[0].rejected and reports[0].dropped
    observer, entries = shards[int(source[-1])]
    return observer, tuple(entries)


def attributor(cls) -> Tuple[Any, MetricsRegistry, List[Any]]:
    """An alert-prone attributor with a registry, an alert list, a small
    exemplar warm-up and per-query breakdowns."""
    alerts: List[Any] = []
    registry = MetricsRegistry()
    made = cls(
        slo_ms=100.0, registry=registry, burn_windows=(10, 50),
        violation_budget=0.1, exemplar_quantile=0.9, exemplar_capacity=8,
        exemplar_warmup=20, alert_sink=alerts.append, record_queries=True,
    )
    return made, registry, alerts


def assert_live_fold_equals_replay(source: str, cuts: Sequence[int]) -> None:
    observer, entries = capture(source)
    bulk = attributor(LatencyAttributor)
    bounds = [0, *sorted(set(cuts)), len(entries)]
    for lo, hi in zip(bounds, bounds[1:]):
        bulk[0].fold(observer.columns(entries[lo:hi]))
    oracle = attributor(HookAttributor)
    observer.columns(entries).replay(oracle[0])
    assert oracle[2], "the alert-prone windows should fire"
    assert oracle[0].to_json_dict()["exemplars"]["chains"]
    got, want = state(*bulk), state(*oracle)
    for key in want:
        assert got[key] == want[key], key


def _dispatch_then_completion(source: str) -> int:
    """A cut right after a dispatch whose completion comes later."""
    observer, entries = capture(source)
    for cut in range(1, len(entries)):
        head = observer.columns(entries[:cut])
        if head.is_start.sum() > head.e_dropped.size - head.e_dropped.sum():
            return cut
    raise AssertionError("no dispatch completes after a later entry")


@pytest.mark.parametrize("source", SOURCES)
def test_single_entry_drains(source):
    _, entries = capture(source)
    assert_live_fold_equals_replay(source, range(1, len(entries)))


@pytest.mark.parametrize("source", SOURCES)
def test_split_between_dispatch_and_completion(source):
    cut = _dispatch_then_completion(source)
    assert_live_fold_equals_replay(source, [cut])


@settings(max_examples=25, deadline=None)
@given(
    source=st.sampled_from(SOURCES),
    fractions=st.lists(st.floats(0.0, 1.0), max_size=12),
)
def test_arbitrary_drains(source, fractions):
    _, entries = capture(source)
    assert_live_fold_equals_replay(
        source, [int(f * len(entries)) for f in fractions]
    )
