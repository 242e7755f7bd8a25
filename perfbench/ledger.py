"""Bench-owned probes for the traced run's per-layer ledger.

Every probe sits *outside* the program: a delegating selector, a duck-typed
attributor tap, and helpers that read the program's existing ``generator``
spans through :class:`~repro.obs.profile.PhaseProfiler`.  The untraced run
never constructs any of them, so its code path is the program's own.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.generator import PolicyGenerator
from repro.obs.profile import PhaseProfiler
from repro.selectors import RamsisSelector
from repro.selectors.base import ModelSelector, SelectorContext

#: Every per-layer metric the traced run reports, with its unit.  Layers a
#: workload does not touch report 0.  ``BENCHMARK.json`` lists the same
#: names.
LEDGER_UNITS: Dict[str, str] = {
    "core.build_s": "s",
    "core.sweep_s": "s",
    "core.evaluate_s": "s",
    "core.sweeps": "count",
    "core.cells": "count",
    "core.cells_stacked": "count",
    "core.share": "fraction",
    "arrivals.sample_s": "s",
    "arrivals.queries": "count",
    "selectors.decide_s": "s",
    "selectors.decisions": "count",
    "selectors.policy_switches": "count",
    "selectors.share": "fraction",
    "runtime.dispatch_s": "s",
    "runtime.batches": "count",
    "runtime.mean_batch": "queries",
    "runtime.dropped": "count",
    "runtime.rejected": "count",
    "runtime.served_frac": "fraction",
    "runtime.queue_wait_ms_p99": "ms",
    "runtime.share": "fraction",
    "sim.run_s": "s",
    "sim.queries": "count",
    "sim.share": "fraction",
    "cache.get_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.bytes_read": "bytes",
    "cache.share": "fraction",
    "obs.audit_s": "s",
    "obs.attribution_s": "s",
    "obs.feed_s": "s",
    "obs.feed_bytes": "bytes",
    "obs.merge_s": "s",
    "obs.artifacts_s": "s",
    "obs.report_s": "s",
    "obs.records": "count",
    "obs.audit_windows": "count",
    "obs.share": "fraction",
    "other_s": "s",
    "other.share": "fraction",
    "trace.op_s": "s",
    "trace.overhead": "ratio",
}

#: Time metrics summed into each layer's share of the op's wall time.
LAYER_TIMES: Dict[str, Tuple[str, ...]] = {
    "core": ("core.build_s", "core.sweep_s", "core.evaluate_s"),
    "selectors": ("selectors.decide_s",),
    "runtime": ("runtime.dispatch_s",),
    "sim": ("sim.run_s",),
    "cache": ("cache.get_s",),
    "obs": (
        "obs.audit_s",
        "obs.attribution_s",
        "obs.feed_s",
        "obs.merge_s",
        "obs.artifacts_s",
        "obs.report_s",
    ),
}

#: PhaseProfiler leaf spans of the per-load and stacked solve paths.
_CORE_SPANS = {
    "core.build_s": ("build_worker_mdp", "build_stacked_bank"),
    "core.sweep_s": ("value_iteration", "stacked_value_iteration"),
    "core.evaluate_s": ("evaluate_policy", "stacked_evaluate"),
}


class TimedSelector(ModelSelector):
    """Delegates every decision to ``inner``, timing and counting it."""

    def __init__(self, inner: ModelSelector) -> None:
        self.inner = inner
        self.queue_scope = inner.queue_scope
        self.name = inner.name
        self.seconds = 0.0
        self.decisions = 0

    def bind(self, context: SelectorContext) -> None:
        super().bind(context)
        self.inner.bind(context)

    def select(self, queue_length, earliest_slack_ms, now_ms, anticipated_load_qps):
        start = time.perf_counter()
        action = self.inner.select(
            queue_length, earliest_slack_ms, now_ms, anticipated_load_qps
        )
        self.seconds += time.perf_counter() - start
        self.decisions += 1
        return action


def timed_factory(policy, sink: List[TimedSelector]):
    """Shard selector factory whose selectors are timed and kept in ``sink``."""

    def factory(_shard):
        selector = TimedSelector(RamsisSelector(policy))
        sink.append(selector)
        return selector

    return factory


class SweepCountingGenerator(PolicyGenerator):
    """A :class:`PolicyGenerator` that sums its results' Bellman sweeps."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.sweeps = 0

    def generate_many(self, loads_qps, *args, **kwargs):
        results = super().generate_many(loads_qps, *args, **kwargs)
        self.sweeps += sum(r.iterations for r in results)
        return results


class SwitchCounter:
    """``on_policy_change`` hook counting switches after the first policy."""

    def __init__(self) -> None:
        self.switches = 0
        self._last = None

    def __call__(self, policy, now_ms: float) -> None:
        if self._last is not None and policy is not self._last:
            self.switches += 1
        self._last = policy


class WaitTap:
    """Attributor-shaped tap that keeps each served query's queue wait."""

    def __init__(self) -> None:
        self.waits: List[float] = []

    def observe_decision(self, worker, model, batch, exec_ms) -> None:
        pass

    def observe_service_start(self, query_id, worker, model, batch, wait_ms) -> None:
        self.waits.append(wait_ms)

    def observe_completion(self, *args, **kwargs) -> None:
        pass


def selector_totals(selectors: List[TimedSelector]) -> Tuple[float, int]:
    """Summed (seconds, decisions) over wrapped selectors."""
    return sum(s.seconds for s in selectors), sum(s.decisions for s in selectors)


def core_ledger(profiler: PhaseProfiler) -> Dict[str, float]:
    """Core build/sweep/evaluate seconds and per-load cell count."""
    out = {name: 0.0 for name in _CORE_SPANS}
    per_load_cells = 0
    for stat in profiler.stats():
        if stat.path[0] != "generator":
            continue
        for name, leaves in _CORE_SPANS.items():
            if stat.name in leaves:
                out[name] += stat.total_ms / 1000.0
        if stat.name == "build_worker_mdp":
            per_load_cells += stat.count
    out["per_load_cells"] = per_load_cells
    return out


def finish_ledger(
    ledger: Dict[str, float], op_s: float, untraced_op_s: float
) -> Dict[str, float]:
    """Fill shares, the unattributed remainder and tracing overhead."""
    out = {name: 0.0 for name in LEDGER_UNITS}
    out.update(ledger)
    attributed = 0.0
    for layer, names in LAYER_TIMES.items():
        seconds = sum(out[name] for name in names)
        attributed += seconds
        out[f"{layer}.share"] = seconds / op_s
    out["other_s"] = op_s - attributed
    out["other.share"] = out["other_s"] / op_s
    out["trace.op_s"] = op_s
    out["trace.overhead"] = op_s / untraced_op_s
    return out
