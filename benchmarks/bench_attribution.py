"""Attribution-engine overhead micro-benchmark.

Runs the same simulation with the tail-latency attribution engine
detached (the default), attached through the dispatch kernel's observer
(its direct hooks), and attached with a metrics registry — and reports
wall time and the relative cost.  The detached configuration is what
every experiment and benchmark runs, so its overhead must stay
negligible with the kernel's single ``observed`` guard branch per
event: after every attributed variant has
run, the detached path is re-timed against an interleaved detached
control and gated at ≤1% drift (``RAMSIS_BENCH_MAX_OFF_OVERHEAD``
overrides the tolerance; interleaving cancels machine-level clock drift
a sequential before/after comparison would misread as overhead).  The
recorded table under ``benchmarks/out/`` (and the root
``BENCH_attribution.json``) documents what opting in costs, and the
attached attributor is held to a fixed ceiling of
``MAX_ATTACHED_VS_OFF`` times the detached run: its per-completion tail
threshold must stay an O(1) histogram read (a per-completion reservoir
sort cost ~35x here).
"""

import os
import time

from benchmarks._common import bench_scale, emit
from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.experiments.tasks import image_task
from repro.obs.attribution import LatencyAttributor
from repro.obs.metrics import MetricsRegistry
from repro.experiments.reporting import format_table
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig
from repro.selectors import JellyfishPlusSelector

import numpy as np

LOAD_QPS = 160.0
WORKERS = 8
DURATION_MS = 20_000.0
#: Ceiling on ``attributor (fast)`` wall time relative to ``detached``
#: (measured ~4x; a per-completion quantile sort puts it above 30x).
MAX_ATTACHED_VS_OFF = 10.0


def _max_off_overhead() -> float:
    return float(os.environ.get("RAMSIS_BENCH_MAX_OFF_OVERHEAD", "1.01"))


def _run(arrivals, trace, attributor=None, registry=None):
    task = image_task()
    sim = Simulation(
        SimulationConfig(
            model_set=task.model_set,
            slo_ms=task.slos_ms[0],
            num_workers=WORKERS,
            max_batch_size=bench_scale().max_batch_size,
            monitor=OracleLoadMonitor(trace),
            seed=7,
            track_responses=False,
            attributor=attributor,
            registry=registry,
        )
    )
    start = time.perf_counter()
    metrics = sim.run(JellyfishPlusSelector(), trace, arrival_times=arrivals)
    return time.perf_counter() - start, metrics


def test_attribution_overhead(benchmark):
    """Times detached/attached/attached+registry variants on one
    arrival realization; the benchmark fixture times the default
    (detached) path, which is re-measured last against an interleaved
    control and gated at ≤1% drift."""
    trace = LoadTrace.constant(LOAD_QPS, DURATION_MS)
    rng = np.random.default_rng(7)
    arrivals = np.sort(
        sample_arrival_times(trace, PoissonArrivals(LOAD_QPS), rng)
    )
    task = image_task()
    slo_ms = task.slos_ms[0]

    # Warm once (JIT-free Python, but primes caches fairly).
    _run(arrivals, trace)

    def _make_attr(registry=None):
        return LatencyAttributor(
            slo_ms=slo_ms, models=list(task.model_set), registry=registry
        )

    def _with_registry():
        # Registry feeds only the attributor's metric publication (a
        # config-level registry would also publish the sim's own series
        # and swamp the ratio).
        return _make_attr(MetricsRegistry()), None

    rows = []
    baseline_s = None
    variants = (
        ("detached", lambda: (None, None)),
        ("attributor (fast)", lambda: (_make_attr(), None)),
        ("attributor + registry", _with_registry),
    )
    reference = None
    attributed = None
    series = {}
    for label, make in variants:
        best = None
        for _ in range(3):
            attributor, registry = make()
            elapsed, metrics = _run(arrivals, trace, attributor, registry)
            best = elapsed if best is None else min(best, elapsed)
        if reference is None:
            reference = metrics
            baseline_s = best
        # Attribution must never change simulation results.
        assert metrics.violation_rate == reference.violation_rate
        assert metrics.total_queries == reference.total_queries
        if attributor is not None:
            snap = attributor.to_json_dict()
            assert snap["totals"]["queries"] == reference.total_queries
            if attributed is None:
                attributed = snap
        series[label] = {
            "best_of_3_ms": best * 1000.0,
            "vs_off": best / baseline_s,
        }
        rows.append(
            [
                label,
                f"{best * 1000.0:.1f}",
                f"{best / baseline_s:.2f}x",
                f"{metrics.total_queries}",
            ]
        )

    # Re-measure the detached path after every attributed variant has
    # run: pins the cost of the ``observed`` guard branch in the
    # kernel, interleaved with a control so the paired ratio
    # cancels wall-clock drift.
    ceiling = _max_off_overhead()

    def _paired_off_drift(pairs=7):
        control_best = remeasured_best = None
        for _ in range(pairs):
            elapsed, _ = _run(arrivals, trace)
            control_best = (
                elapsed if control_best is None else min(control_best, elapsed)
            )
            elapsed, metrics = _run(arrivals, trace)
            remeasured_best = (
                elapsed
                if remeasured_best is None
                else min(remeasured_best, elapsed)
            )
        assert metrics.total_queries == reference.total_queries
        return remeasured_best / control_best, remeasured_best

    off_drift, remeasured_best = _paired_off_drift()
    if off_drift > ceiling:
        # One retry batch: a genuine guard-branch regression fails both,
        # a scheduler-noise excursion doesn't.
        off_drift, remeasured_best = _paired_off_drift()
    series["detached (re-measured)"] = {
        "best_of_7_ms": remeasured_best * 1000.0,
        "vs_off": off_drift,
    }
    rows.append(
        [
            "detached (re-measured)",
            f"{remeasured_best * 1000.0:.1f}",
            f"{off_drift:.2f}x",
            f"{reference.total_queries}",
        ]
    )

    assert off_drift <= ceiling, (
        f"detached path drifted to {off_drift:.3f}x the interleaved "
        f"control (ceiling {ceiling:.2f}x) — the observer guard branch "
        f"is no longer free"
    )

    attached_vs_off = series["attributor (fast)"]["vs_off"]
    assert attached_vs_off <= MAX_ATTACHED_VS_OFF, (
        f"attached attributor costs {attached_vs_off:.1f}x the "
        f"detached run (ceiling {MAX_ATTACHED_VS_OFF:g}x) — is a "
        f"per-completion sort back on the tail-threshold path?"
    )

    emit(
        "attribution",
        format_table(
            ["variant", "best ms", "vs off", "queries"],
            rows,
            title=(
                f"Attribution overhead ({LOAD_QPS:.0f} QPS, {WORKERS} "
                f"workers, {DURATION_MS / 1000.0:.0f} s simulated)"
            ),
        ),
        data={
            "load_qps": LOAD_QPS,
            "workers": WORKERS,
            "duration_ms": DURATION_MS,
            "queries": reference.total_queries,
            "off_overhead_ceiling": ceiling,
            "attached_ceiling": MAX_ATTACHED_VS_OFF,
            "attributed_rows": len(attributed["rows"]),
            "burn_alerts": attributed["burn"]["alerts"],
            "variants": series,
        },
        root=True,
    )

    # The pytest-benchmark timing tracks the default (detached) path.
    result = benchmark.pedantic(
        lambda: _run(arrivals, trace)[1], rounds=1, iterations=1
    )
    assert result.total_queries > 1000

