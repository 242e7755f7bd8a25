"""Observability overhead micro-benchmark: one variant per attachment.

Runs the same RAMSIS pinned-policy simulation (the policy's §5.1
references give the auditor something to audit) with each observability
attachment in turn — nothing (the unobserved path every experiment
uses), a live :class:`RecordingTracer`, a tracer plus a
:class:`MetricsRegistry`, the :class:`PhaseProfiler` (full and 1/16
sampled), a :class:`GuaranteeAuditor` (bare, and recording into a
tracer), and a :class:`LatencyAttributor` (bare, and publishing to its
own registry) — and reports wall time relative to the unobserved run:
each variant's best of three runs over the best of three unobserved runs
interleaved with them, so every ratio's base shares its variant's
stretch of machine drift.  Two gates:

- **Off path.**  After every attached variant has run, the unobserved
  path is re-timed against an interleaved unobserved control and gated
  at ≤1% drift (``RAMSIS_BENCH_MAX_OFF_OVERHEAD`` overrides the
  tolerance).  Interleaving cancels machine-level clock drift a
  sequential before/after comparison would misread as overhead; the
  pairs run until each side has ``MIN_SIDE_S`` of wall, and a failing
  batch gets one retry.
- **Attached attributor.**  At most ``MAX_ATTACHED_VS_OFF`` times the
  unobserved run: its per-completion tail threshold must stay an O(1)
  histogram read (a per-completion reservoir sort cost ~35x).

The table under ``benchmarks/out/`` and the root
``BENCH_obs_overhead.json`` record what opting in costs.
"""

import os
import time

import numpy as np

from benchmarks._common import bench_scale, emit
from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_audit_references
from repro.experiments.tasks import text_task
from repro.obs.attribution import LatencyAttributor
from repro.obs.audit import GuaranteeAuditor
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import RecordingTracer
from repro.selectors import RamsisSelector
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig

LOAD_QPS = 60.0
WORKERS = 2
DURATION_MS = 20_000.0
#: The off-path drift gate's interleaved pairs: at least this many, and
#: until each side has run for MIN_SIDE_S seconds in total.
MIN_PAIRS = 7
MIN_SIDE_S = 1.5
#: Ceiling on the attached attributor's wall time relative to the
#: interleaved unobserved runs (a per-completion quantile sort puts it
#: above 30x).  Columnar folds read 3.1x-3.8x in eleven runs at smoke
#: and bench scale on 2 vCPU, and 6.5x once on a busy host: the ceiling
#: keeps a margin over that worst run.
MAX_ATTACHED_VS_OFF = 8.0


def _max_off_overhead() -> float:
    return float(os.environ.get("RAMSIS_BENCH_MAX_OFF_OVERHEAD", "1.01"))


def test_obs_overhead(benchmark):
    """Times every attachment on one arrival realization; the benchmark
    fixture times the unobserved path, which is re-measured last against
    an interleaved control and gated at ≤1% drift."""
    task = text_task()
    slo_ms = task.slos_ms[0]
    scale = bench_scale()
    trace = LoadTrace.constant(LOAD_QPS, DURATION_MS)
    rng = np.random.default_rng(7)
    arrivals = np.sort(
        sample_arrival_times(trace, PoissonArrivals(LOAD_QPS), rng)
    )
    policy, guarantees, occupancy = build_audit_references(
        task.model_set, slo_ms, LOAD_QPS, WORKERS, scale
    )

    def run(**obs):
        sim = Simulation(
            SimulationConfig(
                model_set=task.model_set,
                slo_ms=slo_ms,
                num_workers=WORKERS,
                max_batch_size=scale.max_batch_size,
                monitor=OracleLoadMonitor(trace),
                seed=7,
                track_responses=False,
                **obs,
            )
        )
        start = time.perf_counter()
        metrics = sim.run(RamsisSelector(policy), trace, arrival_times=arrivals)
        return time.perf_counter() - start, metrics

    def auditor(inner=None):
        return GuaranteeAuditor(
            guarantees, policy=policy, expected_occupancy=occupancy, inner=inner
        )

    def recorded_auditor():
        recorder = RecordingTracer()
        return {"tracer": recorder, "auditor": auditor(recorder)}

    def attributor(registry=None):
        # The registry feeds only the attributor's own series (a config
        # registry would also publish the sim_* series).
        return LatencyAttributor(
            slo_ms=slo_ms, models=list(task.model_set), registry=registry
        )

    # Warm once (primes policy/latency caches fairly).
    run()

    variants = (
        ("off", dict),
        ("tracer", lambda: {"tracer": RecordingTracer()}),
        ("tracer + registry",
         lambda: {"tracer": RecordingTracer(), "registry": MetricsRegistry()}),
        ("phase profiler", lambda: {"tracer": PhaseProfiler()}),
        ("profiler 1/16 sampled",
         lambda: {"tracer": PhaseProfiler(sample_every=16)}),
        ("auditor", lambda: {"auditor": auditor()}),
        ("auditor + recording", recorded_auditor),
        ("attributor", lambda: {"attributor": attributor()}),
        ("attributor + registry",
         lambda: {"attributor": attributor(MetricsRegistry())}),
    )
    rows = []
    series = {}
    reference = None
    attributed = None
    for label, make in variants:
        best = off_best = None
        for _ in range(3):
            elapsed, _ = run()
            off_best = elapsed if off_best is None else min(off_best, elapsed)
            obs = make()
            elapsed, metrics = run(**obs)
            best = elapsed if best is None else min(best, elapsed)
        if reference is None:
            reference = metrics
        # Observability must never change simulation results.
        assert metrics.violation_rate == reference.violation_rate
        assert metrics.total_queries == reference.total_queries
        if "attributor" in obs:
            snap = obs["attributor"].to_json_dict()
            assert snap["totals"]["queries"] == reference.total_queries
            if attributed is None:
                attributed = snap
        series[label] = {
            "best_of_3_ms": best * 1000.0,
            "off_best_of_3_ms": off_best * 1000.0,
            "vs_off": best / off_best,
        }
        rows.append(
            [
                label,
                f"{best * 1000.0:.1f}",
                f"{off_best * 1000.0:.1f}",
                f"{best / off_best:.2f}x",
                f"{metrics.total_queries}",
            ]
        )

    # Re-measure the off path after every attached variant has run: pins
    # the cost of the kernel's one ``observed`` guard branch and catches
    # observer state leaking across runs.  The control and re-measured
    # samples interleave so the paired ratio cancels wall-clock drift
    # (turbo/scheduler noise over the seconds the attached variants take).
    # Pairs continue until each side has accumulated MIN_SIDE_S of wall:
    # at smoke scale one run takes milliseconds, so seven pairs left each
    # best-of at the mercy of one scheduler hiccup (1.019x seen).
    ceiling = _max_off_overhead()

    def paired_off_drift():
        control_best = remeasured_best = None
        control_s = remeasured_s = 0.0
        pairs = 0
        while pairs < MIN_PAIRS or min(control_s, remeasured_s) < MIN_SIDE_S:
            pairs += 1
            elapsed, _ = run()
            control_s += elapsed
            control_best = (
                elapsed if control_best is None else min(control_best, elapsed)
            )
            elapsed, metrics = run()
            remeasured_s += elapsed
            remeasured_best = (
                elapsed
                if remeasured_best is None
                else min(remeasured_best, elapsed)
            )
        assert metrics.total_queries == reference.total_queries
        return remeasured_best / control_best, remeasured_best, pairs

    off_drift, remeasured_best, pairs = paired_off_drift()
    if off_drift > ceiling:
        # One retry batch: a genuine guard-branch regression fails both,
        # a scheduler-noise excursion doesn't.
        off_drift, remeasured_best, pairs = paired_off_drift()
    series["off (re-measured)"] = {
        "best_ms": remeasured_best * 1000.0,
        "pairs": pairs,
        "vs_off": off_drift,
    }
    rows.append(
        [
            "off (re-measured)",
            f"{remeasured_best * 1000.0:.1f}",
            f"{remeasured_best / off_drift * 1000.0:.1f}",
            f"{off_drift:.2f}x",
            f"{reference.total_queries}",
        ]
    )

    assert off_drift <= ceiling, (
        f"unobserved path drifted to {off_drift:.3f}x the interleaved "
        f"control (ceiling {ceiling:.2f}x) — the observer guard branch is "
        f"no longer free"
    )
    attached_vs_off = series["attributor"]["vs_off"]
    assert attached_vs_off <= MAX_ATTACHED_VS_OFF, (
        f"attached attributor costs {attached_vs_off:.1f}x the "
        f"unobserved run (ceiling {MAX_ATTACHED_VS_OFF:g}x) — is a "
        f"per-completion sort back on the tail-threshold path?"
    )

    emit(
        "obs_overhead",
        format_table(
            ["variant", "best ms", "off ms", "vs off", "queries"],
            rows,
            title=(
                f"Observability overhead (RAMSIS, {LOAD_QPS:.0f} QPS, "
                f"{WORKERS} workers, {DURATION_MS / 1000.0:.0f} s simulated)"
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

    # The pytest-benchmark timing tracks the unobserved path.
    result = benchmark.pedantic(lambda: run()[1], rounds=1, iterations=1)
    assert result.total_queries > 500
