"""Live-auditor overhead micro-benchmark.

A/B of the same RAMSIS pinned-policy simulation with auditing off (the
unobserved path every experiment uses), with a bare
:class:`GuaranteeAuditor` in the ``SimulationConfig.auditor`` slot, and
with a :class:`RecordingTracer` as the run's tracer and the auditor's
``inner`` tracer.  The auditor attaches only through the kernel's
observer, so the off variant makes no observer call and its timing
documents that auditing disabled costs nothing; the other rows document
what the runtime contract costs when switched on.
"""

import time

import numpy as np

from benchmarks._common import bench_scale, emit
from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace
from repro.experiments.reporting import format_table
from repro.experiments.runner import build_audit_references
from repro.experiments.tasks import text_task
from repro.obs.audit import GuaranteeAuditor
from repro.obs.trace import RecordingTracer
from repro.selectors import RamsisSelector
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig

LOAD_QPS = 60.0
WORKERS = 2
DURATION_MS = 20_000.0


def _run(task, arrivals, trace, slo_ms, policy, tracer=None, auditor=None):
    sim = Simulation(
        SimulationConfig(
            model_set=task.model_set,
            slo_ms=slo_ms,
            num_workers=WORKERS,
            max_batch_size=bench_scale().max_batch_size,
            monitor=OracleLoadMonitor(trace),
            seed=7,
            track_responses=False,
            tracer=tracer,
            auditor=auditor,
        )
    )
    start = time.perf_counter()
    metrics = sim.run(RamsisSelector(policy), trace, arrival_times=arrivals)
    return time.perf_counter() - start, metrics


def test_audit_overhead(benchmark):
    """Times off / auditor / auditor+recording variants on one arrival
    realization; the benchmark fixture times the default (off) path."""
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

    def make_auditor(inner=None):
        return GuaranteeAuditor(
            guarantees,
            policy=policy,
            expected_occupancy=occupancy,
            inner=inner,
        )

    def recorded():
        recorder = RecordingTracer()
        return {"tracer": recorder, "auditor": make_auditor(recorder)}

    # Warm once (primes policy/latency caches fairly).
    _run(task, arrivals, trace, slo_ms, policy)

    variants = (
        ("off (no auditor)", dict),
        ("auditor", lambda: {"auditor": make_auditor()}),
        ("auditor + recording", recorded),
    )
    rows = []
    series = {}
    baseline_s = None
    reference = None
    for label, make in variants:
        best = None
        for _ in range(3):
            elapsed, metrics = _run(
                task, arrivals, trace, slo_ms, policy, **make()
            )
            best = elapsed if best is None else min(best, elapsed)
        if reference is None:
            reference = metrics
            baseline_s = best
        # Auditing must never change simulation results.
        assert metrics.violation_rate == reference.violation_rate
        assert metrics.total_queries == reference.total_queries
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

    emit(
        "audit_overhead",
        format_table(
            ["variant", "best-of-3 ms", "vs off", "queries"],
            rows,
            title=(
                f"Live-audit overhead ({LOAD_QPS:.0f} QPS, {WORKERS} "
                f"workers, {DURATION_MS / 1000.0:.0f} s simulated)"
            ),
        ),
        data={
            "load_qps": LOAD_QPS,
            "workers": WORKERS,
            "duration_ms": DURATION_MS,
            "queries": reference.total_queries,
            "variants": series,
        },
        root=True,
    )

    # The pytest-benchmark timing tracks the default (auditing-off) path.
    result = benchmark.pedantic(
        lambda: _run(task, arrivals, trace, slo_ms, policy)[1],
        rounds=1,
        iterations=1,
    )
    assert result.total_queries > 500
