"""Sharded serving-tier stress: sustained throughput, audits, pacing.

Four measurements, gated where the result is deterministic:

1. **Sustained fan-out throughput** — every benchmark process replays its
   own seeded realization of the synthesized Twitter-shaped trace
   (scaled to the bench cluster) through one unpaced
   :class:`~repro.runtime.shard.ShardedController` serving the pinned
   RAMSIS policy with one §5.1 guarantee auditor per shard.  The gate is
   twofold: the summed per-process throughput must clear
   ``RAMSIS_BENCH_MIN_QPS`` (default 100k q/s at bench scale, 10k at
   smoke), and the runs must finish with **zero** violation/accuracy
   breaches.  Breach counts are a pure function of the seeded virtual
   timelines, so the audit half of the gate is machine-independent.
2. **Dispatch-loop overhead vs. the simulator** — the same arrival
   stream, models and policy through the discrete-event simulator (one
   dispatch kernel over all workers) and through a single sharded
   runtime (one kernel per shard, no auditors in either); the ratio
   isolates what sharding, per-worker latency clones and the serving
   report cost over one kernel, and must stay below
   ``MAX_DISPATCH_OVERHEAD``.
3. **Paced added latency** — a paced run on the scaled wall clock; p99 of
   how far (wall ms) batch completions lag their virtual instants.
4. **Layout invariance** — re-served with a different shard topology, the
   stress trace must produce float-identical metrics (asserted, not
   timed).

Results land in ``benchmarks/out/runtime.{txt,json}`` and the JSON also at
the repo root (``BENCH_runtime.json``) for trend diffing.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List

from benchmarks._common import bench_workers, emit
from repro.arrivals.traces import LoadTrace, synthesize_twitter_trace
from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.core.guarantees import stationary_occupancy
from repro.core.mdp import build_worker_mdp
from repro.obs.audit import GuaranteeAuditor
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from repro.runtime import ShardedController
from repro.selectors import RamsisSelector
from repro.sim.latency_model import DeterministicLatency
from repro.sim.simulator import Simulation, SimulationConfig

SLO_MS = 100.0
MAX_BATCH = 8
#: Stress topology per process: 4 shards x 2 workers.
NUM_SHARDS = 4
WORKERS_PER_SHARD = 2
TOTAL_WORKERS = NUM_SHARDS * WORKERS_PER_SHARD
#: Mean per-worker load of the scaled Twitter trace (QPS).
PER_WORKER_QPS = 40.0
#: Ceiling on the unpaced runtime's wall over the simulator's on the
#: same arrival stream (``dispatch_overhead_vs_fast``).
MAX_DISPATCH_OVERHEAD = 2.0


def _smoke() -> bool:
    return os.environ.get("RAMSIS_BENCH_SCALE", "bench") == "smoke"


def _min_qps() -> float:
    env = os.environ.get("RAMSIS_BENCH_MIN_QPS")
    if env:
        return float(env)
    return 10_000.0 if _smoke() else 100_000.0


def _bench_models() -> ModelSet:
    """Deterministic three-model zoo (the perfbench zoo)."""
    return ModelSet(
        [
            ModelProfile(
                name="fast",
                accuracy=0.60,
                latency=LinearLatencyModel(2.0, 8.0, std_ms=0.0),
                family="bench",
            ),
            ModelProfile(
                name="medium",
                accuracy=0.75,
                latency=LinearLatencyModel(3.0, 20.0, std_ms=0.0),
                family="bench",
            ),
            ModelProfile(
                name="slow",
                accuracy=0.90,
                latency=LinearLatencyModel(4.0, 60.0, std_ms=0.0),
                family="bench",
            ),
        ],
        task="bench",
    )


def _stress_trace() -> LoadTrace:
    """The Twitter-shaped trace scaled to the bench cluster's capacity."""
    duration_s = 10.0 if _smoke() else 60.0
    # Keep the paper's 30-interval diurnal shape at any duration.
    trace = synthesize_twitter_trace(
        duration_s=duration_s, interval_s=duration_s / 30.0
    )
    target_mean = PER_WORKER_QPS * TOTAL_WORKERS
    return trace.scaled(target_mean / trace.mean_qps, name="twitter-bench")


def _audit_refs(models: ModelSet, cluster_qps: float):
    """(policy, guarantees, occupancy) pinned for cluster load ``cluster_qps``.

    ``load_qps`` is the *cluster* arrival rate; the MDP splits it across
    ``num_workers`` internally (see ``WorkerMDPConfig.per_worker_arrivals``).
    """
    config = WorkerMDPConfig.default_poisson(
        models,
        slo_ms=SLO_MS,
        load_qps=cluster_qps,
        num_workers=TOTAL_WORKERS,
        fld_resolution=12,
        max_batch_size=MAX_BATCH,
    )
    result = generate_policy(config)
    occupancy = stationary_occupancy(
        build_worker_mdp(config), result.policy
    ).decision_conditional()
    return result.policy, result.guarantees, occupancy


def _stress_run(payload) -> Dict[str, float]:
    """One process's audited unpaced replay of the stress trace."""
    policy, guarantees, occupancy, seed = payload
    models = _bench_models()
    trace = _stress_trace()
    auditors = [
        GuaranteeAuditor(
            guarantees, policy=policy, expected_occupancy=occupancy
        )
        for _ in range(NUM_SHARDS)
    ]
    controller = ShardedController(
        models,
        slo_ms=SLO_MS,
        num_shards=NUM_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        max_batch_size=MAX_BATCH,
        latency_model=DeterministicLatency(),
        seed=seed,
        paced=False,
    )
    report = controller.serve(
        lambda s: RamsisSelector(policy), trace, auditors=auditors
    )
    breaches = [a.finalize() for a in auditors]
    return {
        "queries": report.submitted,
        "wall_s": report.wall_seconds,
        "qps": report.qps,
        "violation_rate": report.metrics.violation_rate,
        "accuracy": report.metrics.accuracy_per_satisfied_query,
        "violation_breaches": sum(b.violation_breaches for b in breaches),
        "accuracy_breaches": sum(b.accuracy_breaches for b in breaches),
    }


def test_runtime_stress():
    models = _bench_models()
    trace = _stress_trace()
    # Conservative pin: the policy generated for the trace's *peak* load
    # keeps the §5.1 bounds valid across the whole diurnal shape (the
    # accuracy floor and violation ceiling are one-sided, so serving any
    # lighter interval only moves the observables the safe way).
    policy, guarantees, occupancy = _audit_refs(models, trace.peak_qps)

    processes = max(2, min(bench_workers(), 4))
    payloads = [
        (policy, guarantees, occupancy, 100 + seed)
        for seed in range(processes)
    ]

    start = time.perf_counter()
    with ProcessPoolExecutor(max_workers=processes) as pool:
        rows: List[Dict[str, float]] = list(pool.map(_stress_run, payloads))
    fanout_wall_s = time.perf_counter() - start

    total_queries = sum(int(r["queries"]) for r in rows)
    aggregate_qps = sum(r["qps"] for r in rows)
    breaches = sum(
        int(r["violation_breaches"]) + int(r["accuracy_breaches"])
        for r in rows
    )
    assert breaches == 0, (
        f"{breaches} guarantee breach(es) across the stress fan-out"
    )
    floor = _min_qps()
    assert aggregate_qps >= floor, (
        f"aggregate throughput {aggregate_qps:,.0f} q/s below the "
        f"{floor:,.0f} q/s floor"
    )

    # ------------------------------------------------------------------
    # Dispatch overhead vs. the simulator (single process,
    # identical arrival stream, no auditors on either side).
    # ------------------------------------------------------------------
    from repro.runtime.workload import WorkloadGenerator

    arrivals = WorkloadGenerator(trace, SLO_MS, seed=100).sample()
    sim = Simulation(
        SimulationConfig(
            model_set=models,
            slo_ms=SLO_MS,
            num_workers=TOTAL_WORKERS,
            max_batch_size=MAX_BATCH,
        )
    )
    t0 = time.perf_counter()
    sim.run(RamsisSelector(policy), trace, arrival_times=arrivals)
    fast_s = time.perf_counter() - t0
    fast_qps = arrivals.shape[0] / fast_s

    single = ShardedController(
        models,
        slo_ms=SLO_MS,
        num_shards=NUM_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        max_batch_size=MAX_BATCH,
        latency_model=DeterministicLatency(),
        seed=100,
        paced=False,
    )
    single_report = single.serve(
        lambda s: RamsisSelector(policy), trace, arrivals=arrivals
    )
    overhead = fast_qps / single_report.qps if single_report.qps else 0.0
    assert overhead <= MAX_DISPATCH_OVERHEAD, (
        f"dispatch overhead {overhead:.2f}x over the simulator exceeds "
        f"the {MAX_DISPATCH_OVERHEAD:.1f}x ceiling"
    )

    # ------------------------------------------------------------------
    # Paced added latency: a short run on the scaled wall clock.
    # ------------------------------------------------------------------
    paced_trace = LoadTrace.constant(
        PER_WORKER_QPS * TOTAL_WORKERS, 3_000.0, name="paced-bench"
    )
    paced = ShardedController(
        models,
        slo_ms=SLO_MS,
        num_shards=NUM_SHARDS,
        workers_per_shard=WORKERS_PER_SHARD,
        max_batch_size=MAX_BATCH,
        latency_model=DeterministicLatency(),
        seed=7,
        time_scale=0.02,
        paced=True,
    )
    paced_report = paced.serve(lambda s: RamsisSelector(policy), paced_trace)

    # ------------------------------------------------------------------
    # Layout invariance on the stress stream (asserted, not timed).
    # ------------------------------------------------------------------
    other = ShardedController(
        models,
        slo_ms=SLO_MS,
        num_shards=1,
        workers_per_shard=TOTAL_WORKERS,
        max_batch_size=MAX_BATCH,
        latency_model=DeterministicLatency(),
        seed=100,
        paced=False,
    )
    other_report = other.serve(
        lambda s: RamsisSelector(policy), trace, arrivals=arrivals
    )
    assert other_report.metrics == single_report.metrics, (
        "shard layout changed the served results"
    )

    lines = [
        f"sharded runtime: {processes} process(es) x {NUM_SHARDS} shards "
        f"x {WORKERS_PER_SHARD} workers, {trace.name} "
        f"({trace.mean_qps:,.0f} QPS mean x {trace.duration_ms / 1000:g} s)",
        f"aggregate    {aggregate_qps:>10,.0f} q/s over {total_queries:,} "
        f"queries (floor {floor:,.0f}, fan-out wall {fanout_wall_s:.2f} s)",
        f"simulator    {fast_qps:>10,.0f} q/s -> dispatch overhead "
        f"{overhead:.2f}x (ceiling {MAX_DISPATCH_OVERHEAD:.1f}x; "
        f"single-process runtime {single_report.qps:,.0f} q/s)",
        f"paced        p99 added latency {paced_report.p99_added_latency_ms:.3f} ms "
        f"wall over {paced_report.submitted} queries",
        f"audits       {breaches} breaches across "
        f"{processes * NUM_SHARDS} shard auditors",
    ]
    data = {
        "scale": "smoke" if _smoke() else "bench",
        "processes": processes,
        "num_shards": NUM_SHARDS,
        "workers_per_shard": WORKERS_PER_SHARD,
        "trace_mean_qps": trace.mean_qps,
        "trace_duration_ms": trace.duration_ms,
        "total_queries": total_queries,
        "aggregate_qps": aggregate_qps,
        "min_qps_floor": floor,
        "fanout_wall_s": fanout_wall_s,
        "fast_engine_qps": fast_qps,
        "single_process_qps": single_report.qps,
        "dispatch_overhead_vs_fast": overhead,
        "max_dispatch_overhead": MAX_DISPATCH_OVERHEAD,
        "p99_added_latency": paced_report.p99_added_latency_ms,
        "violation_breaches": 0,
        "accuracy_breaches": 0,
        "per_process": rows,
    }
    emit("runtime", "\n".join(lines), data=data, root=True)
