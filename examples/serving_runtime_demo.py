#!/usr/bin/env python3
"""Wall-clock serving with the prototype-style runtime (§6).

The paper evaluates a real client-server prototype next to its simulator.
This example runs the in-process equivalent: a paced
:class:`~repro.runtime.ShardedController` replays the trace on a
compressed wall clock, two controller shards each dispatching for two
workers whose inference latencies are sampled stochastically.  The same
policy is then run through the discrete-event simulator to show the two
agree — the runtime slightly beats the deterministic-p95 simulator because
real executions usually finish ahead of the planned p95 latency (§7.3.1's
finding, reproduced).

Run:  python examples/serving_runtime_demo.py
"""

from repro import (
    LoadTrace,
    PoissonArrivals,
    WorkerMDPConfig,
    build_text_model_set,
    generate_policy,
)
from repro.runtime import ShardedController
from repro.selectors import RamsisSelector
from repro.sim import (
    OracleLoadMonitor,
    Simulation,
    SimulationConfig,
    StochasticLatency,
)

SHARDS = 2
WORKERS = 4
LOAD_QPS = 120.0
SLO_MS = 200.0
DURATION_MS = 8_000.0
TIME_SCALE = 0.25  # 4x faster than real time


def main() -> None:
    models = build_text_model_set()
    config = WorkerMDPConfig.default_poisson(
        models, slo_ms=SLO_MS, load_qps=LOAD_QPS, num_workers=WORKERS,
    )
    result = generate_policy(config)
    policy = result.policy
    trace = LoadTrace.constant(LOAD_QPS, DURATION_MS)

    print(f"text task, {WORKERS} workers, {LOAD_QPS:g} QPS, SLO {SLO_MS:g} ms")
    print(f"policy: E[acc] >= {result.guarantees.expected_accuracy * 100:.2f}%, "
          f"E[viol] <= {result.guarantees.expected_violation_rate * 100:.3f}%\n")

    # Paced sharded runtime on the scaled wall clock, stochastic latencies.
    controller = ShardedController(
        models,
        SLO_MS,
        num_shards=SHARDS,
        workers_per_shard=WORKERS // SHARDS,
        time_scale=TIME_SCALE,
        seed=3,
        paced=True,
    )
    report = controller.serve(
        lambda shard: RamsisSelector(policy),
        trace,
        pattern=PoissonArrivals(LOAD_QPS),
    )
    print(f"runtime (paced, {SHARDS} shards, {1 / TIME_SCALE:.0f}x speed): "
          f"{report.metrics.summary()}")
    print(f"  wall time: {report.wall_seconds:.1f}s for "
          f"{DURATION_MS / 1000:.0f}s of virtual serving, "
          f"p99 added latency {report.p99_added_latency_ms:.2f} ms\n")

    # Discrete-event simulator on the same workload, both latency modes.
    for label, latency in (
        ("simulator (deterministic p95)", None),
        ("simulator (stochastic)", StochasticLatency(seed=3)),
    ):
        sim_config = SimulationConfig(
            model_set=models,
            slo_ms=SLO_MS,
            num_workers=WORKERS,
            monitor=OracleLoadMonitor(trace),
            seed=3,
        )
        if latency is not None:
            sim_config.latency_model = latency
        metrics = Simulation(sim_config).run(
            RamsisSelector(policy), trace, pattern=PoissonArrivals(LOAD_QPS)
        )
        print(f"{label}: {metrics.summary()}")


if __name__ == "__main__":
    main()
