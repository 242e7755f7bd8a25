"""Micro-benchmarks of the core building blocks.

Not a paper artifact — these time the individual stages that every
experiment composes, so performance regressions are localized:

- transition-kernel construction (split and equilibrium-renewal views);
- one value-iteration sweep and a full solve;
- policy lookup (the online fast path, §3.2.2 — must be microseconds);
- stationary-distribution evaluation (§5.1);
- discrete-event simulator throughput (queries/second of sim time).
"""

import time

import numpy as np

from benchmarks._common import bench_scale, emit
from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.traces import LoadTrace
from repro.core.config import WorkerMDPConfig
from repro.core.discretization import fixed_length_grid
from repro.core.generator import generate_policy
from repro.core.guarantees import stationary_distribution
from repro.core.mdp import build_worker_mdp
from repro.core.solvers import value_iteration
from repro.core.transitions import (
    EquilibriumRenewalKernelBuilder,
    GammaGaps,
    SplitViewKernelBuilder,
)
from repro.experiments.reporting import format_table
from repro.experiments.tasks import image_task
from repro.selectors import JellyfishPlusSelector, RamsisSelector
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig


def _config(load=160.0, workers=8):
    task = image_task()
    return WorkerMDPConfig.default_poisson(
        task.model_set,
        slo_ms=task.slos_ms[0],
        load_qps=load,
        num_workers=workers,
        fld_resolution=bench_scale().fld_resolution,
        max_batch_size=bench_scale().max_batch_size,
    )


def test_split_kernel_row(benchmark):
    grid = fixed_length_grid(150.0, 100)
    builder = SplitViewKernelBuilder(grid, PoissonArrivals(30.0), max_queue=32)

    rows = benchmark(builder.service_rows, [63.4])
    assert abs(rows[0].sum() - 1.0) < 1e-8


def test_equilibrium_kernel_row(benchmark):
    grid = fixed_length_grid(150.0, 100)
    builder = EquilibriumRenewalKernelBuilder(
        grid, GammaGaps(shape=8.0, scale_ms=25.0 / 8.0), max_queue=32
    )

    rows = benchmark(builder.service_rows, [63.4])
    assert abs(rows[0, 0].sum() - 1.0) < 1e-7


def test_value_iteration_sweep(benchmark):
    mdp = build_worker_mdp(_config())
    values = mdp.initial_values()

    result = benchmark(lambda: mdp.backup(values))
    assert result.values.shape == values.shape


def test_full_policy_generation(benchmark):
    result = benchmark.pedantic(
        generate_policy,
        args=(_config(),),
        kwargs={"with_guarantees": False},
        rounds=1,
        iterations=1,
    )
    assert result.iterations > 0


def test_policy_online_lookup(benchmark):
    """§3.2.2: online MS decisions must be effectively free."""
    policy = generate_policy(_config(), with_guarantees=False).policy
    rng = np.random.default_rng(0)
    queue_lengths = rng.integers(1, policy.max_queue + 1, size=256)
    slacks = rng.uniform(-10.0, 150.0, size=256)

    def lookups():
        for n, s in zip(queue_lengths, slacks):
            policy.action_for(int(n), float(s))

    benchmark(lookups)


def test_stationary_distribution(benchmark):
    config = _config()
    mdp = build_worker_mdp(config)
    policy = mdp.extract_policy(value_iteration(mdp).values)

    dist = benchmark.pedantic(
        stationary_distribution, args=(mdp, policy), rounds=1, iterations=1
    )
    assert abs(dist.sum() - 1.0) < 1e-8


def test_simulator_throughput(benchmark):
    """Simulated queries per wall second, RAMSIS discipline."""
    task = image_task()
    load, workers = 160.0, 8
    policy = generate_policy(_config(load, workers), with_guarantees=False).policy
    trace = LoadTrace.constant(load, 20_000.0)
    sim = Simulation(
        SimulationConfig(
            model_set=task.model_set,
            slo_ms=task.slos_ms[0],
            num_workers=workers,
            max_batch_size=bench_scale().max_batch_size,
            monitor=OracleLoadMonitor(trace),
            seed=7,
            track_responses=False,
        )
    )

    metrics = benchmark.pedantic(
        sim.run,
        args=(RamsisSelector(policy), trace),
        kwargs={"pattern": PoissonArrivals(load)},
        rounds=1,
        iterations=1,
    )
    assert metrics.total_queries > 1000


def test_simulator_throughput_central_queue(benchmark):
    """Baseline (central queue) discipline throughput."""
    task = image_task()
    load, workers = 160.0, 8
    trace = LoadTrace.constant(load, 20_000.0)
    sim = Simulation(
        SimulationConfig(
            model_set=task.model_set,
            slo_ms=task.slos_ms[0],
            num_workers=workers,
            max_batch_size=bench_scale().max_batch_size,
            monitor=OracleLoadMonitor(trace),
            seed=7,
            track_responses=False,
        )
    )

    metrics = benchmark.pedantic(
        sim.run,
        args=(JellyfishPlusSelector(), trace),
        kwargs={"pattern": PoissonArrivals(load)},
        rounds=1,
        iterations=1,
    )
    assert metrics.total_queries > 1000


def test_core_micro_report():
    """One self-timed pass over the core stages, persisted for trend diffs.

    The pytest-benchmark fixtures above give precise per-stage numbers
    interactively; this table is the machine-readable record that
    ``ramsis bench-history`` tracks across commits.
    """
    config = _config()
    timings = {}

    start = time.perf_counter()
    mdp = build_worker_mdp(config)
    timings["build_worker_mdp_s"] = time.perf_counter() - start

    values = mdp.initial_values()
    start = time.perf_counter()
    mdp.backup(values)
    timings["vi_sweep_s"] = time.perf_counter() - start

    start = time.perf_counter()
    solution = value_iteration(mdp)
    timings["value_iteration_s"] = time.perf_counter() - start

    policy = mdp.extract_policy(solution.values)
    rng = np.random.default_rng(0)
    queue_lengths = rng.integers(1, policy.max_queue + 1, size=1024)
    slacks = rng.uniform(-10.0, 150.0, size=1024)
    start = time.perf_counter()
    for n, s in zip(queue_lengths, slacks):
        policy.action_for(int(n), float(s))
    elapsed = time.perf_counter() - start
    timings["policy_lookup_us"] = elapsed / len(queue_lengths) * 1e6

    start = time.perf_counter()
    stationary_distribution(mdp, policy)
    timings["stationary_distribution_s"] = time.perf_counter() - start

    emit(
        "core_micro",
        format_table(
            ["stage", "time"],
            [(k, f"{v:.4f}") for k, v in timings.items()],
            title="Core building-block timings (single pass)",
        ),
        data=timings,
    )
    # §3.2.2: online decisions must be effectively free.
    assert timings["policy_lookup_us"] < 1000.0
