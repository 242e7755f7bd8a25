"""§3.1.2 / §5.2: state-space scale — naive explosion, and the solver gate.

The paper reports that a direct discrete-time formulation tracking every
pending deadline needs an exponential state space — with their parameters
(N = 32, D = 100) value iteration did not finish in 24 hours — while the
decomposed (n, T_j) formulation is polynomial and solves in seconds.

This benchmark reproduces the claim in miniature (enumerated naive states
grow combinatorially with (D, N) while the decomposed space is N*D + 2),
and then gates the **tensorized Bellman sweeps** of
:class:`repro.core.mdp.WorkerMDP` end-to-end against the loop oracle
(:class:`tests.oracles.loop_mdp.LoopWorkerMDP`):

- the two must agree *exactly* — float-``==`` value functions, identical
  sweep counts, byte-identical saved policies — on a variable-batching
  cell;
- the tensor value-iteration solve must clear ``RAMSIS_BENCH_MIN_SPEEDUP``
  over the loop oracle's (default 3x at bench scale, 1.5x at
  ``RAMSIS_BENCH_SCALE=smoke``);
- a many-model MD-grid cell (M = 60 at bench scale) far past what the
  loop oracle solves comfortably must converge.

Headline numbers land in ``BENCH_state_space.json`` at the repo root and
are regression-gated in CI via ``ramsis bench-history --check``.
"""

import os
import time

import numpy as np
import pytest

from benchmarks._common import emit
from repro.arrivals.distributions import PoissonArrivals
from repro.core.config import (
    BatchingMode,
    Discretization,
    WorkerMDPConfig,
)
from repro.core.discretization import fixed_length_grid
from repro.core.mdp import build_worker_mdp
from repro.core.naive import NaiveWorkerMDP
from repro.core.solvers import value_iteration
from repro.experiments.reporting import format_table
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from tests.conftest import make_tiny_model_set
from tests.oracles.loop_mdp import LoopWorkerMDP

CASES = [(3, 2), (5, 3), (6, 4), (7, 4)]


def _smoke() -> bool:
    return os.environ.get("RAMSIS_BENCH_SCALE", "bench") == "smoke"


def _min_speedup() -> float:
    env = os.environ.get("RAMSIS_BENCH_MIN_SPEEDUP")
    if env:
        return float(env)
    return 1.5 if _smoke() else 3.0


def _bench_zoo(num_models: int) -> ModelSet:
    """A synthetic accuracy/latency ladder wide enough to stress the fold."""
    return ModelSet(
        [
            ModelProfile(
                name=f"m{i:02d}",
                accuracy=0.55 + 0.4 * i / (num_models - 1),
                latency=LinearLatencyModel(
                    2.0 + 0.35 * i, 6.0 + 1.8 * i, std_ms=0.0
                ),
                family="bench",
            )
            for i in range(num_models)
        ],
        task="bench",
    )


@pytest.fixture(scope="module")
def comparison_rows():
    models = make_tiny_model_set()
    rows = []
    for d, n in CASES:
        grid = fixed_length_grid(100.0, d)
        start = time.perf_counter()
        naive = NaiveWorkerMDP(
            models, grid, PoissonArrivals(30.0), max_queue=n, max_states=100_000
        )
        _, naive_stats = naive.solve(tolerance=1e-6)
        naive_total = time.perf_counter() - start

        config = WorkerMDPConfig(
            model_set=models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(30.0),
            max_queue=n,
            fld_resolution=d,
        )
        start = time.perf_counter()
        decomposed = build_worker_mdp(config)
        value_iteration(decomposed)
        decomposed_total = time.perf_counter() - start
        rows.append(
            (
                d,
                n,
                naive.num_states,
                decomposed.num_states,
                naive_total,
                decomposed_total,
            )
        )
    return rows


def test_state_space_report(benchmark, comparison_rows):
    rows = benchmark.pedantic(lambda: comparison_rows, rounds=1, iterations=1)
    emit(
        "state_space_explosion",
        format_table(
            [
                "D",
                "N",
                "naive |S|",
                "RAMSIS |S|",
                "naive solve (s)",
                "RAMSIS solve (s)",
            ],
            [
                (d, n, ns, ds, f"{nt:.2f}", f"{dt:.3f}")
                for d, n, ns, ds, nt, dt in rows
            ],
            title="§3.1.2 — naive joint-deadline MDP vs RAMSIS decomposition",
        ),
        data={
            "rows": [
                {
                    "fld_resolution": d,
                    "max_queue": n,
                    "naive_states": ns,
                    "decomposed_states": ds,
                    "naive_solve_s": nt,
                    "decomposed_solve_s": dt,
                }
                for d, n, ns, ds, nt, dt in rows
            ]
        },
    )


def test_naive_space_grows_superlinearly(comparison_rows):
    naive_sizes = [row[2] for row in comparison_rows]
    ratios = [b / a for a, b in zip(naive_sizes, naive_sizes[1:])]
    # Growth accelerates case over case.
    assert ratios[-1] > 1.5
    assert naive_sizes[-1] > 8 * naive_sizes[0]


def test_decomposed_space_stays_linear(comparison_rows):
    for d, n, _, decomposed_size, _, _ in comparison_rows:
        assert decomposed_size == n * (d + 1) + 2


def test_naive_dwarfs_decomposed(comparison_rows):
    d, n, naive_size, decomposed_size, naive_t, decomposed_t = comparison_rows[-1]
    assert naive_size > 3 * decomposed_size
    assert naive_t > decomposed_t


# ----------------------------------------------------------------------
# Solver-backend gate: exact tensor/loop agreement + speedup floor
# ----------------------------------------------------------------------
def _gate_config() -> WorkerMDPConfig:
    """The gated cell: variable batching, where the fold dominates.

    Variable batching is the expensive mode — the loop backend folds every
    partial-drain action with a Python-level pass — so it is both the
    honest headline for the tensor backend and the mode the paper's
    Table 2 extension needs at scale.
    """
    num_models = 8 if _smoke() else 16
    queue = 8 if _smoke() else 10
    resolution = 16 if _smoke() else 24
    return WorkerMDPConfig(
        model_set=_bench_zoo(num_models),
        slo_ms=110.0,
        arrivals=PoissonArrivals(60.0),
        num_workers=1,
        max_batch_size=queue,
        max_queue=queue,
        fld_resolution=resolution,
        batching=BatchingMode.VARIABLE,
        pareto_prune=False,
    )


@pytest.fixture(scope="module")
def solver_gate(tmp_path_factory):
    """Solve the gated cell with both backends, interleaved best-of-reps."""
    config = _gate_config()
    loop = LoopWorkerMDP(config)
    tensor = build_worker_mdp(config)
    # Best of five: each timed solve takes a fraction of a second.
    reps = 5

    vi_times = {"loop": [], "tensor": []}
    vi_stats = {}
    for _ in range(reps):
        for name, mdp in (("loop", loop), ("tensor", tensor)):
            start = time.perf_counter()
            vi_stats[name] = value_iteration(mdp, tolerance=1e-7)
            vi_times[name].append(time.perf_counter() - start)

    out_dir = tmp_path_factory.mktemp("solver_gate")
    policy_bytes = {}
    for name, mdp in (("loop", loop), ("tensor", tensor)):
        path = out_dir / f"{name}.json"
        mdp.extract_policy(vi_stats[name].values).save(path)
        policy_bytes[name] = path.read_bytes()

    return {
        "config": config,
        "states": loop.num_states,
        "plan_entries": len(loop._partial_plan),
        "vi_times": {k: min(v) for k, v in vi_times.items()},
        "vi_stats": vi_stats,
        "policy_bytes": policy_bytes,
    }


def test_solver_backends_agree_exactly(solver_gate):
    """The acceptance bar: float-``==``, not allclose."""
    vi = solver_gate["vi_stats"]
    assert np.array_equal(vi["loop"].values, vi["tensor"].values)
    assert vi["loop"].iterations == vi["tensor"].iterations
    assert solver_gate["policy_bytes"]["loop"] == (
        solver_gate["policy_bytes"]["tensor"]
    )


def test_solver_speedup_floor(solver_gate):
    loop_s = solver_gate["vi_times"]["loop"]
    tensor_s = solver_gate["vi_times"]["tensor"]
    floor = _min_speedup()
    speedup = loop_s / tensor_s
    assert speedup >= floor, (
        f"tensor value iteration ran only {speedup:.2f}x faster than the "
        f"loop oracle's (floor {floor:.1f}x): loop {loop_s:.3f}s vs "
        f"tensor {tensor_s:.3f}s"
    )


# ----------------------------------------------------------------------
# Scale demo: the cell the loop backend cannot serve interactively
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scale_demo():
    """Many-model MD-grid variable-batching cell on the tensor backend.

    At bench scale this is M = 60 on a model-based grid — roughly 2k
    states and ~180 partial-drain actions, the regime the tensorized
    sweeps were built for.  The loop backend is only sampled per-sweep
    (full solves take many times longer), and only at bench scale.
    """
    num_models = 24 if _smoke() else 60
    config = WorkerMDPConfig(
        model_set=_bench_zoo(num_models),
        slo_ms=140.0,
        arrivals=PoissonArrivals(80.0),
        num_workers=1,
        max_batch_size=6 if _smoke() else 8,
        max_queue=8 if _smoke() else 12,
        discretization=Discretization.MODEL_BASED,
        batching=BatchingMode.VARIABLE,
        pareto_prune=False,
    )
    tensor = build_worker_mdp(config)
    start = time.perf_counter()
    stats = value_iteration(tensor, tolerance=1e-6)
    tensor_solve_s = time.perf_counter() - start

    est_loop_solve_s = None
    per_sweep_speedup = None
    if not _smoke():
        loop = LoopWorkerMDP(config)
        values = loop.initial_values()
        start = time.perf_counter()
        for _ in range(3):
            values = loop.backup(values).values
        loop_sweep_s = (time.perf_counter() - start) / 3
        est_loop_solve_s = loop_sweep_s * stats.iterations
        per_sweep_speedup = loop_sweep_s / (tensor_solve_s / stats.iterations)

    return {
        "num_models": num_models,
        "states": tensor.num_states,
        "plan_entries": len(tensor._partial_plan),
        "stats": stats,
        "tensor_solve_s": tensor_solve_s,
        "est_loop_solve_s": est_loop_solve_s,
        "per_sweep_speedup": per_sweep_speedup,
    }


def test_scale_demo_converges(scale_demo):
    assert scale_demo["stats"].converged
    floor = 300 if _smoke() else 1500
    assert scale_demo["states"] >= floor
    assert scale_demo["plan_entries"] >= (60 if _smoke() else 150)


def test_solver_gate_report(benchmark, solver_gate, scale_demo):
    payload = benchmark.pedantic(
        lambda: (solver_gate, scale_demo), rounds=1, iterations=1
    )
    gate, demo = payload
    vi = gate["vi_stats"]
    loop_s = gate["vi_times"]["loop"]
    tensor_s = gate["vi_times"]["tensor"]
    config = gate["config"]
    rows = [
        (
            "gate (FLD, variable)",
            len(config.model_set),
            gate["states"],
            gate["plan_entries"],
            f"{loop_s:.3f}",
            f"{tensor_s:.3f}",
            f"{loop_s / tensor_s:.2f}x",
        ),
        (
            "scale demo (MD, variable)",
            demo["num_models"],
            demo["states"],
            demo["plan_entries"],
            "-"
            if demo["est_loop_solve_s"] is None
            else f"~{demo['est_loop_solve_s']:.1f}",
            f"{demo['tensor_solve_s']:.3f}",
            "-"
            if demo["per_sweep_speedup"] is None
            else f"{demo['per_sweep_speedup']:.2f}x/sweep",
        ),
    ]
    data = {
        "solver_gate": {
            "models": len(config.model_set),
            "states": gate["states"],
            "plan_entries": gate["plan_entries"],
            "vi_iterations": vi["loop"].iterations,
            "values_exactly_equal": bool(
                np.array_equal(vi["loop"].values, vi["tensor"].values)
            ),
            "policy_bytes_equal": gate["policy_bytes"]["loop"]
            == gate["policy_bytes"]["tensor"],
            "loop_vi_solve_s": gate["vi_times"]["loop"],
            "tensor_vi_solve_s": gate["vi_times"]["tensor"],
            "vi_speedup": loop_s / tensor_s,
            "min_speedup": _min_speedup(),
        },
        "scale_demo": {
            "models": demo["num_models"],
            "states": demo["states"],
            "plan_entries": demo["plan_entries"],
            "vi_iterations": demo["stats"].iterations,
            "tensor_solve_s": demo["tensor_solve_s"],
            "est_loop_solve_s": demo["est_loop_solve_s"],
            "per_sweep_speedup": demo["per_sweep_speedup"],
        },
        "scale": "smoke" if _smoke() else "bench",
    }
    emit(
        "state_space",
        format_table(
            [
                "cell",
                "M",
                "|S|",
                "plan",
                "loop solve (s)",
                "tensor solve (s)",
                "speedup",
            ],
            rows,
            title=(
                "solver backends — exact-equivalence gate and tensor scale demo"
            ),
        ),
        data=data,
        root=True,
    )
