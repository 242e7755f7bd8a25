"""Ablation: serve-late (paper default) vs drop-late (§4.3.1 alternative).

The paper's evaluation never drops queries ("better served late than
never") but notes RAMSIS can be reformulated to drop unsatisfiable queries
via a transition-probability change.  This ablation quantifies the trade:
under overload, dropping sheds the backlog so the *surviving* queries meet
their deadlines, while serve-late grinds through everything late.
"""

import pytest

from benchmarks._common import bench_scale, emit
from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.traces import LoadTrace
from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.experiments.reporting import format_table
from repro.experiments.tasks import image_task
from repro.selectors import RamsisSelector
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig


def _run(load_qps: float, drop: bool):
    scale = bench_scale()
    task = image_task()
    slo = task.slos_ms[0]
    workers = scale.constant_workers_image
    config = WorkerMDPConfig.default_poisson(
        task.model_set,
        slo_ms=slo,
        load_qps=load_qps,
        num_workers=workers,
        fld_resolution=scale.fld_resolution,
        max_batch_size=scale.max_batch_size,
        drop_late=drop,
    )
    policy = generate_policy(config, with_guarantees=False).policy
    trace = LoadTrace.constant(load_qps, scale.constant_duration_s * 1000.0)
    sim = Simulation(
        SimulationConfig(
            model_set=task.model_set,
            slo_ms=slo,
            num_workers=workers,
            max_batch_size=scale.max_batch_size,
            monitor=OracleLoadMonitor(trace),
            drop_late=drop,
            seed=43,
            track_responses=False,
        )
    )
    return sim.run(RamsisSelector(policy), trace, pattern=PoissonArrivals(load_qps))


@pytest.fixture(scope="module")
def drop_cells():
    scale = bench_scale()
    loads = [scale.constant_loads_qps[0], scale.constant_loads_qps[-1]]
    cells = {}
    for load in loads:
        for drop in (False, True):
            cells[(load, drop)] = _run(load, drop)
    return cells


def test_drop_ablation_report(benchmark, drop_cells):
    cells = benchmark.pedantic(lambda: drop_cells, rounds=1, iterations=1)
    rows = []
    data_rows = []
    for (load, drop), m in sorted(cells.items()):
        dropped = m.model_query_counts.get("<dropped>", 0)
        rows.append(
            (
                f"{load:g}",
                "drop" if drop else "serve-late",
                f"{m.accuracy_per_satisfied_query * 100:.2f}%",
                f"{m.violation_rate * 100:.2f}%",
                dropped,
            )
        )
        data_rows.append(
            {
                "load_qps": load,
                "mode": "drop" if drop else "serve-late",
                "accuracy": m.accuracy_per_satisfied_query,
                "violation_rate": m.violation_rate,
                "dropped": int(dropped),
                "queries": m.total_queries,
            }
        )
    emit(
        "ablation_drop_late",
        format_table(
            ["load (QPS)", "mode", "accuracy", "violations", "dropped"],
            rows,
            title="Ablation — serve-late (paper) vs drop-late (§4.3.1)",
        ),
        data={"rows": data_rows},
    )


def test_no_drops_at_satisfiable_load(drop_cells):
    load = min(load for load, _ in drop_cells)
    metrics = drop_cells[(load, True)]
    dropped = metrics.model_query_counts.get("<dropped>", 0)
    assert dropped <= 0.02 * metrics.total_queries


def test_modes_agree_when_satisfiable(drop_cells):
    load = min(load for load, _ in drop_cells)
    serve = drop_cells[(load, False)]
    drop = drop_cells[(load, True)]
    assert serve.accuracy_per_satisfied_query == pytest.approx(
        drop.accuracy_per_satisfied_query, abs=0.03
    )


def test_all_queries_accounted_under_overload(drop_cells):
    load = max(load for load, _ in drop_cells)
    serve = drop_cells[(load, False)]
    drop = drop_cells[(load, True)]
    assert serve.total_queries == drop.total_queries
