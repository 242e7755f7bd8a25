"""Tests for the paper's extension features: query dropping (§4.3.1's
alternative formulation) and multi-SLO serving (Appendix G)."""

import numpy as np
import pytest
from dataclasses import replace

from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.traces import LoadTrace
from repro.core.generator import generate_policy
from repro.core.mdp import _FALLBACK, build_worker_mdp
from repro.errors import ConfigurationError
from repro.selectors import GreedyDeadlineSelector, RamsisSelector
from repro.sim import (
    SLOClass,
    Simulation,
    SimulationConfig,
    partition_workers,
    run_multi_slo,
)
from tests.oracles.tolerance_vi import converged_values


class TestDropLateMDP:
    def test_fallback_transitions_to_empty(self, tiny_config):
        config = replace(tiny_config, drop_late=True)
        mdp = build_worker_mdp(config)
        sp = mdp.space
        row = mdp.transition_row(sp.index(4, 0), (_FALLBACK, 4))
        assert row[sp.EMPTY] == 1.0
        assert row.sum() == 1.0

    def test_full_state_drops(self, tiny_config):
        config = replace(tiny_config, drop_late=True)
        mdp = build_worker_mdp(config)
        stats = converged_values(config)
        # V(FULL) = gamma * V(EMPTY) at the fixed point in drop mode.
        assert stats.values[mdp.space.FULL] == pytest.approx(
            tiny_config.discount * stats.values[mdp.space.EMPTY], abs=1e-6
        )

    def test_drop_mode_solves_and_differs(self, tiny_config):
        """Both formulations solve; at an overload-prone load their value
        functions genuinely differ (dropping changes the dynamics)."""
        from repro.core.solvers import value_iteration

        config = tiny_config.with_load(45.0)
        serve = value_iteration(build_worker_mdp(config)).values
        drop = value_iteration(
            build_worker_mdp(replace(config, drop_late=True))
        ).values
        assert serve.shape == drop.shape
        assert not np.allclose(serve, drop)

    def test_guarantees_still_probabilities(self, tiny_config):
        g = generate_policy(replace(tiny_config, drop_late=True)).guarantees
        assert 0.0 <= g.expected_accuracy <= 1.0
        assert 0.0 <= g.expected_violation_rate <= 1.0


class TestDropLateSimulator:
    def _run(self, tiny_models, drop):
        trace = LoadTrace.constant(1.0, 300.0)
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=50.0,
                num_workers=1,
                drop_late=drop,
                seed=1,
            )
        )
        # Burst of 6 simultaneous arrivals: slow to clear within 50 ms.
        arrivals = np.zeros(6)
        return sim.run(GreedyDeadlineSelector(), trace, arrival_times=arrivals)

    def test_dropped_queries_counted_as_violations(self, tiny_models):
        metrics = self._run(tiny_models, drop=True)
        assert metrics.total_queries == 6
        assert "<dropped>" in metrics.model_query_counts
        assert metrics.violation_rate > 0.0

    def test_drop_conserves_queries(self, tiny_models):
        served = self._run(tiny_models, drop=False)
        dropped = self._run(tiny_models, drop=True)
        assert served.total_queries == dropped.total_queries == 6

    def test_no_drops_when_satisfiable(self, tiny_models):
        trace = LoadTrace.constant(20.0, 10_000.0)
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                num_workers=1,
                drop_late=True,
                seed=2,
            )
        )
        metrics = sim.run(
            GreedyDeadlineSelector(), trace, pattern=PoissonArrivals(20.0)
        )
        assert metrics.model_query_counts.get("<dropped>", 0) < (
            0.05 * metrics.total_queries
        )

    def test_drop_policy_end_to_end(self, tiny_config, tiny_models):
        """A drop-mode RAMSIS policy deployed with a drop-mode simulator."""
        config = replace(tiny_config.with_load(40.0), drop_late=True)
        policy = generate_policy(config, with_guarantees=False).policy
        trace = LoadTrace.constant(40.0, 20_000.0)
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=100.0,
                num_workers=1,
                max_batch_size=8,
                drop_late=True,
                seed=3,
            )
        )
        metrics = sim.run(
            RamsisSelector(policy), trace, pattern=PoissonArrivals(40.0)
        )
        assert metrics.total_queries > 0


class TestPartitionWorkers:
    def _classes(self, tiny_models):
        return [
            SLOClass(
                slo_ms=60.0,
                trace=LoadTrace.constant(60.0, 5_000.0),
                selector=GreedyDeadlineSelector(),
            ),
            SLOClass(
                slo_ms=200.0,
                trace=LoadTrace.constant(20.0, 5_000.0),
                selector=GreedyDeadlineSelector(),
            ),
        ]

    def test_partition_sums_to_total(self, tiny_models):
        shares = partition_workers(self._classes(tiny_models), tiny_models, 6)
        assert sum(shares.values()) == 6
        assert all(v >= 1 for v in shares.values())

    def test_heavier_class_gets_more(self, tiny_models):
        shares = partition_workers(self._classes(tiny_models), tiny_models, 6)
        assert shares[60.0] >= shares[200.0]

    def test_too_few_workers_rejected(self, tiny_models):
        with pytest.raises(ConfigurationError):
            partition_workers(self._classes(tiny_models), tiny_models, 1)


class TestRunMultiSLO:
    def test_per_class_isolation(self, tiny_models):
        classes = [
            SLOClass(
                slo_ms=60.0,
                trace=LoadTrace.constant(40.0, 8_000.0),
                selector=GreedyDeadlineSelector(),
                num_workers=2,
            ),
            SLOClass(
                slo_ms=200.0,
                trace=LoadTrace.constant(15.0, 8_000.0),
                selector=GreedyDeadlineSelector(),
                num_workers=1,
            ),
        ]
        report = run_multi_slo(tiny_models, classes, seed=5)
        assert set(report.per_class) == {60.0, 200.0}
        assert report.total_queries == sum(
            m.total_queries for m in report.per_class.values()
        )
        # The looser SLO class can afford the more accurate model.
        tight = report.per_class[60.0]
        loose = report.per_class[200.0]
        assert loose.accuracy_per_satisfied_query >= (
            tight.accuracy_per_satisfied_query - 1e-9
        )

    def test_auto_partition(self, tiny_models):
        classes = [
            SLOClass(
                slo_ms=60.0,
                trace=LoadTrace.constant(60.0, 4_000.0),
                selector=GreedyDeadlineSelector(),
            ),
            SLOClass(
                slo_ms=200.0,
                trace=LoadTrace.constant(10.0, 4_000.0),
                selector=GreedyDeadlineSelector(),
            ),
        ]
        report = run_multi_slo(tiny_models, classes, total_workers=5, seed=6)
        assert sum(report.workers.values()) == 5

    def test_aggregate_metrics(self, tiny_models):
        classes = [
            SLOClass(
                slo_ms=100.0,
                trace=LoadTrace.constant(20.0, 5_000.0),
                selector=GreedyDeadlineSelector(),
                num_workers=1,
            )
        ]
        report = run_multi_slo(tiny_models, classes, seed=7)
        only = report.per_class[100.0]
        assert report.aggregate_accuracy == pytest.approx(
            only.accuracy_per_satisfied_query
        )
        assert report.aggregate_violation_rate == pytest.approx(
            only.violation_rate
        )

    def test_duplicate_slos_rejected(self, tiny_models):
        cls = SLOClass(
            slo_ms=100.0,
            trace=LoadTrace.constant(10.0, 1_000.0),
            selector=GreedyDeadlineSelector(),
            num_workers=1,
        )
        with pytest.raises(ConfigurationError):
            run_multi_slo(tiny_models, [cls, cls], seed=1)

    def test_missing_total_workers_rejected(self, tiny_models):
        cls = SLOClass(
            slo_ms=100.0,
            trace=LoadTrace.constant(10.0, 1_000.0),
            selector=GreedyDeadlineSelector(),
        )
        with pytest.raises(ConfigurationError):
            run_multi_slo(tiny_models, [cls], seed=1)
