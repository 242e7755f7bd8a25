"""Property-based tests on the simulator and metrics invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import LoadTrace
from repro.core.policy import Action
from repro.selectors.base import ModelSelector, QueueScope
from repro.sim.simulator import Simulation, SimulationConfig
from tests.conftest import make_tiny_model_set


class RandomishSelector(ModelSelector):
    """Deterministic but state-varying selector for property tests."""

    def __init__(self, scope: QueueScope, cap: int) -> None:
        self.queue_scope = scope
        self._cap = cap
        self._names = ("fast", "medium", "slow")
        self._tick = 0
        self.name = "randomish"

    def select(self, queue_length, earliest_slack_ms, now_ms, anticipated_load_qps):
        self._tick += 1
        model = self._names[self._tick % 3]
        batch = 1 + (self._tick % min(self._cap, queue_length))
        return Action(model=model, batch_size=min(batch, queue_length))


arrival_arrays = st.lists(
    st.floats(min_value=0.0, max_value=5_000.0),
    min_size=1,
    max_size=60,
).map(lambda xs: np.sort(np.asarray(xs, dtype=np.float64)))


class TestConservationProperties:
    @given(
        arrivals=arrival_arrays,
        workers=st.integers(1, 4),
        scope=st.sampled_from([QueueScope.PER_WORKER, QueueScope.CENTRAL]),
        slo=st.floats(min_value=20.0, max_value=500.0),
        cap=st.integers(1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_arrival_completes_once(self, arrivals, workers, scope, slo, cap):
        models = make_tiny_model_set()
        sim = Simulation(
            SimulationConfig(
                model_set=models, slo_ms=slo, num_workers=workers, seed=1
            )
        )
        metrics = sim.run(
            RandomishSelector(scope, cap),
            LoadTrace.constant(1.0, 6_000.0),
            arrival_times=arrivals,
        )
        assert metrics.total_queries == arrivals.shape[0]
        assert sum(metrics.model_query_counts.values()) == arrivals.shape[0]

    @given(
        arrivals=arrival_arrays,
        workers=st.integers(1, 3),
        drop=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_metrics_are_well_formed(self, arrivals, workers, drop):
        models = make_tiny_model_set()
        sim = Simulation(
            SimulationConfig(
                model_set=models,
                slo_ms=60.0,
                num_workers=workers,
                drop_late=drop,
                seed=2,
            )
        )
        from repro.selectors import GreedyDeadlineSelector

        metrics = sim.run(
            GreedyDeadlineSelector(),
            LoadTrace.constant(1.0, 6_000.0),
            arrival_times=arrivals,
        )
        assert 0.0 <= metrics.violation_rate <= 1.0
        assert 0.0 <= metrics.accuracy_per_satisfied_query <= 1.0
        assert metrics.satisfied_queries <= metrics.total_queries
        assert metrics.mean_response_ms >= 0.0
        assert metrics.total_queries == arrivals.shape[0]

    @given(arrivals=arrival_arrays, workers=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_responses_at_least_service_time(self, arrivals, workers):
        """No query can finish faster than the fastest single-query run."""
        models = make_tiny_model_set()
        from repro.selectors import GreedyDeadlineSelector

        sim = Simulation(
            SimulationConfig(
                model_set=models, slo_ms=100.0, num_workers=workers, seed=3
            )
        )
        metrics = sim.run(
            GreedyDeadlineSelector(),
            LoadTrace.constant(1.0, 6_000.0),
            arrival_times=arrivals,
        )
        floor = min(m.latency_ms(1) for m in models)
        assert metrics.p50_response_ms >= floor - 1e-9


class TestMonotonicityProperties:
    @given(slo=st.floats(min_value=30.0, max_value=200.0))
    @settings(max_examples=20, deadline=None)
    def test_looser_slo_never_more_violations(self, slo):
        """Same workload and decisions: a looser SLO cannot violate more."""
        models = make_tiny_model_set()
        from repro.selectors import FixedModelSelector

        rng = np.random.default_rng(9)
        arrivals = np.sort(rng.uniform(0.0, 10_000.0, size=300))

        def violations(s):
            sim = Simulation(
                SimulationConfig(
                    model_set=models, slo_ms=s, num_workers=2, seed=4
                )
            )
            # Fixed budget so decisions do not change with the SLO.
            selector = FixedModelSelector("fast", batch_budget_ms=40.0)
            return sim.run(
                selector, LoadTrace.constant(30.0, 10_000.0), arrival_times=arrivals
            ).violation_rate

        assert violations(slo * 1.5) <= violations(slo) + 1e-9
