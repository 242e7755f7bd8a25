"""Drop-late in the central-queue discipline: worker bookkeeping."""

import numpy as np

from repro.arrivals.traces import LoadTrace
from repro.core.policy import Action
from repro.selectors.base import ModelSelector, QueueScope
from repro.sim.simulator import Simulation, SimulationConfig


class LateWhenCrowdedSelector(ModelSelector):
    """Central-scope selector that declares the queue lost when deep."""

    queue_scope = QueueScope.CENTRAL
    name = "late-when-crowded"

    def __init__(self, threshold: int = 3) -> None:
        self._threshold = threshold

    def select(self, queue_length, earliest_slack_ms, now_ms, anticipated_load_qps):
        if queue_length >= self._threshold:
            return Action(model="fast", batch_size=queue_length, is_late=True)
        return Action(model="fast", batch_size=queue_length)


class TestCentralDrop:
    def test_workers_not_leaked_after_drop(self, tiny_models):
        """A drop decision must return the grabbing worker to the idle
        pool; otherwise later arrivals starve.  Conservation across a
        burst + follow-up arrivals catches the leak."""
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=50.0,
                num_workers=2,
                drop_late=True,
                seed=1,
            )
        )
        burst = np.zeros(8)  # crowded: first decisions drop
        later = np.array([500.0, 510.0, 900.0])
        arrivals = np.concatenate([burst, later])
        metrics = sim.run(
            LateWhenCrowdedSelector(threshold=3),
            LoadTrace.constant(1.0, 2_000.0),
            arrival_times=arrivals,
        )
        assert metrics.total_queries == arrivals.shape[0]
        # The later (uncrowded) queries are served normally.
        assert metrics.model_query_counts.get("fast", 0) >= 3

    def test_drop_off_serves_late_instead(self, tiny_models):
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_models,
                slo_ms=50.0,
                num_workers=2,
                drop_late=False,
                seed=1,
            )
        )
        arrivals = np.zeros(8)
        metrics = sim.run(
            LateWhenCrowdedSelector(threshold=3),
            LoadTrace.constant(1.0, 2_000.0),
            arrival_times=arrivals,
        )
        assert metrics.total_queries == 8
        assert "<dropped>" not in metrics.model_query_counts
