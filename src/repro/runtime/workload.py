"""Workload generation (§6 "Prototype Implementation").

The prototype's workload generator process produces a stream of query
arrivals according to a query load trace under a stochastic inter-arrival
pattern.  :class:`WorkloadGenerator` samples the arrival timestamps
identically to the simulator, so runtime and simulator runs are
comparable query for query.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.arrivals.distributions import ArrivalDistribution, PoissonArrivals
from repro.arrivals.processes import sample_arrival_times
from repro.arrivals.traces import LoadTrace

__all__ = ["WorkloadGenerator"]


class WorkloadGenerator:
    """Samples a trace's arrival stream."""

    def __init__(
        self,
        trace: LoadTrace,
        slo_ms: float,
        pattern: Optional[ArrivalDistribution] = None,
        seed: int = 0,
    ) -> None:
        self._trace = trace
        self._slo_ms = slo_ms
        self._pattern = pattern or PoissonArrivals(max(trace.mean_qps, 1e-9))
        self._seed = seed

    def sample(self) -> np.ndarray:
        """The sorted arrival timestamps (ms) of this generator's stream."""
        rng = np.random.default_rng(self._seed)
        return np.sort(sample_arrival_times(self._trace, self._pattern, rng))
