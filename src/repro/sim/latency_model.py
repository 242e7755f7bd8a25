"""Execution latency models (§7.3.1).

The paper's *simulation* assumes inference latency is deterministically the
95th-percentile profile value; its *prototype implementation* observes
stochastic latencies with ~10 ms standard deviation.  Both behaviours are
modelled here so the fidelity experiment (Fig. 7) can compare them:

- :class:`DeterministicLatency` — always the p95 profile value;
- :class:`StochasticLatency` — draws from the model's latency distribution
  (truncated normal around the mean), reproducing the effect the paper
  reports: real executions are usually *shorter* than the planned p95, so
  the implementation achieves slightly higher accuracy and fewer
  violations than the simulation.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.profiles.models import ModelProfile

__all__ = ["LatencyModel", "DeterministicLatency", "StochasticLatency"]


class LatencyModel(abc.ABC):
    """Maps an MS decision to a realized execution latency."""

    #: True when :meth:`execution_ms` is a pure function of
    #: ``(model, batch_size)`` — no randomness, no hidden state.  The
    #: dispatch kernel memoizes latencies per ``(model, batch)`` (scaled
    #: per worker speed) only for cacheable models; stochastic models
    #: are called on every dispatch.
    cacheable: bool = False

    @abc.abstractmethod
    def execution_ms(self, model: ModelProfile, batch_size: int) -> float:
        """Realized latency of running ``batch_size`` queries on ``model``."""

    @abc.abstractmethod
    def clone(self, seed: int) -> "LatencyModel":
        """An independent copy (fresh randomness stream) for replications."""


class DeterministicLatency(LatencyModel):
    """The paper's simulation variant: latency == profiled p95."""

    cacheable = True

    def execution_ms(self, model: ModelProfile, batch_size: int) -> float:
        return model.latency_ms(batch_size)

    def clone(self, seed: int) -> "DeterministicLatency":
        del seed
        return DeterministicLatency()


class StochasticLatency(LatencyModel):
    """The paper's implementation variant: latency varies run to run."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def execution_ms(self, model: ModelProfile, batch_size: int) -> float:
        return model.sample_latency_ms(batch_size, self._rng)

    def clone(self, seed: int) -> "StochasticLatency":
        return StochasticLatency(seed)
