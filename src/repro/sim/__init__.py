"""Discrete-event inference-serving simulator (§6 "Simulation Framework").

The paper's own evaluation infrastructure is a ~1K-line Python simulator
that replays a trace of arrival times, tracks central/worker queue states
and worker busy periods, and applies profiled inference latencies to MS&S
decisions.  This subpackage is the equivalent component:

- :mod:`repro.sim.latency_model` — deterministic-p95 execution (the
  paper's "simulation" variant) and stochastic execution (its
  "implementation" variant, §7.3.1);
- :mod:`repro.sim.monitor` — the 500 ms moving-average load monitor (§6);
- :mod:`repro.sim.metrics` — Accuracy Per Satisfied Query and Latency SLO
  Violation Rate (§7 "Performance Metrics");
- :mod:`repro.sim.kernel` — the event kernel (shared with the serving
  tier), for RAMSIS's per-worker queues and the baselines' central queue;
- :mod:`repro.sim.simulator` — the simulation driver over that kernel.
"""

from repro.sim.latency_model import (
    DeterministicLatency,
    LatencyModel,
    StochasticLatency,
)
from repro.sim.metrics import SimulationMetrics
from repro.sim.monitor import LoadMonitor, OracleLoadMonitor
from repro.sim.multislo import MultiSLOReport, SLOClass, partition_workers, run_multi_slo
from repro.sim.simulator import QueueDiscipline, Simulation, SimulationConfig

__all__ = [
    "SLOClass",
    "MultiSLOReport",
    "partition_workers",
    "run_multi_slo",
    "LatencyModel",
    "DeterministicLatency",
    "StochasticLatency",
    "LoadMonitor",
    "OracleLoadMonitor",
    "SimulationMetrics",
    "QueueDiscipline",
    "Simulation",
    "SimulationConfig",
]
