"""Prototype-style serving runtime (§6 "Prototype Implementation").

The paper's prototype is a client-server deployment: a central controller
VM runs a workload generator, a load balancer, and per-worker model
selector processes; worker VMs execute inference behind TorchServe.  This
subpackage reproduces that architecture *in process*:

- :class:`~repro.runtime.shard.ShardedController` — the serving tier: N
  controller shards, each one array-backed dispatch kernel over its
  worker group in virtual time, with consistent round-robin, admission
  control / drop-late under overload, live policy hot-swap, and
  per-shard auditor + snapshot feeds, all on the calling thread.
  Unpaced it serves flat out; paced it replays the trace on a scaled
  wall clock;
- :class:`~repro.runtime.workload.WorkloadGenerator` — samples the query
  arrival stream from a trace + inter-arrival pattern, identically to
  the simulator;
- :class:`~repro.runtime.clock.VirtualClock` — the scaled wall clock.

A ``time_scale`` compresses wall-clock time uniformly (e.g. 0.1 makes a
150 ms inference take 15 ms of wall time) so paced demonstrations finish
quickly while every relative timing — deadlines, arrivals, service — is
preserved.  The discrete-event simulator remains the tool for large
experiments; the sharded tier proves the serving loop sustains
production-scale throughput without giving up the per-worker determinism
the guarantees rest on.
"""

from repro.runtime.shard import (
    AdmissionControl,
    ShardedController,
    ShardedReport,
)
from repro.runtime.workload import WorkloadGenerator

__all__ = [
    "AdmissionControl",
    "ShardedController",
    "ShardedReport",
    "WorkloadGenerator",
]
