"""Stable content-addressed cache keys for generated policies.

A cache key is the SHA-256 digest of a canonical JSON rendering of
everything that determines a :class:`~repro.core.bank.GenerationResult`
bit-for-bit: the full :class:`~repro.core.config.WorkerMDPConfig` (model
profiles, arrival family + load, every MDP knob), the solver tolerance, and
a code-schema version that must be bumped whenever the kernel/solver math
changes in a way that can alter outputs.

Canonicalization relies on two properties:

- ``json.dumps`` renders float64 values with ``repr``-accurate shortest
  round-trip digits, so two configs hash equal iff their floats are
  bit-equal;
- ``sort_keys=True`` makes the rendering independent of dict ordering.

Configs built from components the canonicalizer does not understand (an
arrival family or latency model outside the shipped ones) are *uncacheable*:
:func:`cache_key` returns ``None`` and the disk cache is bypassed rather
than risking digest collisions between semantically different configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Optional

from repro.arrivals.distributions import (
    ArrivalDistribution,
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.config import WorkerMDPConfig

__all__ = ["CACHE_SCHEMA_VERSION", "cache_key", "canonical_config_dict"]

#: Bump whenever policy generation can produce different bytes for the same
#: config (kernel math, solver semantics, policy serialization).
CACHE_SCHEMA_VERSION = 2


def _arrivals_dict(arrivals: ArrivalDistribution) -> Optional[Dict[str, Any]]:
    if isinstance(arrivals, PoissonArrivals):
        return {"family": "poisson", "load_qps": arrivals.load_qps}
    if isinstance(arrivals, GammaArrivals):
        return {
            "family": "gamma",
            "load_qps": arrivals.load_qps,
            "shape": arrivals.shape,
        }
    if isinstance(arrivals, DeterministicArrivals):
        return {"family": "deterministic", "load_qps": arrivals.load_qps}
    return None


def _model_set_dict(config: WorkerMDPConfig) -> Optional[Dict[str, Any]]:
    models = []
    for m in config.model_set:
        if not dataclasses.is_dataclass(m.latency):
            return None
        models.append(
            {
                "name": m.name,
                "accuracy": m.accuracy,
                "family": m.family,
                "latency_model": type(m.latency).__name__,
                "latency": dataclasses.asdict(m.latency),
            }
        )
    return {"task": config.model_set.task, "models": models}


def canonical_config_dict(
    config: WorkerMDPConfig, tolerance: float
) -> Optional[Dict[str, Any]]:
    """The canonical key dictionary, or ``None`` when uncacheable."""
    arrivals = _arrivals_dict(config.arrivals)
    model_set = _model_set_dict(config)
    if arrivals is None or model_set is None:
        return None
    return {
        "schema_version": CACHE_SCHEMA_VERSION,
        "tolerance": float(tolerance),
        "slo_ms": config.slo_ms,
        "num_workers": config.num_workers,
        "max_queue": config.max_queue,
        "max_batch_size": config.max_batch_size,
        "discretization": config.discretization.value,
        "fld_resolution": config.fld_resolution,
        "batching": config.batching.value,
        "pareto_prune": config.pareto_prune,
        "view": config.view.value,
        "discount": config.discount,
        "reward_per_query": config.reward_per_query,
        "drop_late": config.drop_late,
        "duration_aware_discount": config.duration_aware_discount,
        "discount_reference_ms": config.discount_reference_ms,
        "arrivals": arrivals,
        "model_set": model_set,
    }


def cache_key(config: WorkerMDPConfig, tolerance: float) -> Optional[str]:
    """SHA-256 hex digest keying ``(config, tolerance, schema version)``.

    ``None`` marks an uncacheable config (see module docstring).
    """
    canonical = canonical_config_dict(config, tolerance)
    if canonical is None:
        return None
    rendered = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()
