"""Shared fixtures for the test suite.

Most tests run on a deliberately tiny model set and coarse discretization
so MDP construction stays in the tens of milliseconds; the calibrated paper
zoos are exercised where the test is specifically about them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrivals.distributions import PoissonArrivals
from repro.core.config import WorkerMDPConfig
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from repro.profiles.zoo import build_image_model_set, build_text_model_set


def make_tiny_model_set() -> ModelSet:
    """Three models with clean latency/accuracy separation."""
    return ModelSet(
        [
            ModelProfile(
                name="fast",
                accuracy=0.60,
                latency=LinearLatencyModel(
                    overhead_ms=2.0, per_item_ms=8.0, std_ms=0.0
                ),
                family="tiny",
            ),
            ModelProfile(
                name="medium",
                accuracy=0.75,
                latency=LinearLatencyModel(
                    overhead_ms=3.0, per_item_ms=20.0, std_ms=0.0
                ),
                family="tiny",
            ),
            ModelProfile(
                name="slow",
                accuracy=0.90,
                latency=LinearLatencyModel(
                    overhead_ms=4.0, per_item_ms=60.0, std_ms=0.0
                ),
                family="tiny",
            ),
        ],
        task="tiny",
    )


def make_one_model_set(latency_ms: float) -> ModelSet:
    """One model whose batch-1 p95 latency is ``latency_ms`` (up to
    rounding); larger batches take longer."""
    return ModelSet(
        [
            ModelProfile(
                name="only",
                accuracy=0.5,
                latency=LinearLatencyModel(
                    overhead_ms=0.5 * latency_ms,
                    per_item_ms=0.5 * latency_ms,
                    std_ms=0.0,
                ),
            )
        ],
        task="one",
    )


@pytest.fixture
def tiny_models() -> ModelSet:
    """Three-model deterministic-latency set for fast MDP tests."""
    return make_tiny_model_set()


@pytest.fixture(scope="session")
def image_models() -> ModelSet:
    """The calibrated 26-model ImageNet zoo."""
    return build_image_model_set()


@pytest.fixture(scope="session")
def text_models() -> ModelSet:
    """The calibrated 5-model BERT zoo."""
    return build_text_model_set()


@pytest.fixture
def tiny_config(tiny_models) -> WorkerMDPConfig:
    """A small, fast-to-solve worker MDP configuration."""
    return WorkerMDPConfig(
        model_set=tiny_models,
        slo_ms=100.0,
        arrivals=PoissonArrivals(25.0),
        num_workers=1,
        max_batch_size=8,
        fld_resolution=10,
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for deterministic stochastic tests."""
    return np.random.default_rng(12345)
