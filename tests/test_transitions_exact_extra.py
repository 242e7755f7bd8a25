"""Extra coverage for the exact round-robin view: variable batching,
phase-marginal counts, and end-to-end policy agreement."""

import numpy as np
import pytest
from dataclasses import replace

from repro.arrivals.distributions import PoissonArrivals
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.core.mdp import build_worker_mdp
from repro.core.solvers import value_iteration
from repro.core.transitions import ExactRoundRobinKernelBuilder


def _counts(config, latency):
    """Phase-marginal arrival counts of the config's exact builder."""
    builder = ExactRoundRobinKernelBuilder(
        config.build_grid(),
        config.arrivals,
        config.num_workers,
        config.effective_max_queue(),
    )
    return builder.count_rows([latency])[0]


@pytest.fixture
def exact_config(tiny_models):
    return WorkerMDPConfig(
        model_set=tiny_models,
        slo_ms=100.0,
        arrivals=PoissonArrivals(60.0),
        num_workers=2,
        max_batch_size=6,
        fld_resolution=8,
        view=TransitionView.EXACT_ROUND_ROBIN,
    )


class TestExactCountsMarginal:
    def test_counts_sum_to_at_most_one(self, exact_config):
        counts = _counts(exact_config, 40.0)
        assert counts.min() >= 0.0
        assert counts.sum() <= 1.0 + 1e-9

    def test_counts_mean_matches_per_worker_rate(self, exact_config):
        """Uniform-phase round-robin counts average to rate/K * t."""
        latency = 50.0
        counts = _counts(exact_config, latency)
        ks = np.arange(counts.shape[0])
        mean = float((ks * counts).sum())
        expected = 60.0 / 2 / 1000.0 * latency  # 1.5 arrivals
        assert mean == pytest.approx(expected, rel=0.05)

    def test_k1_counts_equal_poisson(self, tiny_models):
        config = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(30.0),
            num_workers=1,
            max_batch_size=6,
            fld_resolution=8,
            view=TransitionView.EXACT_ROUND_ROBIN,
        )
        counts = _counts(config, 40.0)
        pois = PoissonArrivals(30.0).pmf_vector(counts.shape[0] - 1, 40.0)
        assert np.allclose(counts, pois, atol=1e-10)


class TestExactVariableBatching:
    def test_solves(self, exact_config):
        config = replace(exact_config, batching=BatchingMode.VARIABLE)
        stats = value_iteration(build_worker_mdp(config))
        assert stats.converged

    def test_variable_at_least_maximal(self, exact_config):
        v_max = value_iteration(build_worker_mdp(exact_config)).values
        v_var = value_iteration(
            build_worker_mdp(replace(exact_config, batching=BatchingMode.VARIABLE))
        ).values
        assert (v_var >= v_max - 1e-6).all()


class TestExactPolicyAgreement:
    def test_exact_and_marginal_policies_mostly_agree(self, exact_config):
        """At K = 2 the exact phase conditioning refines the marginal view
        only slightly; the two policies should coincide on the bulk of the
        state space."""
        exact = generate_policy(exact_config, with_guarantees=False).policy
        marginal = generate_policy(
            replace(exact_config, view=TransitionView.ROUND_ROBIN_MARGINAL),
            with_guarantees=False,
        ).policy
        states = exact.states()
        agree = sum(
            1
            for key, action in states.items()
            if marginal.action_at(*key).model == action.model
        )
        assert agree / len(states) > 0.8
