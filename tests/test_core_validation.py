"""Tests validating MDP kernels against Monte-Carlo chain replays."""

import pytest
from dataclasses import replace

from repro.core.config import TransitionView, WorkerMDPConfig
from repro.core.guarantees import evaluate_policy, stationary_distribution
from repro.core.mdp import build_worker_mdp
from repro.core.solvers import value_iteration
from repro.core.validation import simulate_chain
from repro.arrivals.distributions import PoissonArrivals


def _solve(config):
    mdp = build_worker_mdp(config)
    policy = mdp.extract_policy(value_iteration(mdp).values)
    return mdp, policy


class TestChainAgreement:
    def test_guarantee_bounds_hold_empirically(self, tiny_config):
        config = tiny_config.with_load(25.0)
        mdp, policy = _solve(config)
        guarantees = evaluate_policy(mdp, policy)
        stats = simulate_chain(mdp, policy, num_epochs=60_000, seed=1)
        # §5.1: expectation lower-bounds accuracy, upper-bounds violations.
        assert stats.accuracy_per_satisfied_query >= (
            guarantees.expected_accuracy - 0.02
        )
        assert stats.violation_rate <= guarantees.expected_violation_rate + 0.02

    def test_stationary_distribution_matches_visits(self, tiny_config):
        """Per-epoch visit frequencies track the stationary distribution."""
        config = tiny_config.with_load(25.0)
        mdp, policy = _solve(config)
        dist = stationary_distribution(mdp, policy)
        stats = simulate_chain(mdp, policy, num_epochs=120_000, seed=2)
        sp = mdp.space
        assert stats.idle_fraction == pytest.approx(
            float(dist[sp.EMPTY]), abs=0.03
        )
        # Check the five most likely occupied states.
        occupied = [
            (float(dist[sp.index(n, j)]), (n, j))
            for n in range(1, mdp.max_queue + 1)
            for j in range(len(mdp.grid))
        ]
        occupied.sort(reverse=True)
        for prob, state in occupied[:5]:
            assert stats.state_frequency.get(state, 0.0) == pytest.approx(
                prob, abs=0.03
            )

    @pytest.mark.parametrize(
        "view",
        [
            TransitionView.POISSON_SPLIT,
            TransitionView.ROUND_ROBIN_MARGINAL,
        ],
    )
    def test_views_validated_by_replay(self, tiny_models, view):
        config = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(75.0),
            num_workers=3,
            max_batch_size=8,
            fld_resolution=10,
            view=view,
        )
        mdp, policy = _solve(config)
        guarantees = evaluate_policy(mdp, policy)
        stats = simulate_chain(mdp, policy, num_epochs=60_000, seed=3)
        # The marginal view models the true Erlang arrivals; Poisson split
        # is conservative — either way the bounds must hold on a replay
        # against the *view's own* arrival process.
        assert stats.accuracy_per_satisfied_query >= (
            guarantees.expected_accuracy - 0.02
        )
        assert stats.violation_rate <= guarantees.expected_violation_rate + 0.02

    def test_drop_mode_replay(self, tiny_config):
        config = replace(tiny_config.with_load(45.0), drop_late=True)
        mdp, policy = _solve(config)
        stats = simulate_chain(mdp, policy, num_epochs=40_000, seed=4)
        assert stats.queries_served > 0
        assert 0.0 <= stats.violation_rate <= 1.0

    def test_deterministic_for_seed(self, tiny_config):
        mdp, policy = _solve(tiny_config)
        a = simulate_chain(mdp, policy, num_epochs=20_000, seed=5)
        b = simulate_chain(mdp, policy, num_epochs=20_000, seed=5)
        assert a.violation_rate == b.violation_rate
        assert a.state_frequency == b.state_frequency
