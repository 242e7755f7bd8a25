"""Tests for the worker MDP (§4): states, actions, rewards, backups."""

import numpy as np
import pytest
from dataclasses import replace

from repro.arrivals.distributions import PoissonArrivals
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.mdp import _FALLBACK, build_worker_mdp
from repro.core.solvers import value_iteration


class TestConstruction:
    def test_basic_shape(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        assert mdp.num_models == 3
        assert mdp.max_queue == 11
        assert mdp.num_states == 2 + 11 * len(mdp.grid)

    def test_models_ordered_fastest_first(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        assert mdp.model_names[0] == "fast"
        latencies = [mdp.latency_ms(m, 1) for m in range(mdp.num_models)]
        assert latencies == sorted(latencies)

    def test_latency_and_accuracy_lookup(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        fast = tiny_config.model_set.get("fast")
        assert mdp.latency_ms(0, 3) == pytest.approx(fast.latency_ms(3))
        assert mdp.accuracy_of(0) == fast.accuracy


class TestActionValidity:
    def test_latency_constraint(self, tiny_config):
        """(m, b=n) valid iff l(m, n) <= T_j (§4.3.1)."""
        mdp = build_worker_mdp(tiny_config)
        grid = mdp.grid
        for n in (1, 3, 8):
            for j in (0, len(grid) // 2, len(grid) - 1):
                valid = mdp.valid_actions(n, j)
                for m in range(mdp.num_models):
                    expected = mdp.latency_ms(m, n) <= grid[j]
                    assert ((m, n) in valid) == expected

    def test_variable_batching_widens_action_space(self, tiny_config):
        maximal = build_worker_mdp(tiny_config)
        variable = build_worker_mdp(
            replace(tiny_config, batching=BatchingMode.VARIABLE)
        )
        j = len(maximal.grid) - 1
        assert len(variable.valid_actions(5, j)) > len(maximal.valid_actions(5, j))

    def test_zero_slack_has_no_valid_action(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        assert mdp.valid_actions(2, 0) == []


class TestRewards:
    def test_reward_accuracy_when_satisfied(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        j_top = len(mdp.grid) - 1
        state = mdp.space.index(1, j_top)
        assert mdp.reward_of(state, (2, 1)) == pytest.approx(0.90)

    def test_reward_zero_when_slack_missed(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        state = mdp.space.index(1, 0)  # slack 0
        assert mdp.reward_of(state, (0, 1)) == 0.0

    def test_fallback_reward_zero(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        state = mdp.space.index(3, 0)
        assert mdp.reward_of(state, (_FALLBACK, 3)) == 0.0

    def test_empty_state_reward_zero(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        assert mdp.reward_of(mdp.space.EMPTY, (0, 1)) == 0.0

    def test_per_query_reward_scales_with_batch(self, tiny_config):
        mdp = build_worker_mdp(replace(tiny_config, reward_per_query=True))
        j_top = len(mdp.grid) - 1
        state = mdp.space.index(4, j_top)
        assert mdp.reward_of(state, (0, 4)) == pytest.approx(4 * 0.60)


class TestTransitionRows:
    def test_rows_are_distributions(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        sp = mdp.space
        for state in [sp.EMPTY, sp.FULL, sp.index(1, 5), sp.index(6, 9)]:
            n, _ = sp.decode(state)
            row = mdp.transition_row(state, (0, max(n, 1)))
            assert row.sum() == pytest.approx(1.0, abs=1e-8)
            assert row.min() >= -1e-12

    def test_empty_state_transitions_to_fresh_arrival(self, tiny_config):
        """Eq. 1: empty + arrival -> (1, SLO) with probability 1."""
        mdp = build_worker_mdp(tiny_config)
        sp = mdp.space
        row = mdp.transition_row(sp.EMPTY, (0, 1))
        assert row[sp.index(1, mdp.grid.slo_index)] == 1.0

    def test_full_state_equivalent_to_n_max_zero_slack(self, tiny_config):
        """§4.2.3: the full state transitions like (N_w, 0)."""
        mdp = build_worker_mdp(tiny_config)
        sp = mdp.space
        full_row = mdp.transition_row(sp.FULL, (_FALLBACK, mdp.max_queue))
        bottom_row = mdp.transition_row(
            sp.index(mdp.max_queue, 0), (_FALLBACK, mdp.max_queue)
        )
        assert np.allclose(full_row, bottom_row)

    def test_partial_drain_row(self, tiny_config):
        config = replace(tiny_config, batching=BatchingMode.VARIABLE)
        mdp = build_worker_mdp(config)
        sp = mdp.space
        j = len(mdp.grid) - 1
        row = mdp.transition_row(sp.index(5, j), (0, 2))
        assert row.sum() == pytest.approx(1.0, abs=1e-8)
        # At least 3 queries remain queued in every outcome.
        occ = sp.occupied_view(row)
        assert occ[:2].sum() == 0.0
        assert row[sp.EMPTY] == 0.0

    def test_batch_beyond_queue_rejected(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        with pytest.raises(Exception):
            mdp.transition_row(mdp.space.index(2, 3), (0, 5))


class TestBackup:
    def test_backup_is_monotone_contraction(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        v0 = mdp.initial_values()
        v1 = mdp.backup(v0).values
        v2 = mdp.backup(v1).values
        gamma = tiny_config.discount
        # Contraction in sup norm.
        assert np.max(np.abs(v2 - v1)) <= gamma * np.max(np.abs(v1 - v0)) + 1e-9

    def test_values_bounded_by_geometric_series(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        stats = value_iteration(mdp)
        bound = 0.90 / (1.0 - tiny_config.discount)
        assert stats.values.max() <= bound + 1e-6
        assert stats.values.min() >= 0.0

    def test_greedy_action_table_complete(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        model, batch = mdp.backup(mdp.initial_values(), want_greedy=True).greedy
        assert model.shape == batch.shape == (mdp.num_states,)
        for n in range(1, mdp.max_queue + 1):
            for j in range(len(mdp.grid)):
                s = mdp.space.index(n, j)
                action = (int(model[s]), int(batch[s]))
                assert action in mdp.valid_actions(n, j) or action == (_FALLBACK, n)
        space = mdp.space
        assert (model[space.FULL], batch[space.FULL]) == (_FALLBACK, mdp.max_queue)

    def test_backup_policy_consistent_with_backup(self, tiny_config):
        """Backing V up under its own greedy policy — through the chain
        the §5.1 analysis reads (``policy_rows``) and the per-pair
        ``reward_of``/``discount_of`` — reproduces backup(V)."""
        mdp = build_worker_mdp(tiny_config)
        stats = value_iteration(mdp, tolerance=1e-9)
        result = mdp.backup(stats.values, want_greedy=True)
        model, batch = result.greedy
        actions = list(zip(model.tolist(), batch.tolist()))
        reward = np.array(
            [mdp.reward_of(s, a) for s, a in enumerate(actions)]
        )
        discount = np.array(
            [mdp.discount_of(s, a) for s, a in enumerate(actions)]
        )
        evaluated = reward + discount * (
            mdp.policy_rows(model, batch) @ stats.values
        )
        assert np.allclose(evaluated, result.values, atol=1e-6)

    def test_exact_view_backup_runs(self, tiny_models):
        config = WorkerMDPConfig(
            model_set=tiny_models,
            slo_ms=100.0,
            arrivals=PoissonArrivals(50.0),
            num_workers=2,
            max_batch_size=6,
            fld_resolution=8,
            view=TransitionView.EXACT_ROUND_ROBIN,
        )
        mdp = build_worker_mdp(config)
        stats = value_iteration(mdp)
        assert stats.converged

    def test_variable_batching_at_least_as_good(self, tiny_config):
        """A superset of actions can never lower the optimal value."""
        maximal = build_worker_mdp(tiny_config)
        variable = build_worker_mdp(
            replace(tiny_config, batching=BatchingMode.VARIABLE)
        )
        v_max = value_iteration(maximal).values
        v_var = value_iteration(variable).values
        assert (v_var >= v_max - 1e-6).all()


class TestPolicyExtraction:
    def test_policy_covers_all_states(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        assert len(policy.states()) == mdp.max_queue * len(mdp.grid)

    def test_fallback_states_marked_late(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        action = policy.action_at(3, 0)  # zero slack: nothing valid
        assert action.is_late
        assert action.model == "fast"
        assert action.batch_size == 3

    def test_policy_actions_meet_slack(self, tiny_config):
        """Non-late actions always fit the state's quantized slack."""
        mdp = build_worker_mdp(tiny_config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        for (n, j), action in policy.states().items():
            if action.is_late:
                continue
            model = tiny_config.model_set.get(action.model)
            assert model.latency_ms(action.batch_size) <= mdp.grid[j] + 1e-9

    def test_metadata_propagated(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        meta = policy.metadata
        assert meta.load_qps == 25.0
        assert meta.slo_ms == 100.0
        assert meta.task == "tiny"
        assert meta.batching == "max"
