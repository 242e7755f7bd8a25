"""Tests for stationary analysis and §5.1 guarantees."""

import numpy as np
import pytest

from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.core.guarantees import (
    evaluate_policy,
    power_iterate,
    stationary_distribution,
    stationary_occupancy,
)
from repro.core.mdp import build_worker_mdp
from repro.core.solvers import value_iteration
from repro.errors import PolicyError, SolverError
from repro.experiments.tasks import image_task, text_task


#: A 2-cycle (states 0 and 1) entered from a transient state 2: from the
#: uniform start its distribution swaps between (2/3, 1/3, 0) and
#: (1/3, 2/3, 0) forever.
PERIODIC = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
#: Settles to (0.5, 0.5, 0) after two steps.
SETTLING = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])


class TestPowerIterate:
    def test_unconverged_chains_are_named_with_residuals(self):
        with pytest.raises(SolverError) as info:
            power_iterate([SETTLING, PERIODIC], max_iterations=50)
        message = str(info.value)
        assert "within 50 steps" in message
        assert "chain 1: residual 3.333e-01" in message
        assert "chain 0" not in message

    def test_labels_name_the_chains(self):
        with pytest.raises(SolverError, match=r"\(periodic: residual 3\.333e-01"):
            power_iterate(
                [PERIODIC, SETTLING], max_iterations=50, labels=["periodic", "ok"]
            )

    def test_settling_chain_alone_still_converges(self):
        (dist,) = power_iterate([SETTLING])
        assert dist.tolist() == [0.5, 0.5, 0.0]


class TestStationaryDistribution:
    def test_is_probability_vector(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        dist = stationary_distribution(mdp, policy)
        assert dist.min() >= 0.0
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_is_fixed_point(self, tiny_config):
        """dist @ P == dist for the policy-induced chain."""
        mdp = build_worker_mdp(tiny_config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        dist = stationary_distribution(mdp, policy, tolerance=1e-12)
        model, batch = mdp.action_table(policy)
        stepped = np.zeros_like(dist)
        for state in range(mdp.space.size):
            if state == mdp.space.EMPTY:
                row = mdp.transition_row(state, (0, 1))
            else:
                n, _ = mdp.space.decode(state)
                row = mdp.transition_row(
                    state, (int(model[state]), int(batch[state]))
                )
            stepped += dist[state] * row
        assert np.allclose(stepped, dist, atol=1e-8)

    def test_low_load_alternates_idle_and_single_query(self, tiny_config):
        """The chain is over decision epochs: at negligible load the worker
        alternates empty -> (1, SLO) -> empty, each ~half the epochs."""
        config = tiny_config.with_load(1.0)  # 1 QPS, services ~10-60 ms
        mdp = build_worker_mdp(config)
        policy = mdp.extract_policy(value_iteration(mdp).values)
        dist = stationary_distribution(mdp, policy)
        fresh = mdp.space.index(1, mdp.grid.slo_index)
        assert dist[mdp.space.EMPTY] > 0.45
        assert dist[fresh] > 0.45
        assert dist[mdp.space.FULL] < 1e-9


class TestGuarantees:
    def test_shapes_and_ranges(self, tiny_config):
        g = generate_policy(tiny_config).guarantees
        assert 0.0 <= g.expected_accuracy <= 1.0
        assert 0.0 <= g.expected_violation_rate <= 1.0
        assert 0.0 <= g.full_state_probability <= 1.0
        assert 0.0 <= g.idle_probability <= 1.0

    def test_meets_thresholds(self, tiny_config):
        g = generate_policy(tiny_config).guarantees
        assert g.meets(0.0, 1.0)
        assert not g.meets(1.01, 1.0)
        assert not g.meets(0.0, -0.1)

    def test_accuracy_between_model_extremes(self, tiny_config):
        g = generate_policy(tiny_config).guarantees
        assert 0.60 - 1e-9 <= g.expected_accuracy <= 0.90 + 1e-9

    def test_load_monotonicity(self, tiny_config):
        """More load -> lower (or equal) expected accuracy: the policy must
        fall back to faster models (the paper's Fig. 6 trend)."""
        accuracies = []
        for load in (5.0, 20.0, 45.0):
            g = generate_policy(tiny_config.with_load(load)).guarantees
            accuracies.append(g.expected_accuracy)
        assert accuracies[0] >= accuracies[1] >= accuracies[2] - 0.02

    def test_overload_blows_up_violations(self, tiny_config):
        """Beyond the fastest model's throughput the violation bound must
        be large (the §4.2.3 full-queue regime)."""
        g = generate_policy(tiny_config.with_load(1000.0)).guarantees
        assert g.expected_violation_rate > 0.5
        assert g.full_state_probability > 0.1

    def test_per_epoch_variants_populated(self, tiny_config):
        g = generate_policy(tiny_config).guarantees
        assert 0.0 <= g.per_epoch_accuracy <= 1.0
        assert 0.0 <= g.per_epoch_violation_rate <= 1.0

    def test_expected_accuracy_lower_bounds_simulation(self, tiny_config):
        """§5.1's headline claim at a satisfiable load: observed accuracy
        >= expectation, observed violations <= expectation."""
        from repro.arrivals.distributions import PoissonArrivals
        from repro.arrivals.traces import LoadTrace
        from repro.selectors import RamsisSelector
        from repro.sim import OracleLoadMonitor, Simulation, SimulationConfig

        result = generate_policy(tiny_config.with_load(20.0))
        trace = LoadTrace.constant(20.0, 60_000.0)
        sim = Simulation(
            SimulationConfig(
                model_set=tiny_config.model_set,
                slo_ms=tiny_config.slo_ms,
                num_workers=1,
                max_batch_size=8,
                monitor=OracleLoadMonitor(trace),
                seed=2,
            )
        )
        metrics = sim.run(
            RamsisSelector(result.policy), trace, pattern=PoissonArrivals(20.0)
        )
        g = result.guarantees
        assert metrics.accuracy_per_satisfied_query >= g.expected_accuracy - 0.02
        assert metrics.violation_rate <= g.expected_violation_rate + 0.02


def _image_config(model_set=None, **overrides) -> WorkerMDPConfig:
    task = image_task()
    base = dict(
        slo_ms=task.middle_slo_ms,
        load_qps=40.0,
        num_workers=1,
        fld_resolution=30,
        max_batch_size=8,
    )
    base.update(overrides)
    return WorkerMDPConfig.default_poisson(model_set or task.model_set, **base)


class TestPolicyFit:
    """A policy evaluates only on an MDP of its own state space and
    models; anything else is refused by name, never silently re-read."""

    @pytest.fixture(scope="class")
    def policy(self):
        return generate_policy(_image_config()).policy

    @staticmethod
    def _refused(policy, config, match):
        mdp = build_worker_mdp(config)
        for entry in (evaluate_policy, stationary_distribution, stationary_occupancy):
            with pytest.raises(PolicyError, match=match):
                entry(mdp, policy)

    def test_fits_its_own_mdp(self, policy):
        mdp = build_worker_mdp(_image_config())
        g = evaluate_policy(mdp, policy)
        assert g.expected_accuracy == policy.metadata.expected_accuracy

    def test_refuses_other_grid(self, policy):
        self._refused(policy, _image_config(fld_resolution=20), r"grid values \(31, not 21\)")

    def test_refuses_other_slo(self, policy):
        slo = image_task().slos_ms[0]
        self._refused(policy, _image_config(slo_ms=slo), f"SLO 300 ms, not {slo:g} ms")

    def test_refuses_other_models(self, policy):
        task = text_task()
        config = _image_config(model_set=task.model_set)
        self._refused(policy, config, "models .*shufflenet.* not among .*bert")

    def test_refuses_other_max_queue(self, policy):
        self._refused(policy, _image_config(max_queue=9), "max_queue 11, not 9")
