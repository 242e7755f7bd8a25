"""Tests for value iteration on known MDPs."""

import numpy as np
import pytest

from repro.core.mdp import build_worker_mdp
from repro.core.bank import StackedBankMDP
from repro.core.solvers import value_iteration
from repro.errors import SolverError
from tests.oracles.dense_mdp import two_state_mdp
from tests.oracles.loop_mdp import LoopWorkerMDP


class TestValueIterationOnDenseMDP:
    def test_converges_to_analytic_fixed_point(self):
        """State 1 loops on action 1 forever: V(1) = 2 / (1 - gamma).
        State 0 picks action... compare both closed forms."""
        mdp = two_state_mdp(gamma=0.9)
        stats = value_iteration(mdp, tolerance=1e-12)
        v1 = 2.0 / (1.0 - 0.9)
        # State 0: action 1 gives 0 + 0.9 * V(1); action 0 gives
        # 1 + 0.9 * V(0) -> 1/(1-0.9) = 10 < 18.
        assert stats.values[1] == pytest.approx(v1, abs=1e-6)
        assert stats.values[0] == pytest.approx(0.9 * v1, abs=1e-6)

    def test_reports_iterations_and_runtime(self):
        stats = value_iteration(two_state_mdp(), tolerance=1e-10)
        assert stats.converged
        assert stats.iterations > 10
        assert stats.runtime_s >= 0.0

    def test_raises_on_iteration_cap(self):
        with pytest.raises(SolverError):
            value_iteration(two_state_mdp(), tolerance=1e-12, max_iterations=3)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(SolverError):
            value_iteration(two_state_mdp(), tolerance=0.0)

    def test_greedy_table_is_the_optimum(self):
        """Both states take action 1 (see the fixed point above)."""
        mdp = two_state_mdp(gamma=0.9)
        stats = value_iteration(mdp, tolerance=1e-12)
        model, batch = mdp.greedy(stats.values)
        assert model.tolist() == [1, 1]
        assert batch.tolist() == [1, 1]

    def test_warm_start(self):
        mdp = two_state_mdp()
        cold = value_iteration(mdp, tolerance=1e-10)
        warm = value_iteration(mdp, tolerance=1e-10, initial=cold.values)
        assert warm.iterations < cold.iterations


class TestResidualHistory:
    def test_off_by_default(self):
        assert value_iteration(two_state_mdp(), tolerance=1e-10).residuals is None

    def test_recorded_on_request(self):
        stats = value_iteration(
            two_state_mdp(), tolerance=1e-10, record_residuals=True
        )
        assert stats.residuals is not None
        assert len(stats.residuals) == stats.iterations
        assert stats.residuals[-1] == stats.residual
        assert stats.residuals[-1] <= 1e-10

    def test_contraction_bound(self):
        """Regression: the Bellman operator is a gamma-contraction in the
        sup norm, so successive residuals must satisfy
        ``r_{k+1} <= gamma * r_k`` (up to float noise)."""
        gamma = 0.9
        stats = value_iteration(
            two_state_mdp(gamma=gamma), tolerance=1e-10, record_residuals=True
        )
        residuals = stats.residuals
        assert len(residuals) > 10
        for prev, cur in zip(residuals, residuals[1:]):
            assert cur <= gamma * prev + 1e-12

    def test_contraction_bound_on_worker_mdp(self, tiny_config):
        """The same bound holds on the real worker MDP with its
        configured discount factor."""
        mdp = build_worker_mdp(tiny_config)
        stats = value_iteration(mdp, record_residuals=True)
        gamma = tiny_config.discount
        for prev, cur in zip(stats.residuals, stats.residuals[1:]):
            assert cur <= gamma * prev + 1e-9

    def test_tracer_receives_sweep_events(self):
        from repro.obs.trace import RecordingTracer

        tracer = RecordingTracer()
        stats = value_iteration(two_state_mdp(), tolerance=1e-8, tracer=tracer)
        sweeps = [ev for ev in tracer.events if ev.name == "vi_sweep"]
        assert len(sweeps) == stats.iterations
        assert [ev.args["iteration"] for ev in sweeps] == list(
            range(1, stats.iterations + 1)
        )
        traced_residuals = [ev.args["residual"] for ev in sweeps]
        # Tracing implies the history is kept too, and they agree.
        assert tuple(traced_residuals) == stats.residuals

class TestSolversOnWorkerMDP:
    def test_value_iteration_deterministic(self, tiny_config):
        mdp = build_worker_mdp(tiny_config)
        a = value_iteration(mdp).values
        b = value_iteration(mdp).values
        assert np.array_equal(a, b)


class TestIterationCeilings:
    """Value iteration fails loudly — and informatively — at its ceiling."""

    def test_vi_cap_message_includes_residual_tail(self):
        with pytest.raises(SolverError, match="last residuals"):
            value_iteration(
                two_state_mdp(),
                tolerance=1e-12,
                max_iterations=3,
                record_residuals=True,
            )

    def test_vi_cap_message_reports_residual_without_history(self):
        with pytest.raises(
            SolverError, match=r"did not converge after 3 sweeps"
        ) as excinfo:
            value_iteration(two_state_mdp(), tolerance=1e-12, max_iterations=3)
        assert "residual" in str(excinfo.value)
        assert "last residuals" not in str(excinfo.value)

    def test_bank_cap_message_names_loads_and_residuals(self, tiny_config):
        """Every production solve runs the bank: its ceiling names each
        unconverged load with its residual, and the residual tail when
        the history is kept."""
        bank = StackedBankMDP(
            [tiny_config.with_load(q) for q in (20.0, 35.0)]
        )
        with pytest.raises(
            SolverError, match=r"did not converge after 2 sweeps"
        ) as excinfo:
            bank.solve(tolerance=1e-13, max_iterations=2)
        message = str(excinfo.value)
        for load in ("20", "35"):
            assert f"load {load} qps: residual" in message
        assert "last residuals" not in message
        with pytest.raises(SolverError) as excinfo:
            bank.solve(
                tolerance=1e-13, max_iterations=2, record_residuals=True
            )
        assert str(excinfo.value).count("last residuals") == 2

    def test_vi_rejects_nonpositive_max_iterations(self):
        with pytest.raises(SolverError, match="max_iterations"):
            value_iteration(two_state_mdp(), max_iterations=0)

    def test_vi_cap_on_worker_mdp_backends(self, tiny_config):
        """The ceiling fires identically on the worker MDP and its loop
        oracle."""
        for mdp in (build_worker_mdp(tiny_config), LoopWorkerMDP(tiny_config)):
            with pytest.raises(SolverError, match="did not converge"):
                value_iteration(mdp, tolerance=1e-13, max_iterations=2)
