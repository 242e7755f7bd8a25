"""Exactness contract between the worker MDP and its loop oracle.

The tensorized sweeps of :class:`repro.core.mdp.WorkerMDP` are not
"numerically close" to the per-action / per-state loop formulation
(:class:`tests.oracles.loop_mdp.LoopWorkerMDP`) — they are required to be
*float-identical* on the value-iteration path and byte-identical in every
serialized artifact.  This suite is the contract:

- a golden matrix across transition views, batching modes, and the
  drop-late / semi-MDP / per-query-reward extensions asserts ``==``
  (never ``allclose``) value functions, equal sweep counts, byte-equal
  ``Policy.save`` output, identical chain rows, and identical §5.1
  guarantees;
- hypothesis draws random small MDPs and checks the same agreement plus
  the simplex invariants of the policy-induced chain;
- the stacked policy bank is float-``==`` to per-load solves;
- a dense action-by-action enumeration
  (:class:`tests.oracles.dense_mdp.DenseMDP`) agrees to ``allclose`` values
  and identical greedy tables away from near-ties.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.distributions import (
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.bank import StackedBankMDP, solve_stacked_bank
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.generator import PolicyGenerator, generate_policy
from repro.core.guarantees import (
    evaluate_policy,
    power_iterate,
    stationary_distribution,
    stationary_occupancy,
)
from repro.core.mdp import WorkerMDP, build_worker_mdp
from repro.core.solvers import value_iteration
from repro.errors import ConfigurationError
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from tests.conftest import make_tiny_model_set
from tests.oracles.dense_mdp import DenseMDP, dense_agreement
from tests.oracles.loop_mdp import LoopWorkerMDP, generate_loop_policy
from tests.oracles.tolerance_vi import ToleranceWorkerMDP


def _ladder(num_models: int) -> ModelSet:
    return ModelSet(
        [
            ModelProfile(
                name=f"m{i}",
                accuracy=0.6 + 0.3 * i / max(num_models - 1, 1),
                latency=LinearLatencyModel(
                    2.0 + 0.7 * i, 5.0 + 4.0 * i, std_ms=0.0
                ),
                family="eq",
            )
            for i in range(num_models)
        ],
        task="eq",
    )


def _with_twin() -> ModelSet:
    """The tiny set plus an exact twin of one model: their Q values tie,
    so the greedy choice rests on first-maximum tie-breaking."""
    models = list(make_tiny_model_set())
    twin = replace(models[1], name=f"{models[1].name}-twin")
    return ModelSet(models + [twin], task="tiny")


def _config(**overrides) -> WorkerMDPConfig:
    base = dict(
        model_set=make_tiny_model_set(),
        slo_ms=80.0,
        arrivals=PoissonArrivals(30.0),
        num_workers=2,
        max_batch_size=4,
        max_queue=5,
        fld_resolution=8,
        pareto_prune=False,
    )
    base.update(overrides)
    return WorkerMDPConfig(**base)


class TestBackendDispatch:
    def test_build_worker_mdp_dispatch(self):
        """One production class; the oracle only overrides the sweeps."""
        config = _config()
        mdp = build_worker_mdp(config)
        assert type(mdp) is WorkerMDP
        loop = LoopWorkerMDP(config)
        assert isinstance(loop, WorkerMDP)
        assert loop.num_states == mdp.num_states
        assert loop.model_names == mdp.model_names


GOLDEN_CASES = [
    pytest.param(
        dict(view=view, batching=batching),
        id=f"{view.value}-{batching.value}",
    )
    for view in TransitionView
    for batching in (BatchingMode.MAXIMAL, BatchingMode.VARIABLE)
] + [
    pytest.param(
        dict(batching=BatchingMode.VARIABLE, drop_late=True),
        id="drop-late",
    ),
    pytest.param(
        dict(batching=BatchingMode.VARIABLE, duration_aware_discount=True),
        id="semi-mdp",
    ),
    pytest.param(
        dict(batching=BatchingMode.VARIABLE, reward_per_query=0.3),
        id="per-query-reward",
    ),
    pytest.param(
        dict(
            batching=BatchingMode.VARIABLE,
            drop_late=True,
            duration_aware_discount=True,
            reward_per_query=0.3,
        ),
        id="all-extensions",
    ),
    pytest.param(
        dict(batching=BatchingMode.VARIABLE, model_set=_with_twin()),
        id="tied-models",
    ),
]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("overrides", GOLDEN_CASES)
    def test_backends_agree_exactly(self, overrides, tmp_path):
        config = _config(**overrides)
        loop = LoopWorkerMDP(config)
        tensor = build_worker_mdp(config)

        # Value iteration: bitwise-identical trajectories.
        vi_loop = value_iteration(loop, tolerance=1e-7)
        vi_tensor = value_iteration(tensor, tolerance=1e-7)
        assert np.array_equal(vi_loop.values, vi_tensor.values)
        assert vi_loop.iterations == vi_tensor.iterations

        # Serialized policies: byte-identical files.
        policy_loop = loop.extract_policy(vi_loop.values)
        policy_tensor = tensor.extract_policy(vi_tensor.values)
        path_loop = tmp_path / "loop.json"
        path_tensor = tmp_path / "tensor.json"
        policy_loop.save(path_loop)
        policy_tensor.save(path_tensor)
        assert path_loop.read_bytes() == path_tensor.read_bytes()

        # Stationary analysis: identical chains, identical §5.1 numbers.
        dist_loop = stationary_distribution(loop, policy_loop)
        dist_tensor = stationary_distribution(tensor, policy_tensor)
        assert np.array_equal(dist_loop, dist_tensor)
        assert evaluate_policy(loop, policy_loop) == (
            evaluate_policy(tensor, policy_tensor)
        )

        # The one Bellman kernel against the oracle's per-load backup: on
        # the fixed point, on zeros (every partial drain ties its full
        # drain, so first-maximum tie-breaking decides), and on noise.
        rng = np.random.default_rng(7)
        for v in (
            vi_tensor.values,
            tensor.initial_values(),
            rng.uniform(0.0, 5.0, tensor.num_states),
        ):
            want = loop.backup(v, want_greedy=True)
            got = tensor.backup(v, want_greedy=True)
            assert np.array_equal(got.values, want.values)
            for got_table, want_table in zip(got.greedy, want.greedy):
                assert np.array_equal(got_table, want_table)
        # Fresh arrays per call: value iteration keeps the previous one.
        first, second = tensor.backup(v).values, tensor.backup(v).values
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, second)

    def test_generate_policy_backend_interchangeable(self, tmp_path):
        config = _config(batching=BatchingMode.VARIABLE)
        result_loop = generate_loop_policy(config)
        result_tensor = generate_policy(config)
        path_loop = tmp_path / "loop.json"
        path_tensor = tmp_path / "tensor.json"
        result_loop.policy.save(path_loop)
        result_tensor.policy.save(path_tensor)
        assert path_loop.read_bytes() == path_tensor.read_bytes()
        assert result_loop.guarantees == result_tensor.guarantees
        assert result_loop.iterations == result_tensor.iterations


class TestChainRows:
    def test_policy_rows_identical_and_stochastic(self):
        config = _config(batching=BatchingMode.VARIABLE)
        loop = LoopWorkerMDP(config)
        tensor = build_worker_mdp(config)
        stats = value_iteration(tensor, tolerance=1e-7)
        model, batch = tensor.backup(stats.values, want_greedy=True).greedy
        # The gathered chain equals the per-pair rows of the loop oracle.
        rows_loop = np.stack(
            [
                loop.transition_row(s, (int(m), int(b)))
                for s, (m, b) in enumerate(zip(model, batch))
            ]
        )
        rows_tensor = tensor.policy_rows(model, batch)
        assert np.array_equal(rows_loop, rows_tensor)
        assert rows_tensor.min() >= -1e-12
        np.testing.assert_allclose(
            rows_tensor.sum(axis=1), 1.0, atol=1e-8
        )


# ----------------------------------------------------------------------
# Stacked bank: one batched solve == per-load tensor solves, bitwise
# ----------------------------------------------------------------------
BANK_LOADS = [18.0, 27.0, 36.0, 45.0]

STACKED_CASES = GOLDEN_CASES + [
    pytest.param(
        dict(arrivals=GammaArrivals(30.0, shape=2.0)),
        id="gamma-arrivals",
    ),
    pytest.param(
        dict(arrivals=DeterministicArrivals(30.0)),
        id="deterministic-arrivals",
    ),
]


class TestStackedBank:
    @pytest.mark.parametrize("overrides", STACKED_CASES)
    def test_stacked_matches_per_load_tensor(self, overrides):
        base = _config(**overrides)
        configs = [base.with_load(q) for q in BANK_LOADS]
        stats = StackedBankMDP(configs).solve(tolerance=1e-7)
        for config, s in zip(configs, stats):
            ref = value_iteration(
                build_worker_mdp(config), tolerance=1e-7
            )
            assert np.array_equal(s.values, ref.values)
            assert s.iterations == ref.iterations
            assert s.converged

    def test_solve_stacked_bank_end_to_end(self, tmp_path):
        base = _config(batching=BatchingMode.VARIABLE)
        configs = [base.with_load(q) for q in BANK_LOADS]
        results = solve_stacked_bank(configs)
        for config, result in zip(configs, results):
            ref = generate_policy(config)
            stacked_path = tmp_path / "stacked.json"
            ref_path = tmp_path / "ref.json"
            result.policy.save(stacked_path)
            ref.policy.save(ref_path)
            assert stacked_path.read_bytes() == ref_path.read_bytes()
            assert result.guarantees == ref.guarantees
            assert result.iterations == ref.iterations

    def test_stacked_stationary_matches_per_load(self):
        base = _config(batching=BatchingMode.VARIABLE)
        configs = [base.with_load(q) for q in BANK_LOADS]
        bank = StackedBankMDP(configs)
        stats = bank.solve(tolerance=1e-7)
        model, batch = bank.greedy(stats)
        # One batched power iteration over every cell's chain.
        dists = power_iterate(
            [cell.policy_rows(m, b) for cell, m, b in zip(bank.cells, model, batch)]
        )
        guarantees = bank.evaluate(model, batch)
        for cell, m, b, dist, g in zip(bank.cells, model, batch, dists, guarantees):
            policy = cell.policy_of(m, b)
            assert np.array_equal(dist, stationary_distribution(cell, policy))
            assert g == evaluate_policy(cell, policy)

    def test_stacked_warm_start_reaches_same_policy(self):
        base = _config()
        configs = [base.with_load(q) for q in BANK_LOADS]
        bank = StackedBankMDP(configs)
        cold = bank.solve(tolerance=1e-7)
        initials = [cold[0].values] + [None] * (len(configs) - 1)
        warm = StackedBankMDP(configs).solve(
            tolerance=1e-7, initials=initials
        )
        assert warm[0].warm_started and not warm[1].warm_started
        # Values stop wherever the greedy table is certified, so a warm
        # start reaches the same policy, not the same vector.
        for got, want in zip(bank.greedy(warm), bank.greedy(cold)):
            assert np.array_equal(got, want)
        for c, w in zip(cold[1:], warm[1:]):
            assert np.array_equal(w.values, c.values)
        assert warm[0].iterations <= cold[0].iterations

    def test_stacked_rejects_mismatched_cells(self):
        base = _config()
        configs = [base.with_load(q) for q in BANK_LOADS[:2]]
        configs[1] = _config(slo_ms=120.0).with_load(BANK_LOADS[1])
        with pytest.raises(ConfigurationError):
            StackedBankMDP(configs)

    def test_stacked_validates_solve_arguments(self):
        base = _config()
        bank = StackedBankMDP([base.with_load(q) for q in BANK_LOADS[:2]])
        with pytest.raises(ConfigurationError):
            bank.solve(initials=[None])
        # A warm start must be one value per state, never broadcast.
        size = bank.cells[0].num_states
        for bad in (np.array([0.5]), np.float64(0.5), np.zeros(size + 1)):
            with pytest.raises(ConfigurationError, match="load 27 qps"):
                bank.solve(initials=[None, bad])
        config = base.with_load(BANK_LOADS[0])
        with pytest.raises(ConfigurationError, match="load 18 qps"):
            generate_policy(config, initial=np.array([0.5]))
        with pytest.raises(ConfigurationError, match="load 18 qps"):
            PolicyGenerator(base).generate(
                BANK_LOADS[0], initial=np.array([0.5])
            )


# ----------------------------------------------------------------------
# Property tests: random small MDPs
# ----------------------------------------------------------------------
views = st.sampled_from(
    [TransitionView.POISSON_SPLIT, TransitionView.ROUND_ROBIN_MARGINAL]
)


class TestRandomEquivalence:
    @given(
        num_models=st.integers(2, 4),
        max_queue=st.integers(2, 5),
        resolution=st.integers(3, 7),
        load=st.floats(5.0, 80.0),
        slo=st.floats(40.0, 160.0),
        view=views,
        variable=st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_value_iteration_bitwise_on_random_mdps(
        self, num_models, max_queue, resolution, load, slo, view, variable
    ):
        config = WorkerMDPConfig(
            model_set=_ladder(num_models),
            slo_ms=slo,
            arrivals=PoissonArrivals(load),
            num_workers=1,
            max_batch_size=max_queue,
            max_queue=max_queue,
            fld_resolution=resolution,
            view=view,
            batching=(
                BatchingMode.VARIABLE if variable else BatchingMode.MAXIMAL
            ),
            pareto_prune=False,
        )
        loop = LoopWorkerMDP(config)
        tensor = build_worker_mdp(config)
        vi_loop = value_iteration(loop, tolerance=1e-6)
        vi_tensor = value_iteration(tensor, tolerance=1e-6)
        assert np.array_equal(vi_loop.values, vi_tensor.values)
        assert vi_loop.iterations == vi_tensor.iterations

    @given(
        num_models=st.integers(2, 3),
        max_queue=st.integers(2, 4),
        resolution=st.integers(3, 6),
        load=st.floats(5.0, 60.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_occupancy_simplex_and_agreement(
        self, num_models, max_queue, resolution, load
    ):
        config = WorkerMDPConfig(
            model_set=_ladder(num_models),
            slo_ms=90.0,
            arrivals=PoissonArrivals(load),
            num_workers=1,
            max_batch_size=max_queue,
            max_queue=max_queue,
            fld_resolution=resolution,
            batching=BatchingMode.VARIABLE,
            pareto_prune=False,
        )
        loop = LoopWorkerMDP(config)
        tensor = build_worker_mdp(config)
        stats = value_iteration(tensor, tolerance=1e-6)
        policy = tensor.extract_policy(stats.values)
        occ_loop = stationary_occupancy(loop, policy)
        occ_tensor = stationary_occupancy(tensor, policy)
        assert occ_loop == occ_tensor
        total = (
            occ_tensor.empty_probability
            + occ_tensor.full_probability
            + sum(occ_tensor.probs.values())
        )
        assert total == pytest.approx(1.0, abs=1e-7)
        assert occ_tensor.empty_probability >= 0.0
        assert occ_tensor.full_probability >= 0.0
        assert all(p >= -1e-12 for p in occ_tensor.probs.values())

    @given(
        num_models=st.integers(2, 3),
        max_queue=st.integers(2, 4),
        resolution=st.integers(3, 6),
        base_load=st.floats(5.0, 40.0),
        step=st.floats(2.0, 15.0),
        cells=st.integers(2, 4),
        view=views,
        variable=st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_stacked_bitwise_on_random_load_grids(
        self,
        num_models,
        max_queue,
        resolution,
        base_load,
        step,
        cells,
        view,
        variable,
    ):
        """Random load grids x views x batching: the stacked solve must be
        bitwise-equal to independent per-load tensor solves, and frozen-load
        masking must preserve every load's independent sweep count."""
        loads = [base_load + i * step for i in range(cells)]
        base = WorkerMDPConfig(
            model_set=_ladder(num_models),
            slo_ms=90.0,
            arrivals=PoissonArrivals(max(loads)),
            num_workers=1,
            max_batch_size=max_queue,
            max_queue=max_queue,
            fld_resolution=resolution,
            view=view,
            batching=(
                BatchingMode.VARIABLE if variable else BatchingMode.MAXIMAL
            ),
            pareto_prune=False,
        )
        configs = [base.with_load(q) for q in loads]
        stats = StackedBankMDP(configs).solve(tolerance=1e-6)
        for config, s in zip(configs, stats):
            ref = value_iteration(
                build_worker_mdp(config), tolerance=1e-6
            )
            assert np.array_equal(s.values, ref.values)
            assert s.iterations == ref.iterations


# ----------------------------------------------------------------------
# Dense oracle: action-by-action enumeration of the worker MDP
# ----------------------------------------------------------------------
DENSE_CASES = [
    pytest.param(
        dict(view=view, batching=batching, drop_late=drop_late),
        id=f"{view.value}-{batching.value}{'-drop' if drop_late else ''}",
    )
    for view in (TransitionView.POISSON_SPLIT, TransitionView.EXACT_ROUND_ROBIN)
    for batching in (BatchingMode.MAXIMAL, BatchingMode.VARIABLE)
    for drop_late in (False, True)
]


class TestDenseOracle:
    @pytest.mark.parametrize("overrides", DENSE_CASES)
    def test_worker_mdp_matches_dense_enumeration(self, overrides):
        config = _config(max_queue=4, max_batch_size=4, fld_resolution=6, **overrides)
        mdp = build_worker_mdp(config)
        dense = DenseMDP.from_worker_mdp(mdp)
        # Both sides sweep to the tolerance rule (the dense backup reports
        # no margin), so both values sit at the fixed point.
        vi = value_iteration(ToleranceWorkerMDP(config), tolerance=1e-10)
        vi_dense = value_iteration(dense, tolerance=1e-10)
        np.testing.assert_allclose(vi.values, vi_dense.values, rtol=0, atol=1e-8)

        # Greedy tables on the same value vector, away from near-ties.
        greedy = mdp.backup(vi.values, want_greedy=True).greedy
        agree, compared = dense_agreement(dense, vi.values, greedy)
        assert agree.all(), np.nonzero(~agree)
        assert compared > (mdp.num_states - 1) // 2
