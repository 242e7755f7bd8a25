"""The §5.1 evaluation of action tables against its per-state oracle.

The stacked bank evaluates every cell from the solve's greedy arrays and
packages each cell's policy once (:meth:`repro.core.mdp.WorkerMDP.policy_of`);
a ``Policy`` given to :mod:`repro.core.guarantees` is decoded into the
same arrays (:meth:`~repro.core.mdp.WorkerMDP.action_table`).  Both must
be float-identical to the state-by-state formulation they replaced,
:mod:`tests.oracles.policy_eval`.  A hypothesis matrix over view x
batching x ``drop_late`` x arrival family x ``reward_per_query`` x
``duration_aware_discount`` (non-Poisson families on the marginal view
only) asserts, for every cell of a random load grid:

- chain rows ``==``;
- stationary distribution ``==`` (and the occupancy's keys and floats),
  or both refuse a chain that power iteration cannot settle;
- ``PolicyGuarantees`` ``==``;
- ``Policy.save`` bytes equal;
- ``action_table(Policy.load(saved))`` ``==`` the solve's greedy arrays
  on the occupied states and on FULL.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.distributions import (
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.bank import solve_stacked_bank
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.guarantees import (
    evaluate_policy,
    stationary_distribution,
    stationary_occupancy,
)
from repro.core.mdp import build_worker_mdp
from repro.core.policy import Policy
from repro.errors import SolverError
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from tests.oracles import policy_eval

FAMILIES = {
    "poisson": PoissonArrivals,
    "gamma-bursty": lambda load: GammaArrivals(load, shape=0.5),
    "gamma-regular": lambda load: GammaArrivals(load, shape=2.0),
    "deterministic": DeterministicArrivals,
}


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


@st.composite
def load_grids(draw):
    """A random small worker MDP, drawn across every evaluation branch,
    at one to three loads."""
    view = draw(st.sampled_from(list(TransitionView)))
    family = (
        draw(st.sampled_from(sorted(FAMILIES)))
        if view is TransitionView.ROUND_ROBIN_MARGINAL
        else "poisson"
    )
    max_queue = draw(st.integers(2, 5))
    base_load = draw(st.floats(5.0, 60.0))
    step = draw(st.floats(3.0, 30.0))
    cells = draw(st.integers(1, 3))
    base = WorkerMDPConfig(
        model_set=_ladder(draw(st.integers(2, 4))),
        slo_ms=draw(st.floats(40.0, 160.0)),
        arrivals=FAMILIES[family](base_load),
        num_workers=draw(st.integers(1, 3)),
        max_batch_size=max_queue,
        max_queue=max_queue,
        fld_resolution=draw(st.integers(3, 7)),
        view=view,
        batching=draw(st.sampled_from(list(BatchingMode))),
        drop_late=draw(st.booleans()),
        reward_per_query=draw(st.booleans()),
        duration_aware_discount=draw(st.booleans()),
        pareto_prune=False,
    )
    return [base.with_load(base_load + i * step) for i in range(cells)]


#: Power-iteration steps within which a draw's chains must settle.  A
#: periodic policy chain never settles under power iteration; both
#: evaluations must refuse it alike, and the draw stops there.
SETTLE = 10_000


@given(configs=load_grids())
@settings(max_examples=40, deadline=None)
def test_bank_evaluation_matches_per_state_oracle(configs, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("policies")
    tables = []
    for config, result in zip(
        configs, solve_stacked_bank(configs, with_guarantees=False)
    ):
        mdp = build_worker_mdp(config)
        model, batch = mdp.backup(result.values, want_greedy=True).greedy
        policy = mdp.policy_of(model, batch)
        table = policy_eval.policy_action_table(mdp, policy)
        assert np.array_equal(
            mdp.policy_rows(model, batch), policy_eval.policy_rows(mdp, table)
        )
        try:
            dist = policy_eval.stationary_distribution(
                mdp, policy, max_iterations=SETTLE
            )
        except SolverError:
            with pytest.raises(SolverError):
                stationary_distribution(mdp, policy, max_iterations=SETTLE)
            return
        assert np.array_equal(
            stationary_distribution(mdp, policy, max_iterations=SETTLE), dist
        )
        occupancy = stationary_occupancy(mdp, policy)
        space = mdp.space
        assert list(occupancy.probs.items()) == [
            (f"{n},{j}", float(dist[space.index(n, j)]))
            for n in range(1, mdp.max_queue + 1)
            for j in range(len(mdp.grid))
        ]
        tables.append((mdp, model, batch, policy))

    for (mdp, model, batch, policy), result in zip(
        tables, solve_stacked_bank(configs)
    ):
        guarantees = policy_eval.evaluate_policy(mdp, policy)
        assert evaluate_policy(mdp, policy) == guarantees
        assert result.guarantees == guarantees

        saved, expected = tmp / "bank.json", tmp / "oracle.json"
        result.policy.save(saved)
        policy_eval.annotate(policy, guarantees).save(expected)
        assert saved.read_bytes() == expected.read_bytes()

        # Occupied states and FULL; EMPTY's entry is ignored.
        loaded = mdp.action_table(Policy.load(saved))
        assert np.array_equal(loaded[0][1:], model[1:])
        assert np.array_equal(loaded[1][1:], batch[1:])
