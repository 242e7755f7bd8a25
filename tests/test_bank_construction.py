"""A stacked bank's cells hold exactly the kernels a one-load MDP builds.

:class:`~repro.core.bank.StackedBankMDP` builds every cell's transition
data from one batched call where the loads stack into one gap model, and
per cell otherwise.  Whatever the route, each cell's full-drain rows (per
phase, with the phase weights, under the exact view) and partial-drain
arrival counts must equal, ``==``, those of ``WorkerMDP(config)`` built
alone — for every view, both batching modes, and a cell whose config
differs from the others in more than its arrivals.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arrivals.distributions import (
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.bank import StackedBankMDP
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.mdp import WorkerMDP
from tests.conftest import make_tiny_model_set

FAMILIES = {
    "poisson": PoissonArrivals,
    "gamma-2": lambda load: GammaArrivals(load, shape=2.0),
    "deterministic": DeterministicArrivals,
}
LOADS = (20.0, 45.0, 70.0)


def _kernel_arrays(mdp: WorkerMDP):
    if mdp.config.view is TransitionView.EXACT_ROUND_ROBIN:
        arrays = [mdp._rows_by_phase, mdp._phase_weights, mdp._full_phase]
    else:
        arrays = [mdp._rows]
    return arrays + list(mdp._plan_counts)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("batching", list(BatchingMode))
@pytest.mark.parametrize("view", list(TransitionView))
def test_bank_cells_equal_lone_mdps(view, batching, family):
    base = WorkerMDPConfig(
        model_set=make_tiny_model_set(),
        slo_ms=80.0,
        arrivals=FAMILIES[family](LOADS[0]),
        num_workers=2,
        max_queue=5,
        fld_resolution=6,
        batching=batching,
        view=view,
    )
    configs = [base.with_load(q) for q in LOADS]
    # Differs in more than its arrivals, yet shares every load-invariant
    # input, so it stacks with the others.
    configs.append(replace(base.with_load(55.0), max_batch_size=8))
    bank = StackedBankMDP(configs)
    assert len(bank.cells) == len(configs)
    for cell, config in zip(bank.cells, configs):
        alone = WorkerMDP(config)
        got, want = _kernel_arrays(cell), _kernel_arrays(alone)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
