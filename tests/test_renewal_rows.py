"""The batched renewal rows against the per-(latency, load) loop oracle.

:class:`repro.core.transitions.EquilibriumRenewalKernelBuilder` contracts
each quadrature block once over all of its windows and loads; every
``service_rows`` and ``count_rows`` byte must equal the oracle's
(:mod:`tests.oracles.renewal_rows`), which reduces one latency and load
at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import transitions
from repro.core.discretization import fixed_length_grid
from repro.core.transitions import (
    _POISSON_SUM_MAX_X,
    DeterministicGaps,
    EquilibriumRenewalKernelBuilder,
    GammaGaps,
    QuadraturePlan,
)
from tests.oracles.renewal_rows import LoopRenewalKernelBuilder

SLO = 120.0
N_MAX = 10
#: Positive latencies across the SLO (past it too), plus a zero latency,
#: which has no window and no count integral.
LATENCIES = [0.0] + list(np.linspace(3.0, 140.0, 25))


def _scales(loads: int, low: float, high: float) -> np.ndarray:
    return np.geomspace(low, high, loads)


#: Gap families by name: each maps a load count to a stacked gap model.
FAMILIES = {
    "erlang-2": lambda n: GammaGaps(2.0, _scales(n, 3.0, 20.0)),
    # x = t / scale reaches 1,400 > _POISSON_SUM_MAX_X: gammainc tail.
    "erlang-3-gammainc": lambda n: GammaGaps(3.0, _scales(n, 0.1, 5.0)),
    "erlang-8-underflow": lambda n: GammaGaps(8.0, _scales(n, 0.1, 0.4)),
    "gamma-0.7": lambda n: GammaGaps(0.7, _scales(n, 2.0, 30.0)),
    "gamma-1.5": lambda n: GammaGaps(1.5, _scales(n, 1.0, 15.0)),
    "deterministic": lambda n: DeterministicGaps(np.linspace(4.0, 60.0, n)),
}


def _assert_rows_equal(grid, gaps) -> None:
    batched = EquilibriumRenewalKernelBuilder(grid, gaps, N_MAX)
    oracle = LoopRenewalKernelBuilder(grid, gaps, N_MAX)
    assert batched.service_rows(LATENCIES).tobytes() == (
        oracle.service_rows(LATENCIES).tobytes()
    )
    assert batched.count_rows(LATENCIES).tobytes() == (
        oracle.count_rows(LATENCIES).tobytes()
    )


@pytest.mark.parametrize("loads", [1, 2, 17, 32])
@pytest.mark.parametrize("fld", [3, 10, 30])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_equal_loop_oracle(family, fld, loads):
    _assert_rows_equal(fixed_length_grid(SLO, fld), FAMILIES[family](loads))


def test_gammainc_family_reaches_far_tail():
    gaps = FAMILIES["erlang-3-gammainc"](2)
    assert max(LATENCIES) / gaps.scale_ms.min() > _POISSON_SUM_MAX_X


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_rows_equal_loop_oracle_across_small_blocks(monkeypatch, family):
    """A block boundary falls inside the latency list (and inside one
    latency's windows); the oracle then blocks its parts differently."""
    grid = fixed_length_grid(SLO, 10)
    gaps = FAMILIES[family](3)
    monkeypatch.setattr(transitions, "_KERNEL_BLOCK", 5 * 8 * 3)
    builder = EquilibriumRenewalKernelBuilder(grid, gaps, N_MAX)
    plan = QuadraturePlan.service(grid, LATENCIES)
    blocks = [block for block, _, _ in builder._quadrature(plan)]
    assert len(blocks) > 1
    assert any(
        plan.row[b.start - 1] == plan.row[b.start] for b in blocks[1:]
    )
    assert len(list(builder._quadrature(QuadraturePlan.counts(LATENCIES)))) > 1
    _assert_rows_equal(grid, gaps)


def test_plan_argument_equals_latency_argument():
    """A precomputed plan (a skeleton's) builds the same rows as the
    latencies it was planned over."""
    grid = fixed_length_grid(SLO, 10)
    builder = EquilibriumRenewalKernelBuilder(grid, FAMILIES["erlang-2"](4), N_MAX)
    assert np.array_equal(
        builder.service_rows(QuadraturePlan.service(grid, LATENCIES)),
        builder.service_rows(LATENCIES),
    )
    assert np.array_equal(
        builder.count_rows(QuadraturePlan.counts(LATENCIES)),
        builder.count_rows(LATENCIES),
    )
