"""Property-based tests (hypothesis) for transition kernels and grids.

These pin down the invariants the §4.4 derivation rests on, across randomly
drawn loads, latencies, SLOs, and grid resolutions:

- every transition row is a probability distribution;
- the count marginal of a service row equals the arrival distribution's
  counting pmf (split view);
- slack quantization never over-estimates slack;
- kernels agree across equivalent constructions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.distributions import GammaArrivals, PoissonArrivals
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.discretization import fixed_length_grid, model_based_grid
from repro.core.mdp import WorkerMDP
from repro.core.transitions import (
    EquilibriumRenewalKernelBuilder,
    GammaGaps,
    SplitViewKernelBuilder,
)
from tests.conftest import make_one_model_set

loads = st.floats(min_value=1.0, max_value=500.0)
slos = st.floats(min_value=20.0, max_value=600.0)
latencies = st.floats(min_value=0.5, max_value=800.0)
resolutions = st.integers(min_value=1, max_value=40)
queue_caps = st.integers(min_value=1, max_value=20)


class TestSplitKernelProperties:
    @given(load=loads, slo=slos, latency=latencies, d=resolutions, n=queue_caps)
    @settings(max_examples=60, deadline=None)
    def test_service_row_is_distribution(self, load, slo, latency, d, n):
        grid = fixed_length_grid(slo, d)
        builder = SplitViewKernelBuilder(grid, PoissonArrivals(load), n)
        row = builder.service_rows([latency])[0]
        assert row.min() >= -1e-12
        assert row.sum() == pytest.approx(1.0, abs=1e-8)

    @given(load=loads, slo=slos, latency=latencies, d=resolutions)
    @settings(max_examples=40, deadline=None)
    def test_count_marginal_matches_poisson(self, load, slo, latency, d):
        n = 12
        grid = fixed_length_grid(slo, d)
        dist = PoissonArrivals(load)
        builder = SplitViewKernelBuilder(grid, dist, n)
        row = builder.service_rows([latency])[0]
        occ = builder.space.occupied_view(row)
        pois = dist.pmf_vector(n, latency)
        assert row[builder.space.EMPTY] == pytest.approx(pois[0], abs=1e-10)
        for k in range(1, n + 1):
            assert occ[k - 1].sum() == pytest.approx(pois[k], abs=1e-9)

    @given(
        load=loads,
        slo=slos,
        fraction=st.floats(min_value=0.01, max_value=1.0),
        leftover=st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_partial_row_is_distribution(self, load, slo, fraction, leftover):
        # Partial-drain counts exist for latencies that fit a slack bin.
        mdp = WorkerMDP(
            WorkerMDPConfig(
                model_set=make_one_model_set(fraction * slo),
                slo_ms=slo,
                arrivals=PoissonArrivals(load),
                max_queue=12,
                fld_resolution=10,
                batching=BatchingMode.VARIABLE,
                view=TransitionView.POISSON_SPLIT,
            )
        )
        sp = mdp.space
        top = len(mdp.grid) - 1
        assert mdp.latency_ms(0, 1) <= mdp.grid[top]
        row = mdp.transition_row(sp.index(1 + leftover, top), (0, 1))
        assert row.min() >= -1e-12
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert row[sp.EMPTY] == 0.0


class TestEquilibriumKernelProperties:
    @given(
        load=loads,
        slo=slos,
        latency=st.floats(min_value=0.5, max_value=400.0),
        shape=st.floats(min_value=0.5, max_value=30.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_are_distributions(self, load, slo, latency, shape):
        grid = fixed_length_grid(slo, 8)
        gaps = GammaGaps(shape=shape, scale_ms=1000.0 / load / shape)
        builder = EquilibriumRenewalKernelBuilder(grid, gaps, 10)
        row = builder.service_rows([latency])[0, 0]
        assert row.min() >= -1e-10
        assert row.sum() == pytest.approx(1.0, abs=1e-7)

    @given(load=loads, latency=st.floats(min_value=1.0, max_value=300.0))
    @settings(max_examples=30, deadline=None)
    def test_exponential_equals_poisson_split(self, load, latency):
        grid = fixed_length_grid(150.0, 10)
        split = SplitViewKernelBuilder(grid, PoissonArrivals(load), 10)
        renewal = EquilibriumRenewalKernelBuilder(
            grid, GammaGaps(shape=1.0, scale_ms=1000.0 / load), 10
        )
        assert np.allclose(
            split.service_rows([latency])[0],
            renewal.service_rows([latency])[0, 0],
            atol=1e-5,
        )

    @given(
        load=loads,
        shape=st.floats(min_value=0.5, max_value=20.0),
        latency=st.floats(min_value=1.0, max_value=300.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_counts_mean_preserved(self, load, shape, latency):
        """E[arrivals during service] == rate * time (up to truncation)."""
        n = 40
        grid = fixed_length_grid(150.0, 4)
        gaps = GammaGaps(shape=shape, scale_ms=1000.0 / load / shape)
        builder = EquilibriumRenewalKernelBuilder(grid, gaps, n)
        counts = builder.count_rows([latency])[0, 0]
        tail = 1.0 - counts.sum()
        if tail < 1e-6:  # only check when the support captures the mass
            mean = float((np.arange(n + 1) * counts).sum())
            assert mean == pytest.approx(load / 1000.0 * latency, rel=0.08, abs=0.05)


class TestGridProperties:
    @given(slo=slos, d=resolutions, slack=st.floats(-100.0, 1000.0))
    @settings(max_examples=100, deadline=None)
    def test_floor_never_overestimates(self, slo, d, slack):
        grid = fixed_length_grid(slo, d)
        j = grid.floor_index(slack)
        assert grid[j] <= max(slack, 0.0) + 1e-9 or j == 0

    @given(slo=slos, d=resolutions)
    @settings(max_examples=60, deadline=None)
    def test_bins_partition_slo_range(self, slo, d):
        grid = fixed_length_grid(slo, d)
        uppers = [grid.upper(j) for j in range(len(grid))]
        assert uppers[:-1] == list(grid.values[1:])
        assert uppers[-1] == slo

    @given(slo=st.floats(min_value=50.0, max_value=600.0), cap=st.integers(1, 12))
    @settings(max_examples=30, deadline=None)
    def test_md_grid_values_are_latencies_or_endpoints(self, slo, cap):
        from tests.conftest import make_tiny_model_set

        models = make_tiny_model_set()
        grid = model_based_grid(models, slo, cap)
        valid = {0.0, float(slo)}
        for m in models:
            for b in range(1, cap + 1):
                if m.latency_ms(b) <= slo:
                    valid.add(float(m.latency_ms(b)))
        assert set(grid.values) <= valid


class TestArrivalDistributionProperties:
    @given(load=loads, window=st.floats(min_value=0.0, max_value=2000.0))
    @settings(max_examples=60, deadline=None)
    def test_poisson_pmf_normalized(self, load, window):
        dist = PoissonArrivals(load)
        bound = dist.support_bound(window)
        vec = dist.pmf_vector(bound, window)
        assert vec.min() >= 0.0
        assert vec.sum() == pytest.approx(1.0, abs=1e-8)

    @given(
        load=loads,
        shape=st.floats(min_value=0.3, max_value=25.0),
        window=st.floats(min_value=0.0, max_value=1000.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_gamma_pmf_normalized(self, load, shape, window):
        dist = GammaArrivals(load, shape=shape)
        bound = dist.support_bound(window)
        vec = dist.pmf_vector(bound, window)
        assert vec.min() >= -1e-12
        assert vec.sum() == pytest.approx(1.0, abs=1e-7)

    @given(load=loads, k=st.integers(1, 16))
    @settings(max_examples=40, deadline=None)
    def test_split_round_robin_preserves_total_rate(self, load, k):
        dist = PoissonArrivals(load)
        per_worker = dist.split_round_robin(k)
        assert per_worker.load_qps * k == pytest.approx(load)
