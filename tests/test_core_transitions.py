"""Tests for transition kernels (§4.4) — the heart of the reproduction."""

import numpy as np
import pytest

from repro.arrivals.distributions import (
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.discretization import fixed_length_grid
from repro.core.mdp import WorkerMDP
from repro.core.transitions import (
    DeterministicGaps,
    EquilibriumRenewalKernelBuilder,
    ExactRoundRobinKernelBuilder,
    GammaGaps,
    SplitViewKernelBuilder,
    StateSpace,
    _POISSON_SUM_MAX_X,
    gamma_cdfs,
    gaps_for_distribution,
)
from tests.conftest import make_one_model_set

SLO = 120.0
GRID = fixed_length_grid(SLO, 12)
N_MAX = 10


class TestStateSpace:
    def test_size(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        assert sp.size == 2 + 20

    def test_index_decode_roundtrip(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        for n in range(1, 5):
            for j in range(5):
                assert sp.decode(sp.index(n, j)) == (n, j)

    def test_special_states(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        assert sp.decode(sp.EMPTY) == (0, -1)
        assert sp.decode(sp.FULL) == (4, 0)

    def test_bounds_checked(self):
        sp = StateSpace(max_queue=4, grid_size=5)
        with pytest.raises(ValueError):
            sp.index(0, 0)
        with pytest.raises(ValueError):
            sp.index(5, 0)
        with pytest.raises(ValueError):
            sp.index(1, 5)
        with pytest.raises(ValueError):
            sp.decode(sp.size)

    def test_occupied_view_shares_memory(self):
        sp = StateSpace(max_queue=3, grid_size=4)
        v = np.zeros(sp.size)
        view = sp.occupied_view(v)
        view[1, 2] = 7.0
        assert v[sp.index(2, 2)] == 7.0


class TestSplitViewKernel:
    def setup_method(self):
        self.dist = PoissonArrivals(40.0)
        self.builder = SplitViewKernelBuilder(GRID, self.dist, max_queue=N_MAX)

    def test_row_is_distribution(self):
        for row in self.builder.service_rows([5.0, 33.3, 80.0, 150.0]):
            assert row.min() >= 0.0
            assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_empty_probability_matches_poisson(self):
        row = self.builder.service_rows([50.0])[0]
        assert row[self.builder.space.EMPTY] == pytest.approx(
            self.dist.pmf(0, 50.0)
        )

    def test_count_marginal_matches_poisson(self):
        """Summing slack bins recovers P[n' = k arrivals during service]."""
        row = self.builder.service_rows([60.0])[0]
        occ = self.builder.space.occupied_view(row)
        pois = self.dist.pmf_vector(N_MAX, 60.0)
        for k in range(1, N_MAX + 1):
            assert occ[k - 1].sum() == pytest.approx(pois[k], abs=1e-10)

    def test_slack_support_window(self):
        """For n' >= 1, slack lies in [SLO - l, SLO) exactly."""
        latency = 60.0
        row = self.builder.service_rows([latency])[0]
        occ = self.builder.space.occupied_view(row)
        grid_values = GRID.as_array()
        for j in range(len(GRID)):
            mass = occ[:, j].sum()
            if GRID.upper(j) <= SLO - latency or grid_values[j] >= SLO:
                assert mass == pytest.approx(0.0, abs=1e-12)

    def test_full_state_takes_tail(self):
        # Huge service time: queue overflows with near certainty.
        row = self.builder.service_rows([1000.0])[0]
        assert row[self.builder.space.FULL] > 0.5

    def test_partial_row_geometry(self):
        """A partial drain leaving 2 queries: the leftover slack bin is
        deterministic and the queue grows by the arrival count."""
        mdp = WorkerMDP(
            WorkerMDPConfig(
                model_set=make_one_model_set(30.0),
                slo_ms=SLO,
                arrivals=self.dist,
                max_queue=N_MAX,
                fld_resolution=len(GRID) - 1,
                batching=BatchingMode.VARIABLE,
                view=TransitionView.POISSON_SPLIT,
            )
        )
        sp = mdp.space
        assert mdp.grid == GRID and sp == self.builder.space
        latency = mdp.latency_ms(0, 1)
        j = GRID.floor_index(75.0)
        row = mdp.transition_row(sp.index(3, j), (0, 1))
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        j_left = GRID.floor_index(GRID[j] - latency)
        counts = self.builder.count_rows([latency])[0]
        assert np.array_equal(counts, self.dist.pmf_vector(N_MAX, latency))
        for k in range(N_MAX - 2 + 1):
            assert row[sp.index(2 + k, j_left)] == counts[k]


class TestEquilibriumRenewalKernel:
    def test_exponential_gaps_match_poisson_split(self):
        """Memorylessness: equilibrium renewal with exponential gaps must
        reproduce the Poisson split kernel exactly."""
        dist = PoissonArrivals(40.0)
        split = SplitViewKernelBuilder(GRID, dist, max_queue=N_MAX)
        renewal = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=1.0, scale_ms=25.0), max_queue=N_MAX
        )
        latencies = [10.0, 47.0, 90.0]
        a = split.service_rows(latencies)
        b = renewal.service_rows(latencies)[:, 0]
        assert np.allclose(a, b, atol=5e-6)

    def test_row_is_distribution(self):
        builder = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=6.0, scale_ms=25.0 / 6.0), max_queue=N_MAX
        )
        for row in builder.service_rows([5.0, 40.0, 110.0])[:, 0]:
            assert row.min() >= -1e-12
            assert row.sum() == pytest.approx(1.0, abs=1e-8)

    def test_erlang_less_bursty_than_poisson(self):
        """With Erlang gaps (round-robin marginal), the count of arrivals
        during a service is less dispersed than Poisson at the same rate."""
        mean_gap = 25.0
        pois = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=1.0, scale_ms=mean_gap), max_queue=N_MAX
        )
        erl = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=8.0, scale_ms=mean_gap / 8.0), max_queue=N_MAX
        )
        latency = 50.0  # ~2 arrivals expected
        counts_p = pois.count_rows([latency])[0, 0]
        counts_e = erl.count_rows([latency])[0, 0]
        ks = np.arange(N_MAX + 1)

        def variance(c):
            mean = float((ks * c).sum())
            return float((((ks - mean) ** 2) * c).sum())

        assert variance(counts_e) < variance(counts_p)

    def test_arrival_counts_mean_matches_rate(self):
        builder = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=4.0, scale_ms=5.0), max_queue=N_MAX
        )
        latency = 60.0  # expected arrivals = 60 / 20 = 3
        counts = builder.count_rows([latency])[0, 0]
        mean = float((np.arange(N_MAX + 1) * counts).sum())
        # Tail mass beyond N_MAX is negligible here.
        assert mean == pytest.approx(3.0, rel=0.05)

    def test_deterministic_gaps(self):
        builder = EquilibriumRenewalKernelBuilder(
            GRID, DeterministicGaps(gap_ms=30.0), max_queue=N_MAX
        )
        counts = builder.count_rows([45.0])[0, 0]
        # 45ms with 30ms gaps and uniform phase: 1 or 2 arrivals.
        assert counts.sum() == pytest.approx(1.0, abs=1e-6)
        assert counts[0] == pytest.approx(0.0, abs=0.02)
        assert counts[1] + counts[2] == pytest.approx(1.0, abs=0.02)


class TestGammaCdfs:
    """The Erlang recurrence behind every integer-shape renewal kernel."""

    #: Points on both sides of the underflow bound, up to x = 1e4.
    X = np.unique(
        np.concatenate(
            [
                np.linspace(0.0, 60.0, 601),
                np.linspace(60.0, 1e4, 400),
                _POISSON_SUM_MAX_X + np.array([-5.0, -1e-9, 0.0, 1e-9, 5.0]),
                np.array([708.0, 709.0, 745.0, 746.0, 750.0, 800.0]),
            ]
        )
    )

    @pytest.mark.parametrize("shape", range(1, 17))
    def test_matches_gammainc(self, shape):
        from scipy.special import gammainc

        orders = shape * np.arange(1, 65)
        got = gamma_cdfs(orders, self.X)
        want = gammainc(orders[:, None].astype(float), self.X[None])
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-13

    def test_underflow_regime_falls_back_to_gammainc(self):
        """exp(-750) is 0.0: the bare recurrence would return P = 1."""
        from scipy.special import gammainc

        x = np.array([750.0, 1e4])
        got = gamma_cdfs((800.0,), x)[0]
        assert np.array_equal(got, gammainc(800.0, x))
        assert got[0] == pytest.approx(0.036, abs=1e-3)

    def test_non_integer_orders_are_gammainc(self):
        from scipy.special import gammainc

        orders = 1.5 * np.arange(1, 9)
        x = np.linspace(0.0, 40.0, 101)
        got = gamma_cdfs(orders, x)
        assert np.array_equal(got, gammainc(orders[:, None], x[None]))

    def test_elementwise_in_x(self):
        """Batching x (as the stacked bank does across loads) changes no
        bit: each element equals its own one-element evaluation, and the
        output keeps the input's trailing shape."""
        orders = 2 * np.arange(1, 11)
        x = np.array([[0.0, 0.3, 7.5], [42.0, 699.0, 900.0]])
        got = gamma_cdfs(orders, x)
        assert got.shape == (10, 2, 3)
        for idx in np.ndindex(x.shape):
            one = gamma_cdfs(orders, x[idx])
            assert np.array_equal(got[(slice(None),) + idx], one)


class TestBatchedRenewalRows:
    """Rows built for many latencies (and loads) at once must be bitwise
    the rows a one-latency call builds."""

    LATENCIES = list(np.linspace(3.0, 140.0, 57))

    @pytest.mark.parametrize(
        "gaps",
        [
            GammaGaps(shape=2.0, scale_ms=7.0),
            GammaGaps(shape=1.5, scale_ms=9.0),
            GammaGaps(shape=8.0, scale_ms=0.1),
            DeterministicGaps(gap_ms=11.0),
        ],
        ids=["erlang-2", "gamma-1.5", "erlang-8-underflow", "deterministic"],
    )
    def test_prefill_matches_one_at_a_time(self, gaps):
        builder = EquilibriumRenewalKernelBuilder(GRID, gaps, max_queue=N_MAX)
        rows = builder.service_rows(self.LATENCIES)
        counts = builder.count_rows(self.LATENCIES)
        for i, latency in enumerate(self.LATENCIES):
            assert np.array_equal(builder.service_rows([latency])[0], rows[i])
            assert np.array_equal(builder.count_rows([latency])[0], counts[i])

    def test_stacked_loads_match_single_loads(self):
        scales = [3.0, 7.5, 0.05]
        stacked = EquilibriumRenewalKernelBuilder(
            GRID, GammaGaps(shape=2.0, scale_ms=np.array(scales)), max_queue=N_MAX
        )
        rows = stacked.service_rows(self.LATENCIES)
        counts = stacked.count_rows(self.LATENCIES)
        for i, scale in enumerate(scales):
            single = EquilibriumRenewalKernelBuilder(
                GRID, GammaGaps(shape=2.0, scale_ms=scale), max_queue=N_MAX
            )
            assert np.array_equal(
                rows[:, i], single.service_rows(self.LATENCIES)[:, 0]
            )
            assert np.array_equal(
                counts[:, i], single.count_rows(self.LATENCIES)[:, 0]
            )


class TestGapsForDistribution:
    def test_poisson_maps_to_exponential(self):
        gaps = gaps_for_distribution(PoissonArrivals(100.0))
        assert isinstance(gaps, GammaGaps)
        assert gaps.shape == 1.0
        assert gaps.mean_ms == pytest.approx(10.0)

    def test_gamma_maps_to_gamma(self):
        gaps = gaps_for_distribution(GammaArrivals(100.0, shape=3.0))
        assert isinstance(gaps, GammaGaps)
        assert gaps.shape == 3.0
        assert gaps.mean_ms == pytest.approx(10.0)

    def test_deterministic_maps_to_fixed(self):
        gaps = gaps_for_distribution(DeterministicArrivals(100.0))
        assert isinstance(gaps, DeterministicGaps)
        assert gaps.mean_ms == pytest.approx(10.0)


class TestExactRoundRobinKernel:
    def test_k1_matches_split_view(self):
        dist = PoissonArrivals(40.0)
        split = SplitViewKernelBuilder(GRID, dist, max_queue=N_MAX)
        exact = ExactRoundRobinKernelBuilder(
            GRID, dist, num_workers=1, max_queue=N_MAX
        )
        latencies = [15.0, 55.0, 100.0]
        rows = exact.service_rows(latencies)
        assert rows.shape[1] == 1
        assert np.allclose(rows[:, 0], split.service_rows(latencies), atol=1e-9)

    def test_rows_are_distributions(self):
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=3, max_queue=N_MAX
        )
        rows = exact.service_rows([40.0])[0]
        assert rows.shape == (3, exact.space.size)
        assert rows.min() >= -1e-12
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-8)

    def test_phase_weights_sum_to_one(self):
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=4, max_queue=N_MAX
        )
        for n in (1, 3, 7):
            for slack in (0.0, 50.0, 120.0):
                w = exact.phase_weights(n, slack)
                assert w.shape == (4,)
                assert w.sum() == pytest.approx(1.0)
                assert (w >= 0).all()

    def test_phase_deterministic_right_after_arrival(self):
        """A fresh arrival (slack == SLO, n == 1) pins the phase to 0."""
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=4, max_queue=N_MAX
        )
        w = exact.phase_weights(1, SLO)
        assert w[0] == pytest.approx(1.0)

    def test_higher_phase_means_sooner_arrival(self):
        """Phase r = K-1 (next central arrival is ours) makes an empty next
        queue less likely than phase r = 0."""
        exact = ExactRoundRobinKernelBuilder(
            GRID, PoissonArrivals(120.0), num_workers=4, max_queue=N_MAX
        )
        rows = exact.service_rows([40.0])[0]
        sp = exact.space
        assert rows[3, sp.EMPTY] < rows[0, sp.EMPTY]

    def test_marginal_close_to_equilibrium_renewal(self):
        """Uniformly mixing the exact phases approximates the equilibrium
        renewal marginal (they coincide as conditioning vanishes)."""
        k = 3
        central = PoissonArrivals(120.0)
        exact = ExactRoundRobinKernelBuilder(GRID, central, k, max_queue=N_MAX)
        renewal = EquilibriumRenewalKernelBuilder(
            GRID,
            gaps_for_distribution(central.split_round_robin(k)),
            max_queue=N_MAX,
        )
        latency = 50.0
        mixed = exact.service_rows([latency])[0].mean(axis=0)
        row = renewal.service_rows([latency])[0, 0]
        assert np.allclose(mixed, row, atol=5e-3)
