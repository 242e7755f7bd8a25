"""Tests for the runtime's virtual clock and workload generator."""

import numpy as np
import pytest

from repro.arrivals.traces import LoadTrace
from repro.runtime import WorkloadGenerator
from repro.runtime.clock import VirtualClock


class TestVirtualClock:
    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            VirtualClock(time_scale=0.0)

    def test_sleep_until_past_is_noop(self):
        clock = VirtualClock(time_scale=0.01)
        clock.sleep_until_ms(-100.0)  # already past

    def test_wall_s_until(self):
        clock = VirtualClock(time_scale=0.01)
        # 1000 virtual ms at 0.01 scale is 10 ms of wall time.
        remaining = clock.wall_s_until(1_000.0)
        assert 0.0 < remaining <= 0.010
        assert clock.wall_s_until(-1.0) < 0.0

    def test_sleep_until_reaches_absolute_deadline(self):
        clock = VirtualClock(time_scale=0.01)
        clock.sleep_until_ms(300.0)
        assert clock.now_ms() >= 300.0


class TestWorkloadGenerator:
    def test_sample_matches_simulator_sampling(self):
        trace = LoadTrace.constant(200.0, 2_000.0)
        gen = WorkloadGenerator(trace, slo_ms=100.0, seed=4)
        a = gen.sample()
        b = gen.sample()
        assert np.array_equal(a, b)
        assert a.shape[0] == pytest.approx(400, rel=0.2)

    def test_pacing_error_bounded_at_high_compression(self):
        """Absolute-deadline pacing does not accumulate drift.

        10k arrivals replayed at heavy compression (the paced serving
        loop sleeps to each next event with ``sleep_until_ms``): with
        relative sleeps, per-call overhead (sub-ms each) would compound
        into hundreds of ms of wall-clock drift by the last arrival;
        pacing to the absolute virtual deadline keeps the *max* wall lag
        at scheduling-jitter scale regardless of the arrival count.
        """
        n = 10_000
        duration_ms = 2_000.0
        arrivals = np.linspace(0.0, duration_ms, n, endpoint=False)
        scale = 0.001  # 1000x compression: 2s of trace in 2ms of wall
        clock = VirtualClock(time_scale=scale)
        max_lag_wall_ms = 0.0
        for t_ms in arrivals.tolist():
            clock.sleep_until_ms(t_ms)
            lag_virtual = clock.now_ms() - t_ms
            max_lag_wall_ms = max(max_lag_wall_ms, lag_virtual * scale)
        # Bound in *wall* milliseconds: generous for CI-noise, but far
        # below the O(n * per-call-overhead) a drifting pacer shows.
        assert max_lag_wall_ms < 250.0
