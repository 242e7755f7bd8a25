"""Tests for the metrics registry (repro.obs.metrics)."""

import math
import random
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def sort_quantile(self, q: float) -> float:
    """The sort-per-call ``Histogram.quantile`` the sorted mirror replaced,
    kept verbatim as the oracle (usable as a drop-in method)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if not self._reservoir:
        return math.nan
    ordered = sorted(self._reservoir)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class SortOracleHistogram:
    """The reservoir half of ``Histogram`` without the sorted mirror:
    algorithm R with the same seeded stream, quantiles by sorting."""

    def __init__(self, name: str, capacity: int) -> None:
        self._reservoir = []
        self._capacity = capacity
        self._count = 0
        self._rng = random.Random(0x5EED ^ zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        self._count += 1
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    def merge_reservoir(self, values, count: int) -> None:
        self._count += count
        for value in values:
            if len(self._reservoir) >= self._capacity:
                break
            self._reservoir.append(value)

    quantile = sort_quantile


class TestCounter:
    def test_inc(self):
        c = Counter("queries")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("queries").inc(-1.0)


class TestGauge:
    def test_nan_before_first_set(self):
        assert math.isnan(Gauge("load").value)

    def test_last_write_wins(self):
        g = Gauge("load")
        g.set(10.0)
        g.set(20.0)
        assert g.value == 20.0

    def test_series_only_with_timestamps(self):
        g = Gauge("load")
        g.set(10.0)  # no t_ms: not in series
        g.set(20.0, t_ms=5.0)
        g.set(30.0, t_ms=6.0)
        assert g.series == ((5.0, 20.0), (6.0, 30.0))

    def test_series_bounded(self):
        g = Gauge("load", max_samples=3)
        for i in range(10):
            g.set(float(i), t_ms=float(i))
        assert len(g.series) == 3
        assert g.value == 9.0  # last value still tracked past the cap


class TestHistogram:
    def test_count_sum_mean(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        for v in (5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 555.0
        assert h.mean == 185.0

    def test_empty_behaviour(self):
        h = Histogram("lat", buckets=(10.0,))
        assert h.mean == 0.0
        assert math.isnan(h.quantile(0.5))

    def test_cumulative_buckets(self):
        h = Histogram("lat", buckets=(10.0, 100.0))
        for v in (1.0, 10.0, 11.0, 1000.0):
            h.observe(v)
        cumulative = dict(h.cumulative_buckets())
        # le=10 includes the boundary value (Prometheus: value <= bound).
        assert cumulative[10.0] == 2
        assert cumulative[100.0] == 3
        assert cumulative[math.inf] == 4

    def test_quantiles_exact_below_capacity(self):
        """Below the reservoir capacity, quantiles match numpy's linear
        interpolation exactly."""
        rng = np.random.default_rng(7)
        samples = rng.exponential(scale=40.0, size=1000)
        h = Histogram("lat")
        for v in samples:
            h.observe(float(v))
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            expected = float(np.quantile(samples, q))
            assert h.quantile(q) == pytest.approx(expected, rel=1e-12)

    def test_quantiles_approximate_above_capacity(self):
        """Past the capacity the reservoir is a uniform sample: quantiles
        stay close for a well-behaved distribution."""
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 100.0, size=20_000)
        h = Histogram("lat", reservoir_size=4096)
        for v in samples:
            h.observe(float(v))
        assert h.quantile(0.5) == pytest.approx(50.0, abs=5.0)
        assert h.quantile(0.9) == pytest.approx(90.0, abs=5.0)

    def test_reservoir_deterministic(self):
        def fill():
            h = Histogram("lat", reservoir_size=64)
            for i in range(1000):
                h.observe(float(i % 97))
            return h.quantile(0.5)

        assert fill() == fill()

    def test_quantile_range_checked(self):
        h = Histogram("lat")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_buckets_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("lat", buckets=())


class TestMetricsRegistry:
    def test_get_or_create_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_label_sets_are_distinct(self):
        reg = MetricsRegistry()
        c1 = reg.counter("queries", labels={"model": "resnet50"})
        c2 = reg.counter("queries", labels={"model": "alexnet"})
        assert c1 is not c2
        assert len(reg) == 2
        assert len(list(reg.collect("queries"))) == 2

    def test_label_order_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counter("q", labels={"x": "1", "y": "2"})
        b = reg.counter("q", labels={"y": "2", "x": "1"})
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_kind_and_help_introspection(self):
        reg = MetricsRegistry()
        reg.histogram("lat", help="latency in ms")
        assert reg.kind_of("lat") == "histogram"
        assert reg.help_of("lat") == "latency in ms"
        assert reg.kind_of("nope") is None
        assert reg.help_of("nope") == ""

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zeta")
        reg.gauge("alpha")
        assert reg.names() == ["alpha", "zeta"]

    def test_default_latency_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(
            DEFAULT_LATENCY_BUCKETS_MS
        )


class TestTailQuantiles:
    """Streaming-histogram tail quantiles vs numpy ground truth.

    Within reservoir capacity the interpolation formula is numpy's
    default (``linear``), so p99/p99.9 must match ``np.percentile``
    exactly.  Beyond capacity the reservoir subsamples; the estimate's
    *rank* error in the full empirical distribution must stay within
    ~3 binomial standard deviations for a 4096-slot reservoir
    (0.006 for p99, 0.003 for p99.9) — checked on a bimodal mixture and
    a heavy-tailed Pareto sample, the shapes tail latencies take.
    """

    def _rank_error(self, data, estimate, q):
        ordered = np.sort(data)
        rank = np.searchsorted(ordered, estimate, side="left") / len(ordered)
        return abs(rank - q)

    def test_exact_within_capacity_matches_numpy(self):
        rng = np.random.default_rng(42)
        data = rng.lognormal(mean=3.0, sigma=1.0, size=4000)
        h = Histogram("lat")
        for x in data:
            h.observe(float(x))
        for q in (0.5, 0.9, 0.99, 0.999):
            assert h.quantile(q) == pytest.approx(
                np.percentile(data, q * 100.0), rel=1e-12
            )

    def test_bimodal_tail_beyond_capacity(self):
        rng = np.random.default_rng(7)
        fast = rng.normal(20.0, 2.0, size=45_000)
        slow = rng.normal(400.0, 30.0, size=5_000)
        data = np.abs(np.concatenate([fast, slow]))
        rng.shuffle(data)
        h = Histogram("lat")
        for x in data:
            h.observe(float(x))
        assert h.count == 50_000
        assert self._rank_error(data, h.quantile(0.99), 0.99) < 0.006
        assert self._rank_error(data, h.quantile(0.999), 0.999) < 0.003
        # The bimodal structure itself must be visible: p99 sits in the
        # slow mode, far from the fast mode's mass.
        assert h.quantile(0.99) > 300.0

    def test_heavy_tail_beyond_capacity(self):
        rng = np.random.default_rng(19)
        # Pareto (alpha=1.5): infinite variance, the adversarial case
        # for any subsampled quantile sketch.
        data = 10.0 * (1.0 + rng.pareto(1.5, size=50_000))
        h = Histogram("lat")
        for x in data:
            h.observe(float(x))
        assert self._rank_error(data, h.quantile(0.99), 0.99) < 0.006
        assert self._rank_error(data, h.quantile(0.999), 0.999) < 0.003

    def test_attribution_exemplar_threshold_uses_histogram(self):
        # The attribution engine's rolling exemplar threshold is this
        # histogram's quantile: deterministic for a fixed feed order.
        from tests.oracles.attribution_fold import HookAttributor

        a = HookAttributor(exemplar_warmup=100, exemplar_capacity=8)
        b = HookAttributor(exemplar_warmup=100, exemplar_capacity=8)
        rng = np.random.default_rng(3)
        latencies = rng.uniform(1.0, 100.0, size=500)
        for attributor in (a, b):
            for i, lat in enumerate(latencies):
                attributor.observe_completion(i, 0, "m", float(lat), True)
        assert (
            a.to_json_dict()["exemplars"] == b.to_json_dict()["exemplars"]
        )


#: Finite floats with many repeats, both signed zeros and subnormals, so
#: ties and zero-sign ordering are exercised alongside ordinary values.
_samples = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([1.0, -1.0, 2.5, 5e-324, -5e-324, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_step = st.one_of(
    st.tuples(st.just("observe"), _samples),
    st.tuples(st.just("merge"), st.lists(_samples, max_size=5)),
)


def _same_float(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSortedMirror:
    """``quantile`` reads a sorted mirror of the reservoir instead of
    sorting it; results must equal the sort oracle bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.sampled_from([1, 8, 64]), data=st.data())
    def test_quantile_and_state_match_sort_oracle(self, capacity, data):
        # Up to 10x capacity steps, so reservoir slots get replaced.
        size = data.draw(st.integers(0, 10 * capacity))
        steps = data.draw(st.lists(_step, min_size=size, max_size=size))
        h = Histogram("lat", reservoir_size=capacity)
        oracle = SortOracleHistogram("lat", capacity)
        for kind, arg in steps:
            if kind == "observe":
                h.observe(arg)
                oracle.observe(arg)
            else:
                donor = Histogram("donor", reservoir_size=len(arg))
                for value in arg:
                    donor.observe(value)
                state = donor.state_dict()
                h.merge_state(state)
                oracle.merge_reservoir(state["reservoir"], state["count"])
            for q in (0.0, 0.5, 0.95, 0.99, 1.0):
                assert _same_float(h.quantile(q), oracle.quantile(q))
        assert h.state_dict()["reservoir"] == oracle._reservoir
        assert [math.copysign(1.0, v) for v in h.state_dict()["reservoir"]] == [
            math.copysign(1.0, v) for v in oracle._reservoir
        ]
        assert h.count == oracle._count

    def test_replaced_negative_zero_keeps_sign_bookkeeping(self):
        h = Histogram("z", reservoir_size=2)
        for value in (-0.0, 0.0, 3.0, 3.0, 0.0, -0.0, 0.0, 1.0) * 8:
            h.observe(value)
            for q in (0.0, 0.5, 1.0):
                assert _same_float(h.quantile(q), sort_quantile(h, q))

    def test_evicted_nan_leaves_mirror_consistent(self):
        # NaN compares unequal to everything, so its eviction cannot be
        # located by bisection; the mirror must still drop exactly it.
        h = Histogram("nan", reservoir_size=4)
        evicted = False
        for value in [1.0, 2.0, math.nan, 3.0] + [float(i) for i in range(4, 64)]:
            h.observe(value)
            if not any(math.isnan(v) for v in h.state_dict()["reservoir"]):
                evicted = h.count > 4
                for q in (0.0, 0.5, 1.0):
                    assert _same_float(h.quantile(q), sort_quantile(h, q))
        assert evicted


#: Bulk-fold inputs: every bucket bound exactly, both signed zeros, NaN,
#: infinities, integers (batch sizes) and arbitrary floats.
_bulk_value = st.one_of(
    st.sampled_from(DEFAULT_LATENCY_BUCKETS_MS),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.integers(-3, 20_000),
    st.floats(),
)


def _same_state(a, b) -> bool:
    """Equal histogram state, floats compared bit-for-bit (NaN == NaN)."""
    if isinstance(a, float) or isinstance(b, float):
        return _same_float(float(a), float(b))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same_state(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return a == b


def _filler(seed: int, size: int) -> list:
    """``size`` seeded samples, the specials sprinkled among them."""
    rng = random.Random(seed)
    specials = list(DEFAULT_LATENCY_BUCKETS_MS) + [0.0, -0.0, math.nan]
    return [
        rng.choice(specials) if rng.random() < 0.1 else rng.uniform(-5.0, 12_000.0)
        for _ in range(size)
    ]


class TestObserveMany:
    """``observe_many`` is a bulk ``observe``: buckets, sum, reservoir, its
    sorted mirror and the RNG stream end up exactly as the loop leaves
    them, whatever the batch boundaries and a later ``merge_state``."""

    @settings(max_examples=60, deadline=None)
    @given(
        prefill=st.sampled_from([0, 1, 4_000, 4_095, 4_096, 5_000]),
        seed=st.integers(0, 2**16),
        chunks=st.lists(st.lists(_bulk_value, max_size=200), max_size=4),
        donor=st.lists(_bulk_value, max_size=20),
    )
    def test_equals_observe_loop(self, prefill, seed, chunks, donor):
        bulk, loop = Histogram("lat"), Histogram("lat")
        # The prefill itself is one bulk call, so it crosses the
        # 4096-slot reservoir inside ``observe_many``; so do the chunks
        # that follow a prefill just under capacity.
        for batch in [_filler(seed, prefill), *chunks, []]:
            bulk.observe_many(batch)
            for value in batch:
                loop.observe(value)
            self._assert_same(bulk, loop)
        source = Histogram("donor")
        for value in donor:
            source.observe(value)
        bulk.merge_state(source.state_dict())
        loop.merge_state(source.state_dict())
        self._assert_same(bulk, loop)
        tail = _filler(seed + 1, 50)
        bulk.observe_many(tail)
        for value in tail:
            loop.observe(value)
        self._assert_same(bulk, loop)

    def test_empty_input_is_a_no_op(self):
        h = Histogram("lat")
        before = (h.state_dict(), h._rng.getstate())
        h.observe_many([])
        h.observe_many(iter(()))
        assert (h.state_dict(), h._rng.getstate()) == before

    @staticmethod
    def _assert_same(bulk: Histogram, loop: Histogram) -> None:
        assert _same_state(bulk.state_dict(), loop.state_dict())
        assert _same_state(bulk._ordered, loop._ordered)
        assert bulk._neg_zeros == loop._neg_zeros
        assert bulk._rng.getstate() == loop._rng.getstate()
        for q in (0.0, 0.5, 0.99, 1.0):
            assert _same_float(bulk.quantile(q), loop.quantile(q))


class TestObserveQuantiles:
    """``observe_quantiles`` is ``quantile`` then ``observe`` per value:
    the same thresholds, and the histogram left as the loop leaves it."""

    @settings(max_examples=60, deadline=None)
    @given(
        prefill=st.sampled_from([0, 3, 4_090, 4_096, 5_000]),
        seed=st.integers(0, 2**16),
        values=st.lists(_bulk_value, max_size=300),
        q=st.sampled_from([0.0, 0.5, 0.99, 1.0]),
        min_count=st.sampled_from([-1, 0, 2, 200, 4_100]),
    )
    def test_equals_quantile_observe_loop(self, prefill, seed, values, q, min_count):
        bulk, loop = Histogram("lat"), Histogram("lat")
        filler = _filler(seed, prefill)
        bulk.observe_many(filler)
        loop.observe_many(filler)
        got = bulk.observe_quantiles(values, q, min_count)
        want = []
        for value in values:
            want.append(loop.quantile(q) if loop.count >= min_count else None)
            loop.observe(value)
        assert [t is None for t in got] == [t is None for t in want]
        assert _same_state(
            [t for t in got if t is not None], [t for t in want if t is not None]
        )
        TestObserveMany._assert_same(bulk, loop)
