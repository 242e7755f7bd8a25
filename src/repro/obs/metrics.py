"""Metrics registry: counters, gauges, and streaming histograms.

Prometheus-flavoured naming (``snake_case`` metric names, optional label
sets) with two additions the experiments need:

- gauges keep their full ``(t_ms, value)`` **time series**, so the
  anticipated vs. realized load of :class:`~repro.sim.monitor.LoadMonitor`
  and per-worker queue depths can be plotted after a run, not just read
  at the end;
- histograms combine **fixed buckets** (exported Prometheus-style) with a
  bounded **reservoir sample** (Vitter's algorithm R, deterministic seed)
  for quantile queries; below the reservoir capacity the quantiles are
  exact.  A sorted mirror of the reservoir is kept up to date on every
  ``observe``, so a quantile query is O(1) rather than a sort — cheap
  enough to ask once per completion (the attributor's rolling tail
  threshold does).

The registry is passive: instrumented components call ``inc``/``set``/
``observe`` only when a registry was injected, so the default
(unobserved) configuration does no work.
"""

from __future__ import annotations

import collections
import math
import random
import zlib
from bisect import bisect_left, insort
from functools import partial, reduce
from operator import add
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
]

#: Default histogram buckets for millisecond latencies (upper bounds).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0, 5000.0, 10000.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} increment must be >= 0")
        self._value += amount

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (see :meth:`merge_state`)."""
        return {"value": self._value}

    def merge_state(self, state: Mapping) -> None:
        """Fold another counter's snapshot in: counts **sum**."""
        self.inc(float(state["value"]))


class Gauge:
    """Last-write-wins value that also retains its sample time series."""

    __slots__ = ("name", "labels", "_value", "_series", "_max_samples")

    def __init__(
        self, name: str, labels: LabelItems = (), max_samples: int = 100_000
    ) -> None:
        self.name = name
        self.labels = labels
        self._value = math.nan
        self._series: List[Tuple[float, float]] = []
        self._max_samples = max_samples

    def set(self, value: float, t_ms: Optional[float] = None) -> None:
        """Record a new value; with ``t_ms`` it is kept in the series."""
        self._value = float(value)
        if t_ms is not None and len(self._series) < self._max_samples:
            self._series.append((float(t_ms), float(value)))

    def set_many(self, values: Sequence[float], t_ms: Sequence[float]) -> None:
        """Record ``values[i]`` at ``t_ms[i]`` in order, exactly as one
        :meth:`set` each."""
        if not len(values):
            return
        self._value = float(values[-1])
        room = self._max_samples - len(self._series)
        if room > 0:
            self._series.extend(
                zip(map(float, t_ms[:room]), map(float, values[:room]))
            )

    @property
    def value(self) -> float:
        """Most recent value (NaN before the first ``set``)."""
        return self._value

    @property
    def series(self) -> Tuple[Tuple[float, float], ...]:
        """All timestamped samples recorded so far."""
        return tuple(self._series)

    def clear(self) -> None:
        """Drop the time series and return to the unset (NaN) value.

        Components that are reused across runs (e.g. the load monitor)
        call this from their own ``reset`` so stale samples from a prior
        run never leak into the next run's exports.
        """
        self._value = math.nan
        self._series.clear()

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (see :meth:`merge_state`)."""
        value = self._value
        return {
            "value": None if math.isnan(value) else value,
            "series": [list(point) for point in self._series],
        }

    def merge_state(self, state: Mapping) -> None:
        """Fold another gauge's snapshot in.

        The time series is extended (capped at ``max_samples``); the
        scalar value is last-write-wins, i.e. the merged-in snapshot
        overwrites ours when it carries a value.  Cross-process merges
        that must not lose per-worker values should merge each shard
        into a gauge labelled with the worker index instead (see
        :meth:`MetricsRegistry.merge_json_dict`).
        """
        for point in state.get("series", ()):
            t_ms, value = point
            if len(self._series) < self._max_samples:
                self._series.append((float(t_ms), float(value)))
        value = state.get("value")
        if value is not None:
            self._value = float(value)


class Histogram:
    """Streaming histogram: fixed buckets plus a quantile reservoir."""

    __slots__ = (
        "name", "labels", "_bounds", "_bucket_counts", "_count", "_sum",
        "_reservoir", "_ordered", "_neg_zeros", "_capacity", "_rng",
    )

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        reservoir_size: int = 4096,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.name = name
        self.labels = labels
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # +inf overflow bucket
        self._count = 0
        self._sum = 0.0
        self._reservoir: List[float] = []
        # The reservoir's multiset in ascending order (zeros stored as
        # +0.0), and how many -0.0 samples the reservoir holds; see
        # _ranked for why signed zeros need the reservoir itself.
        self._ordered: List[float] = []
        self._neg_zeros = 0
        self._capacity = reservoir_size
        # Deterministic reservoir: runs are reproducible for a fixed
        # observation order regardless of global random state.
        self._rng = random.Random(0x5EED ^ zlib.crc32(name.encode("utf-8")))

    def observe(self, value: float) -> None:
        """Fold one sample into buckets, sum, and the reservoir."""
        value = float(value)
        self._count += 1
        self._sum += value
        lo, hi = 0, len(self._bounds)
        while lo < hi:  # first bound >= value (bisect_left on bounds)
            mid = (lo + hi) // 2
            if self._bounds[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        self._bucket_counts[lo] += 1
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
            self._mirror_add(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self._capacity:
                self._mirror_remove(self._reservoir[slot])
                self._reservoir[slot] = value
                self._mirror_add(value)

    def observe_many(self, values: Iterable[float]) -> None:
        """Fold ``values`` in order, exactly as one :meth:`observe` each.

        Buckets, sum, reservoir, sorted mirror and the RNG stream end up
        as the per-sample calls leave them; the samples that fill the
        reservoir join the mirror with one sort instead of an insort
        each (equal mirror entries are the same float, zeros being
        stored as ``+0.0``, so the order is the insorts'), unless a NaN
        is involved.
        """
        values = list(map(float, values))
        if not values:
            return
        self._add_to_buckets_and_sum(values)
        reservoir = self._reservoir
        capacity = self._capacity
        room = max(0, capacity - len(reservoir))
        head = values[:room]
        ordered = self._ordered
        if head:
            reservoir.extend(head)
            if any(map(math.isnan, head)) or any(map(math.isnan, ordered)):
                for value in head:
                    self._mirror_add(value)
            else:
                if 0.0 in head:
                    self._neg_zeros += sum(
                        1 for v in head if v == 0.0 and math.copysign(1.0, v) < 0.0
                    )
                    head = [v or 0.0 for v in head]
                ordered.extend(head)
                ordered.sort()
        count = self._count + len(head)
        randrange = self._rng.randrange
        for value in values[room:]:
            count += 1
            slot = randrange(count)
            if slot < capacity:
                self._mirror_remove(reservoir[slot])
                reservoir[slot] = value
                self._mirror_add(value)
        self._count = count

    def observe_quantiles(
        self, values: Iterable[float], q: float, min_count: int = 0
    ) -> List[Optional[float]]:
        """Fold ``values`` in order, exactly as :meth:`observe_many`, and
        return the :meth:`quantile` ``q`` the histogram gave just before
        each value joined it (``None`` while it held fewer than
        ``min_count`` observations).

        The reservoir decides each replacement from the seeded RNG, so
        the quantiles cannot be read off in bulk: past ``min_count`` this
        is one ``quantile`` and one reservoir step per value.
        """
        values = list(map(float, values))
        skip = min(len(values), max(0, min_count - self._count))
        self.observe_many(values[:skip])
        out: List[Optional[float]] = [None] * skip
        rest = values[skip:]
        if not rest:
            return out
        self._add_to_buckets_and_sum(rest)
        quantile = self.quantile
        append = out.append
        reservoir = self._reservoir
        capacity = self._capacity
        randrange = self._rng.randrange
        mirror_add, mirror_remove = self._mirror_add, self._mirror_remove
        count = self._count
        for value in rest:
            append(quantile(q))
            count += 1
            if len(reservoir) < capacity:
                reservoir.append(value)
                mirror_add(value)
            else:
                slot = randrange(count)
                if slot < capacity:
                    mirror_remove(reservoir[slot])
                    reservoir[slot] = value
                    mirror_add(value)
        self._count = count
        return out

    def _add_to_buckets_and_sum(self, values: List[float]) -> None:
        """Count ``values`` into the buckets and add them to the sum, in
        order, as one :meth:`observe` each does."""
        buckets = self._bucket_counts
        slots = map(partial(bisect_left, self._bounds), values)
        for i, count in collections.Counter(slots).items():
            buckets[i] += count
        self._sum = reduce(add, values, self._sum)

    def _mirror_add(self, value: float) -> None:
        if value == 0.0 and math.copysign(1.0, value) < 0.0:
            self._neg_zeros += 1
        insort(self._ordered, value or 0.0)

    def _mirror_remove(self, value: float) -> None:
        """Remove one sample equal to ``value`` from the sorted mirror."""
        if value == 0.0 and math.copysign(1.0, value) < 0.0:
            self._neg_zeros -= 1
        ordered = self._ordered
        i = bisect_left(ordered, value)
        if i == len(ordered) or ordered[i] != value:  # NaN: find by identity
            i = ordered.index(value)
        del ordered[i]

    def _ranked(self, i: int) -> float:
        """The ``i``-th smallest reservoir sample, as ``sorted`` gives it.

        ``sorted`` is stable, so samples that compare equal keep their
        reservoir (slot) order.  The only finite floats that compare
        equal yet differ are ``0.0`` and ``-0.0``; the mirror stores
        every zero as ``+0.0`` and, when the reservoir holds a ``-0.0``,
        the sign is read off the ``k``-th zero in slot order.
        """
        value = self._ordered[i]
        if value == 0.0 and self._neg_zeros:
            k = i - bisect_left(self._ordered, 0.0)
            for sample in self._reservoir:
                if sample == 0.0:
                    if k == 0:
                        return sample
                    k -= 1
        return value

    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observations."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return 0.0 if self._count == 0 else self._sum / self._count

    def bucket_bounds(self) -> Tuple[float, ...]:
        """The finite bucket upper bounds (``+inf`` is implicit)."""
        return self._bounds

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs incl. +inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._bounds, self._bucket_counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, self._count))
        return out

    def quantile(self, q: float) -> float:
        """Reservoir quantile for ``q`` in [0, 1]; exact while the number
        of observations is within the reservoir capacity."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        n = len(self._ordered)
        if not n:
            return math.nan
        if n == 1:
            return self._ranked(0)
        rank = q * (n - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return self._ranked(lo)
        frac = rank - lo
        return self._ranked(lo) * (1.0 - frac) + self._ranked(hi) * frac

    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (see :meth:`merge_state`)."""
        return {
            "bounds": list(self._bounds),
            "bucket_counts": list(self._bucket_counts),
            "count": self._count,
            "sum": self._sum,
            "reservoir": list(self._reservoir),
        }

    def merge_state(self, state: Mapping) -> None:
        """Fold another histogram's snapshot in.

        Bucket counts, totals, and sums add; the reservoir is topped up
        deterministically (first-come first-kept) until capacity, so
        quantiles stay exact while the combined sample count fits.
        Merging histograms with different bucket bounds raises.
        """
        bounds = tuple(float(b) for b in state["bounds"])
        if bounds != self._bounds:
            raise ValueError(
                f"histogram {self.name!r} bucket bounds differ: "
                f"{bounds} vs {self._bounds}"
            )
        for i, n in enumerate(state["bucket_counts"]):
            self._bucket_counts[i] += int(n)
        self._count += int(state["count"])
        self._sum += float(state["sum"])
        for value in state["reservoir"]:
            if len(self._reservoir) >= self._capacity:
                break
            value = float(value)
            self._reservoir.append(value)
            self._mirror_add(value)


class MetricsRegistry:
    """Get-or-create home for all metrics of one run.

    Metrics are identified by ``(name, labels)``; asking twice returns the
    same object, so instrumentation sites never coordinate.  Registering
    one name as two different kinds raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        self._help: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Counter:
        """The counter registered under ``(name, labels)``."""
        return self._get(name, "counter", help, labels, lambda k: Counter(name, k))

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> Gauge:
        """The gauge registered under ``(name, labels)``."""
        return self._get(name, "gauge", help, labels, lambda k: Gauge(name, k))

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        """The histogram registered under ``(name, labels)``."""
        return self._get(
            name, "histogram", help, labels, lambda k: Histogram(name, k, buckets)
        )

    def _get(self, name, kind, help, labels, make):
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(
                f"metric {name!r} already registered as {known}, not {kind}"
            )
        self._kinds[name] = kind
        if help:
            self._help[name] = help
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = make(key[1])
            self._metrics[key] = metric
        return metric

    # ------------------------------------------------------------------
    # Introspection (exporters)
    # ------------------------------------------------------------------
    def kind_of(self, name: str) -> Optional[str]:
        """'counter' | 'gauge' | 'histogram', or None if unknown."""
        return self._kinds.get(name)

    def help_of(self, name: str) -> str:
        """The help string registered for ``name`` (may be empty)."""
        return self._help.get(name, "")

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._kinds)

    def collect(self, name: str) -> Iterable[object]:
        """Every metric instance (one per label set) under ``name``."""
        return [
            metric
            for (metric_name, _), metric in sorted(self._metrics.items())
            if metric_name == name
        ]

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Cross-process shipping (obs.aggregate)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """Serialize the whole registry to a JSON-compatible dict.

        The inverse is :meth:`merge_json_dict`, which folds a snapshot
        into an existing registry — together they let worker processes
        ship their metrics to the parent as plain JSON.
        """
        metrics = []
        for (name, labels), metric in sorted(self._metrics.items()):
            metrics.append(
                {
                    "name": name,
                    "kind": self._kinds[name],
                    "labels": [list(pair) for pair in labels],
                    "state": metric.state_dict(),  # type: ignore[attr-defined]
                }
            )
        return {
            "help": dict(self._help),
            "metrics": metrics,
        }

    def merge_json_dict(
        self,
        data: Mapping,
        extra_labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Fold a :meth:`to_json_dict` snapshot into this registry.

        Counters and histograms merge into the metric with the *same*
        label set (counts sum, histograms combine).  Gauges are
        last-write-wins by nature, so when ``extra_labels`` is given
        (e.g. ``{"worker": "3"}``) each gauge is republished under its
        original labels **plus** the extra ones — per-worker values stay
        distinguishable instead of clobbering each other.
        """
        extra = dict(extra_labels or {})
        for name, help_text in data.get("help", {}).items():
            self._help.setdefault(name, help_text)
        for entry in data["metrics"]:
            name = entry["name"]
            kind = entry["kind"]
            labels = {str(k): str(v) for k, v in entry["labels"]}
            if kind == "counter":
                self.counter(name, labels=labels).merge_state(entry["state"])
            elif kind == "histogram":
                bounds = entry["state"]["bounds"]
                hist = self.histogram(name, labels=labels, buckets=bounds)
                hist.merge_state(entry["state"])
            elif kind == "gauge":
                if extra:
                    labels.update(extra)
                self.gauge(name, labels=labels).merge_state(entry["state"])
            else:  # pragma: no cover - future-proofing
                raise ValueError(f"unknown metric kind {kind!r} for {name!r}")
