"""The kernel observer's bulk feed rows against the per-record row oracle.

The observer builds its tracers' rows from the lifecycle capture, in
columns, and hands each tracer one batch at a time;
:mod:`tests.oracles.row_observer` writes the same rows one tracer call per
record, live, as the observer did before.  Served or simulated through
either, every ``shard-*.cols`` feed must decode to equal blocks (strings,
fixed columns, arg columns, overflow and headers but the wall-clock
anchor), every recorder's table must be equal (``n``, ``id`` and ``seq``
included), and a tracer that keeps no table must get the same calls in
the same order.  Sources: unpaced and paced serves (rejections, drops,
millisecond snapshot ticks, blocks split mid-drain), per-worker,
central, drop-late and balancer-assigned simulations, and a serve whose
selector raises mid-run.
"""

from __future__ import annotations

from itertools import count
from pathlib import Path
from typing import Any, List

import numpy as np
import pytest

from repro.arrivals.traces import LoadTrace
from repro.balancers import ShortestQueueBalancer
from repro.obs.aggregate import ShardTracer
from repro.obs.columns import EventTable, read_blocks
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import RecordingTracer, Tracer
from repro.runtime import AdmissionControl, ShardedController
from repro.selectors import GreedyDeadlineSelector, JellyfishPlusSelector
from repro.sim import simulator
from repro.sim.latency_model import DeterministicLatency
from repro.sim.simulator import Simulation, SimulationConfig
from tests.conftest import make_tiny_model_set
from tests.oracles.row_observer import RowLifecycleObserver, RowSimObserver

OVERLOAD = LoadTrace.constant(300.0, 1_500.0, name="feed-rows-overload")


def assert_tables_equal(got: EventTable, want: EventTable) -> None:
    assert got.strings == want.strings
    assert list(got.columns) == list(want.columns)
    for name, column in want.columns.items():
        assert got.columns[name].dtype == column.dtype, name
        assert np.array_equal(got.columns[name], column), name
    assert list(got.args) == list(want.args)
    for key, (data, present) in want.args.items():
        got_data, got_present = got.args[key]
        assert got_data.dtype == data.dtype, key
        assert np.array_equal(got_data, data), key
        assert np.array_equal(got_present, present), key
    assert got.overflow == want.overflow
    if want.key_order is None:
        assert got.key_order is None
    else:
        assert got.key_order[0] == want.key_order[0]
        assert np.array_equal(got.key_order[1], want.key_order[1])


def feed_blocks(path: Path) -> List[tuple]:
    blocks = []
    for header, table in read_blocks(path, "test", "torn block"):
        header = dict(header)
        del header["anchor_unix_ms"]
        blocks.append((header, table))
    return blocks


def assert_feeds_equal(got: Path, want: Path) -> int:
    """Every feed of ``got`` decodes block by block as ``want``'s; returns
    the number of blocks compared."""
    names = sorted(p.name for p in want.glob("shard-*.cols"))
    assert names and sorted(p.name for p in got.glob("shard-*.cols")) == names
    compared = 0
    for name in names:
        got_blocks, want_blocks = feed_blocks(got / name), feed_blocks(want / name)
        assert len(got_blocks) == len(want_blocks), name
        for (got_header, got_table), (header, table) in zip(got_blocks, want_blocks):
            assert got_header == header, name
            assert_tables_equal(got_table, table)
            compared += 1
    return compared


class FailingSelector(GreedyDeadlineSelector):
    """Greedy until its ``after``-th decision, which raises."""

    def __init__(self, after: int) -> None:
        super().__init__()
        self.left = after

    def select(self, **state):
        if self.left == 0:
            raise RuntimeError("selector failed")
        self.left -= 1
        return super().select(**state)


def serve(run_dir: Path, oracle: bool, overload: bool = False, paced: bool = False,
          interval: float = 3600.0, factory=None):
    kwargs = {}
    if overload:
        kwargs = dict(drop_late=True, admission=AdmissionControl(max_queue_depth=6))
    controller = ShardedController(
        make_tiny_model_set(), slo_ms=100.0, num_shards=2, workers_per_shard=2,
        latency_model=DeterministicLatency(), seed=11, paced=paced,
        time_scale=0.005, run_dir=str(run_dir), snapshot_interval_s=interval,
        **kwargs,
    )
    trace = LoadTrace.constant(1_000.0 if overload else 60.0, 1_500.0)
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr("repro.runtime.shard.LifecycleObserver", RowLifecycleObserver)
        return controller.serve(factory or (lambda s: GreedyDeadlineSelector()), trace)


@pytest.mark.parametrize(
    "overload,paced,interval",
    [(False, False, 3600.0), (True, False, 3600.0), (True, True, 0.001),
     (False, True, 0.001)],
    ids=["unpaced", "overload", "paced-ticks", "paced-ticks-light"],
)
def test_served_feeds_equal_row_oracle(tmp_path, overload, paced, interval):
    report = serve(tmp_path / "bulk", False, overload, paced, interval)
    oracle = serve(tmp_path / "rows", True, overload, paced, interval)
    assert report.metrics == oracle.metrics
    if overload:
        assert report.rejected and report.dropped
    assert assert_feeds_equal(tmp_path / "bulk", tmp_path / "rows") == 4


@pytest.mark.parametrize("block_rows", [1, 97])
def test_blocks_split_mid_drain(tmp_path, monkeypatch, block_rows):
    """One drain's rows span many blocks, split where the per-record
    writer's flushes fall."""
    monkeypatch.setattr("repro.obs.aggregate.BLOCK_ROWS", block_rows)
    serve(tmp_path / "bulk", False, overload=True)
    serve(tmp_path / "rows", True, overload=True)
    assert assert_feeds_equal(tmp_path / "bulk", tmp_path / "rows") > 4 * 3


def test_raising_serve_keeps_every_processed_record(tmp_path):
    """A selector that raises mid-serve: the feeds still hold every record
    processed before it, exactly as the per-record writer leaves them."""
    factory = lambda s: FailingSelector(40 + 7 * s)  # noqa: E731
    for name, oracle in (("bulk", False), ("rows", True)):
        with pytest.raises(RuntimeError, match="selector failed"):
            serve(tmp_path / name, oracle, overload=True, factory=factory)
    assert_feeds_equal(tmp_path / "bulk", tmp_path / "rows")
    full = serve(tmp_path / "full", False, overload=True)
    rows = sum(len(t) for p in (tmp_path / "bulk").glob("shard-*.cols")
               for _, t in feed_blocks(p))
    assert 0 < rows < sum(len(t) for p in (tmp_path / "full").glob("shard-*.cols")
                          for _, t in feed_blocks(p))
    assert full.submitted


SIMULATIONS = {
    "per-worker": (GreedyDeadlineSelector, {}),
    "central": (JellyfishPlusSelector, {}),
    "drop-late": (GreedyDeadlineSelector, {"drop_late": True, "num_workers": 3}),
    "balancer": (GreedyDeadlineSelector, {"balancer": ShortestQueueBalancer()}),
}


def simulate(source: str, tracer: Any, oracle: bool, registry=None):
    selector, extra = SIMULATIONS[source]
    config = SimulationConfig(
        model_set=make_tiny_model_set(), slo_ms=100.0, max_batch_size=8,
        tracer=tracer, registry=registry, **{"num_workers": 2, **extra},
    )
    with pytest.MonkeyPatch.context() as patch:
        if oracle:
            patch.setattr(simulator, "_SimObserver", RowSimObserver)
        return Simulation(config).run(selector(), OVERLOAD)


def recorder(cls=RecordingTracer, *args) -> RecordingTracer:
    """A recorder whose wall-clock spans read a fixed clock."""
    tracer = cls(*args)
    tracer._now_ms = count(0.0, 0.25).__next__
    return tracer


@pytest.mark.parametrize("source", SIMULATIONS)
def test_simulated_tables_equal_row_oracle(source):
    tables = []
    for oracle in (False, True):
        tracer, registry = recorder(), MetricsRegistry()
        simulate(source, tracer, oracle, registry)
        tables.append((tracer.table, registry.to_json_dict()))
    (got, got_registry), (want, want_registry) = tables
    assert_tables_equal(got, want)
    assert got_registry == want_registry
    names = {want.strings[i] for i in want.columns["name"].tolist()}
    assert {"arrival", "serve", "service_start", "completion", "queue_depth"} <= names


class CallLog(Tracer):
    """A tracer that keeps no table: the calls it gets, in order."""

    enabled = True

    def __init__(self) -> None:
        self.calls: List[tuple] = []

    def complete_row(self, name, track, start_ms, duration_ms, keys, values,
                     category="sim") -> None:
        self.calls.append(
            ("complete_row", name, track, start_ms, duration_ms, keys, values, category)
        )

    def instant_row(self, name, track, ts_ms, keys, values, category="sim") -> None:
        self.calls.append(("instant_row", name, track, ts_ms, keys, values, category))

    def counter(self, name, track, ts_ms, value) -> None:
        self.calls.append(("counter", name, track, ts_ms, value))


@pytest.mark.parametrize("source", SIMULATIONS)
def test_plain_tracer_gets_the_same_calls(source):
    logs = []
    for oracle in (False, True):
        log = CallLog()
        simulate(source, log, oracle)
        logs.append(log.calls)
    assert logs[0] and logs[0] == logs[1]


def test_forwarded_and_fed_simulations_equal_row_oracle(tmp_path, monkeypatch):
    """A batch reaches a recorder behind a forwarding tracer whole, and a
    feed used as a simulation's tracer splits it where the per-record
    writer's flushes fall, around the run's own wall-clock span."""
    monkeypatch.setattr("repro.obs.aggregate.BLOCK_ROWS", 50)
    inner = []
    for name, oracle in (("bulk", False), ("rows", True)):
        profiled = recorder()
        simulate("per-worker", PhaseProfiler(profiled), oracle)
        inner.append(profiled.table)
        (tmp_path / name).mkdir()
        feed = recorder(ShardTracer, tmp_path / name / "shard-0.cols", 0)
        simulate("central", feed, oracle)
        feed.close()
    assert_tables_equal(*inner)
    assert assert_feeds_equal(tmp_path / "bulk", tmp_path / "rows") > 3
