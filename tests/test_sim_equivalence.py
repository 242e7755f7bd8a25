"""Golden equivalence suite: the dispatch kernel vs the reference loop.

:meth:`Simulation.run` drives the one production event kernel
(:mod:`repro.sim.kernel`); ``tests/oracles/sim_loop.py`` keeps the
simulator's original per-query-object loop as its oracle.  The two must
return **float-identical** :class:`~repro.sim.metrics.SimulationMetrics`
in every configuration — same IEEE operation order, same heap
tie-breaking, same RNG consumption — and an observed run (tracer,
registry, attributor) must emit the oracle's records and return the same
metrics as an unobserved one.  Every test asserts exact equality, not
approximate closeness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.traces import LoadTrace
from repro.balancers import RoundRobinBalancer, ShortestQueueBalancer
from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.core.policy import Action
from repro.errors import SimulationError
from repro.obs.attribution import LatencyAttributor
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from repro.selectors import (
    GreedyDeadlineSelector,
    JellyfishPlusSelector,
    RamsisSelector,
)
from repro.selectors.base import ModelSelector, QueueScope
from repro.sim.latency_model import DeterministicLatency, StochasticLatency
from repro.sim.monitor import LoadMonitor, OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig
from tests.conftest import make_tiny_model_set
from tests.oracles.attribution_fold import HookAttributor
from tests.oracles.sim_loop import run_reference

TRACE = LoadTrace.constant(120.0, 8_000.0, name="eq-const")


def make_config(**cfg) -> SimulationConfig:
    cfg.setdefault("model_set", make_tiny_model_set())
    cfg.setdefault("slo_ms", 100.0)
    cfg.setdefault("num_workers", 2)
    cfg.setdefault("max_batch_size", 8)
    return SimulationConfig(**cfg)


def run_kernel(selector_factory, trace=TRACE, arrival_times=None, **cfg):
    """One fresh simulation (fresh config, selector, monitor)."""
    return Simulation(make_config(**cfg)).run(
        selector_factory(), trace, arrival_times=arrival_times
    )


def run_oracle(selector_factory, trace=TRACE, arrival_times=None, **cfg):
    return run_reference(
        make_config(**cfg), selector_factory(), trace, arrival_times=arrival_times
    )


def assert_matches_oracle(selector_factory, **cfg):
    metrics = run_kernel(selector_factory, **cfg)
    assert metrics == run_oracle(selector_factory, **cfg)
    return metrics


def tiny_policy(num_workers=2, load_qps=60.0, slo_ms=100.0):
    config = WorkerMDPConfig.default_poisson(
        make_tiny_model_set(),
        slo_ms=slo_ms,
        load_qps=load_qps,
        num_workers=num_workers,
        fld_resolution=10,
        max_batch_size=8,
    )
    return generate_policy(config, with_guarantees=False).policy


class TestEngineEquivalence:
    def test_ramsis_per_worker(self):
        policy = tiny_policy()
        metrics = assert_matches_oracle(lambda: RamsisSelector(policy))
        assert metrics.total_queries > 0

    def test_greedy_per_worker(self):
        assert_matches_oracle(GreedyDeadlineSelector)

    def test_jellyfish_central(self):
        metrics = assert_matches_oracle(JellyfishPlusSelector)
        assert metrics.decisions > 0

    def test_drop_late(self):
        # Overload so late actions occur and the drop path is exercised.
        overload = LoadTrace.constant(400.0, 5_000.0, name="eq-overload")
        metrics = assert_matches_oracle(
            GreedyDeadlineSelector, trace=overload, drop_late=True
        )
        assert metrics.violation_rate > 0.0

    def test_drop_late_central(self):
        overload = LoadTrace.constant(400.0, 5_000.0, name="eq-overload")
        assert_matches_oracle(JellyfishPlusSelector, trace=overload, drop_late=True)
        # Jellyfish+ never returns a late action; this selector does, so
        # central drops (the dropping worker goes back to the idle pool)
        # are exercised too.
        for workers in (1, 3):
            metrics = assert_matches_oracle(
                lambda: LoadKeyedSelector(QueueScope.CENTRAL, 8),
                trace=overload,
                drop_late=True,
                slo_ms=30.0,
                num_workers=workers,
            )
            assert metrics.model_query_counts.get("<dropped>", 0) > 0

    def test_heterogeneous_worker_speeds(self):
        assert_matches_oracle(
            GreedyDeadlineSelector, worker_speed_factors=(1.0, 1.7)
        )

    def test_stochastic_latency(self):
        # The stochastic model draws once per dispatch in dispatch order,
        # so RNG consumption must line up exactly.
        metrics = assert_matches_oracle(
            GreedyDeadlineSelector,
            latency_model=StochasticLatency(seed=5),
            seed=7,
        )
        assert metrics.total_queries > 0

    def test_shortest_queue_balancer(self):
        assert_matches_oracle(
            GreedyDeadlineSelector, balancer=ShortestQueueBalancer()
        )

    def test_oracle_monitor(self):
        policy = tiny_policy()
        assert_matches_oracle(
            lambda: RamsisSelector(policy), monitor=OracleLoadMonitor(TRACE)
        )

    def test_no_response_tracking(self):
        assert_matches_oracle(GreedyDeadlineSelector, track_responses=False)

    def test_per_worker_selector_list(self):
        policy = tiny_policy()

        def factory():
            return [RamsisSelector(policy), GreedyDeadlineSelector()]

        assert_matches_oracle(factory)

    def test_single_worker(self):
        assert_matches_oracle(GreedyDeadlineSelector, num_workers=1)

    def test_explicit_arrivals(self):
        arrivals = np.array([0.0, 1.0, 1.0, 2.5, 40.0, 41.0, 300.0])
        assert_matches_oracle(
            GreedyDeadlineSelector,
            trace=LoadTrace.constant(10.0, 400.0),
            arrival_times=arrivals,
        )


class TestEngineDispatch:
    def test_default_engine_matches_oracle(self):
        fast = Simulation(make_config()).run(
            GreedyDeadlineSelector(), TRACE, engine="fast"
        )
        assert run_kernel(GreedyDeadlineSelector) == fast
        assert fast == run_oracle(GreedyDeadlineSelector)

    def test_unknown_engine_rejected(self):
        # One kernel: the retired "auto" / "reference" routes are gone too.
        for engine in ("warp", "auto", "reference"):
            with pytest.raises(SimulationError):
                Simulation(make_config()).run(
                    GreedyDeadlineSelector(), TRACE, engine=engine
                )


def span_records(tracer):
    """The tracer's simulated spans (the wall-clock ``event_loop`` phase
    span is excluded), without ids."""
    return [
        (s.name, s.track, s.start_ms, s.duration_ms, s.category, s.args)
        for s in tracer.spans
        if s.name != "event_loop"
    ]


class TestObservedRuns:
    def test_registry_does_not_change_metrics(self):
        observed = run_kernel(GreedyDeadlineSelector, registry=MetricsRegistry())
        assert observed == run_kernel(GreedyDeadlineSelector)

    def test_tracer_does_not_change_metrics(self):
        observed = run_kernel(GreedyDeadlineSelector, tracer=RecordingTracer())
        assert observed == run_kernel(GreedyDeadlineSelector)

    @pytest.mark.parametrize(
        "selector, extra",
        [
            (GreedyDeadlineSelector, {}),
            (JellyfishPlusSelector, {"drop_late": True}),
            (GreedyDeadlineSelector, {"drop_late": True, "num_workers": 3}),
            (GreedyDeadlineSelector, {"balancer": ShortestQueueBalancer()}),
            # Late actions on the central queue: central drop records.
            (
                lambda: LoadKeyedSelector(QueueScope.CENTRAL, 8),
                {"drop_late": True, "num_workers": 3},
            ),
        ],
    )
    def test_records_match_oracle(self, selector, extra):
        overload = LoadTrace.constant(300.0, 3_000.0, name="eq-obs")
        runs = []
        for run, cls in ((run_kernel, LatencyAttributor), (run_oracle, HookAttributor)):
            tracer = RecordingTracer()
            registry = MetricsRegistry()
            attributor = cls(slo_ms=100.0, record_queries=True)
            metrics = run(
                selector,
                trace=overload,
                tracer=tracer,
                registry=registry,
                attributor=attributor,
                **extra,
            )
            runs.append((metrics, tracer, registry, attributor))
        (m1, t1, r1, a1), (m2, t2, r2, a2) = runs
        assert m1 == m2
        assert t1.events == t2.events
        assert span_records(t1) == span_records(t2)
        assert r1.to_json_dict() == r2.to_json_dict()
        assert a1.to_json_dict() == a2.to_json_dict()
        assert m1 == run_kernel(selector, trace=overload, **extra)

    def test_event_loop_span_wraps_the_run(self):
        tracer = RecordingTracer()
        metrics = run_kernel(GreedyDeadlineSelector, tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "event_loop"]
        assert span.track == "engine"
        assert span.args["queries"] == metrics.total_queries


class TestRunValidation:
    def test_max_batch_size_validated(self):
        with pytest.raises(SimulationError):
            SimulationConfig(
                model_set=make_tiny_model_set(),
                slo_ms=100.0,
                num_workers=1,
                max_batch_size=0,
            )

    def test_unsorted_arrivals_are_sorted(self):
        trace = LoadTrace.constant(10.0, 1_000.0)
        arrivals = np.array([5.0, 0.0, 12.0, 3.0, 3.0, 90.0, 44.0])
        shuffled = run_kernel(
            GreedyDeadlineSelector, trace=trace, arrival_times=arrivals
        )
        ordered = run_kernel(
            GreedyDeadlineSelector, trace=trace, arrival_times=np.sort(arrivals)
        )
        assert shuffled == ordered
        assert shuffled == run_oracle(
            GreedyDeadlineSelector, trace=trace, arrival_times=arrivals
        )

    def test_two_dimensional_arrivals_rejected(self):
        with pytest.raises(SimulationError):
            run_kernel(
                GreedyDeadlineSelector, arrival_times=np.zeros((3, 2))
            )


# ----------------------------------------------------------------------
# Property: kernel == oracle across the configuration space
# ----------------------------------------------------------------------
class LoadKeyedSelector(ModelSelector):
    """Deterministic selector whose choices depend on every input, so the
    monitor, slack and queue state all steer the run; marks late actions
    when the earliest deadline has passed, and logs every decision's
    inputs."""

    name = "load-keyed"

    def __init__(self, scope: QueueScope, cap: int) -> None:
        self.queue_scope = scope
        self._cap = cap
        self._tick = 0
        self.calls = []

    def select(self, queue_length, earliest_slack_ms, now_ms, anticipated_load_qps):
        self.calls.append(
            (queue_length, earliest_slack_ms, now_ms, anticipated_load_qps)
        )
        self._tick += 1
        late = earliest_slack_ms < 0.0
        key = self._tick + int(min(anticipated_load_qps, 1e9)) + late
        model = ("fast", "medium", "slow")[key % 3]
        # May exceed the queue: the engine clamps it.
        batch = 1 + key % self._cap
        return Action(model=model, batch_size=batch, is_late=late)


class DoubledMonitor(LoadMonitor):
    """A custom monitor: the kernel must call it through its methods."""

    def anticipated_load_qps(self, now_ms: float) -> float:
        return 2.0 * super().anticipated_load_qps(now_ms)


PROPERTY_TRACE = LoadTrace(
    interval_ms=500.0, qps=(40.0, 160.0, 90.0, 300.0, 20.0), name="eq-prop"
)

MONITORS = {
    "default": lambda: None,
    "window": lambda: LoadMonitor(window_ms=250.0),
    "oracle": lambda: OracleLoadMonitor(PROPERTY_TRACE),
    "custom": lambda: DoubledMonitor(window_ms=300.0),
}


@st.composite
def configurations(draw):
    workers = draw(st.integers(1, 6))
    speeds = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.sampled_from([0.5, 1.0, 1.7, 2.3]),
                min_size=workers,
                max_size=workers,
            ).map(tuple),
        )
    )
    return {
        "num_workers": workers,
        "scope": draw(st.sampled_from([QueueScope.PER_WORKER, QueueScope.CENTRAL])),
        "sqf": draw(st.booleans()),
        "monitor": draw(st.sampled_from(sorted(MONITORS))),
        "worker_speed_factors": speeds,
        "drop_late": draw(st.booleans()),
        "stochastic": draw(st.booleans()),
        "track_responses": draw(st.booleans()),
        "observers": draw(
            st.sampled_from(["none", "tracer", "registry", "attributor", "all"])
        ),
        "cap": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 50)),
        "slo_ms": draw(st.sampled_from([30.0, 80.0, 150.0])),
    }


class TestKernelMatchesOracleProperty:
    @given(
        spec=configurations(),
        # Gaps drawn so equal-time events, and arrivals exactly one
        # monitor window (250 / 300 / 500 ms) apart, are common.
        gaps=st.lists(
            st.sampled_from([0.0, 2.5, 25.0, 50.0, 125.0, 250.0, 300.0, 500.0]),
            min_size=1,
            max_size=120,
        ),
        shuffle=st.integers(0, 2),
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_equals_oracle(self, spec, gaps, shuffle):
        arrivals = np.cumsum(gaps)
        if shuffle:  # unsorted input takes the sorting path
            arrivals = np.random.default_rng(shuffle).permutation(arrivals)
        def config(observers, attributor=LatencyAttributor):
            cfg = dict(
                model_set=make_tiny_model_set(),
                slo_ms=spec["slo_ms"],
                num_workers=spec["num_workers"],
                max_batch_size=8,
                balancer=(
                    ShortestQueueBalancer() if spec["sqf"] else RoundRobinBalancer()
                ),
                monitor=MONITORS[spec["monitor"]](),
                seed=spec["seed"],
                track_responses=spec["track_responses"],
                drop_late=spec["drop_late"],
                worker_speed_factors=spec["worker_speed_factors"],
                latency_model=(
                    StochasticLatency(seed=spec["seed"])
                    if spec["stochastic"]
                    else DeterministicLatency()
                ),
            )
            if observers in ("tracer", "all"):
                cfg["tracer"] = RecordingTracer()
            if observers in ("registry", "all"):
                cfg["registry"] = MetricsRegistry()
            if observers in ("attributor", "all"):
                cfg["attributor"] = attributor(
                    slo_ms=spec["slo_ms"], record_queries=True
                )
            return SimulationConfig(**cfg)

        def selector():
            return LoadKeyedSelector(spec["scope"], spec["cap"])

        observers = spec["observers"]
        observed_cfg = config(observers)
        kernel_selector = selector()
        observed = Simulation(observed_cfg).run(
            kernel_selector, PROPERTY_TRACE, arrival_times=arrivals
        )
        oracle_cfg = config(observers, HookAttributor)
        oracle_selector = selector()
        oracle = run_reference(
            oracle_cfg, oracle_selector, PROPERTY_TRACE, arrival_times=arrivals
        )
        # Every decision saw the same queue, slack, clock and load.
        assert kernel_selector.calls == oracle_selector.calls
        plain = Simulation(config("none")).run(
            selector(), PROPERTY_TRACE, arrival_times=arrivals
        )
        assert observed == oracle
        assert plain == observed
        assert observed.total_queries == arrivals.size
        if observed_cfg.tracer is not None:
            assert observed_cfg.tracer.events == oracle_cfg.tracer.events
            assert span_records(observed_cfg.tracer) == span_records(
                oracle_cfg.tracer
            )
        if observed_cfg.registry is not None:
            assert (
                observed_cfg.registry.to_json_dict()
                == oracle_cfg.registry.to_json_dict()
            )
        if observed_cfg.attributor is not None:
            assert (
                observed_cfg.attributor.to_json_dict()
                == oracle_cfg.attributor.to_json_dict()
            )
