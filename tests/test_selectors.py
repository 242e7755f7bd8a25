"""Tests for the model selectors: RAMSIS and all baselines."""

import pytest

from repro.core.generator import PolicyGenerator, generate_policy
from repro.core.policy_set import PolicySet
from repro.errors import CapacityError
from repro.selectors import (
    FixedModelSelector,
    GreedyDeadlineSelector,
    InfaasAdaptedSelector,
    JellyfishPlusSelector,
    ModelSwitchingSelector,
    RamsisSelector,
    ResponseLatencyTable,
    profile_response_latency,
)
from repro.selectors.base import QueueScope, SelectorContext


def ctx(models, slo=100.0, workers=2, max_batch=8):
    return SelectorContext(
        model_set=models, slo_ms=slo, num_workers=workers, max_batch_size=max_batch
    )


class TestRamsisSelector:
    def test_pinned_policy(self, tiny_config):
        policy = generate_policy(tiny_config).policy
        sel = RamsisSelector(policy)
        sel.bind(ctx(tiny_config.model_set))
        action = sel.select(1, 100.0, 0.0, anticipated_load_qps=25.0)
        assert action == policy.action_for(1, 100.0)

    def test_policy_set_switches_with_load(self, tiny_config):
        gen = PolicyGenerator(tiny_config)
        ps = PolicySet.generate(gen, [5.0, 40.0], accuracy_gap_threshold=1.0)
        sel = RamsisSelector(ps)
        sel.bind(ctx(tiny_config.model_set))
        assert sel.current_policy(3.0).load_qps == 5.0
        assert sel.current_policy(20.0).load_qps == 40.0

    def test_per_worker_scope(self, tiny_config):
        policy = generate_policy(tiny_config).policy
        assert RamsisSelector(policy).queue_scope is QueueScope.PER_WORKER


class TestJellyfishPlus:
    def test_selects_most_accurate_sustaining_load(self, tiny_models):
        sel = JellyfishPlusSelector()
        sel.bind(ctx(tiny_models, slo=100.0, workers=2))
        # SLO/2 = 50: slow (l1=64) infeasible; medium l(2)=43 ->
        # throughput 46.5/worker -> 93 total; fast much higher.
        model, _ = sel.model_for_load(50.0)
        assert model.name == "medium"

    def test_falls_back_to_fastest_on_overload(self, tiny_models):
        sel = JellyfishPlusSelector()
        sel.bind(ctx(tiny_models, slo=100.0, workers=1))
        model, _ = sel.model_for_load(1e6)
        assert model.name == "fast"

    def test_adaptive_batch_cap(self, tiny_models):
        sel = JellyfishPlusSelector()
        sel.bind(ctx(tiny_models, slo=100.0, workers=2))
        action = sel.select(20, 100.0, 0.0, anticipated_load_qps=50.0)
        model = tiny_models.get(action.model)
        assert model.latency_ms(action.batch_size) <= 50.0

    def test_infeasible_slo_rejected(self, tiny_models):
        sel = JellyfishPlusSelector()
        with pytest.raises(CapacityError):
            sel.bind(ctx(tiny_models, slo=15.0))  # SLO/2 = 7.5 < fastest l(1)

    def test_central_scope(self):
        assert JellyfishPlusSelector.queue_scope is QueueScope.CENTRAL


class TestModelSwitching:
    def test_profile_table_shapes(self, tiny_models):
        table = profile_response_latency(
            tiny_models,
            loads_qps=[20.0, 60.0],
            num_workers=2,
            slo_ms=100.0,
            max_batch_size=8,
            duration_ms=2_000.0,
        )
        assert table.loads_qps == (20.0, 60.0)
        assert set(table.models()) == set(tiny_models.pareto_front().names)
        for series in table.p99_ms.values():
            assert len(series) == 2
            assert all(v > 0 for v in series)

    def test_p99_increases_with_load(self, tiny_models):
        table = profile_response_latency(
            tiny_models,
            loads_qps=[10.0, 80.0],
            num_workers=1,
            slo_ms=100.0,
            duration_ms=5_000.0,
        )
        # The slow model saturates at high load; p99 must not shrink much.
        assert table.p99_at("slow", 80.0) >= table.p99_at("slow", 10.0) - 1.0

    def test_lookup_rounds_up(self):
        table = ResponseLatencyTable(
            loads_qps=(10.0, 20.0), p99_ms={"m": (5.0, 50.0)}
        )
        assert table.p99_at("m", 15.0) == 50.0
        assert table.p99_at("m", 10.0) == 5.0
        assert table.p99_at("m", 99.0) == 50.0  # beyond grid: top cell

    def test_selector_picks_most_accurate_fitting_slo(self, tiny_models):
        table = ResponseLatencyTable(
            loads_qps=(50.0,),
            p99_ms={"fast": (30.0,), "medium": (60.0,), "slow": (220.0,)},
        )
        sel = ModelSwitchingSelector(table)
        sel.bind(ctx(tiny_models, slo=100.0))
        model, _ = sel.model_for_load(50.0)
        assert model.name == "medium"

    def test_selector_falls_back_to_fastest(self, tiny_models):
        table = ResponseLatencyTable(
            loads_qps=(50.0,),
            p99_ms={"fast": (300.0,), "medium": (400.0,), "slow": (500.0,)},
        )
        sel = ModelSwitchingSelector(table)
        sel.bind(ctx(tiny_models, slo=100.0))
        model, _ = sel.model_for_load(50.0)
        assert model.name == "fast"


class TestInfaas:
    def test_lowest_latency_meeting_target(self, tiny_models):
        sel = InfaasAdaptedSelector(accuracy_target=0.70)
        sel.bind(ctx(tiny_models, slo=100.0, workers=2))
        model, _ = sel.model_for_load(10.0)
        assert model.name == "medium"  # cheapest with accuracy >= 0.70

    def test_zero_target_picks_fastest(self, tiny_models):
        sel = InfaasAdaptedSelector(accuracy_target=0.0)
        sel.bind(ctx(tiny_models, slo=100.0, workers=2))
        model, _ = sel.model_for_load(10.0)
        assert model.name == "fast"

    def test_unreachable_target_falls_back(self, tiny_models):
        sel = InfaasAdaptedSelector(accuracy_target=0.99)
        sel.bind(ctx(tiny_models, slo=100.0, workers=2))
        model, _ = sel.model_for_load(10.0)
        assert model.name == "fast"

    def test_invalid_target_rejected(self):
        with pytest.raises(CapacityError):
            InfaasAdaptedSelector(accuracy_target=1.5)


class TestGreedy:
    def test_most_accurate_meeting_deadline(self, tiny_models):
        sel = GreedyDeadlineSelector()
        sel.bind(ctx(tiny_models, slo=100.0))
        action = sel.select(1, 100.0, 0.0, 10.0)
        assert action.model == "slow"  # l(1) = 64 <= 100

    def test_tight_slack_forces_faster_model(self, tiny_models):
        sel = GreedyDeadlineSelector()
        sel.bind(ctx(tiny_models, slo=100.0))
        action = sel.select(1, 30.0, 0.0, 10.0)
        assert action.model == "medium"  # l(1) = 23 <= 30 < slow's 64

    def test_impossible_deadline_served_late(self, tiny_models):
        sel = GreedyDeadlineSelector()
        sel.bind(ctx(tiny_models, slo=100.0))
        action = sel.select(3, 5.0, 0.0, 10.0)
        assert action.is_late
        assert action.model == "fast"
        assert action.batch_size == 3


class TestFixedModel:
    def test_adaptive_batching(self, tiny_models):
        sel = FixedModelSelector("fast")
        sel.bind(ctx(tiny_models, slo=100.0))
        action = sel.select(30, 100.0, 0.0, 10.0)
        model = tiny_models.get("fast")
        assert model.latency_ms(action.batch_size) <= 50.0

    def test_too_slow_model_serves_singly(self, tiny_models):
        sel = FixedModelSelector("slow")
        sel.bind(ctx(tiny_models, slo=100.0))  # SLO/2 = 50 < l(1) = 64
        action = sel.select(10, 100.0, 0.0, 10.0)
        assert action.batch_size == 1

    def test_budget_override(self, tiny_models):
        sel = FixedModelSelector("fast", batch_budget_ms=100.0)
        sel.bind(ctx(tiny_models, slo=100.0))
        action = sel.select(30, 100.0, 0.0, 10.0)
        assert action.batch_size == 8  # capped by context max batch

    def test_unbound_selector_raises(self, tiny_models):
        sel = FixedModelSelector("fast")
        with pytest.raises(RuntimeError):
            _ = sel.context
