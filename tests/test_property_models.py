"""Property-based tests on model sets and Pareto pruning (§4.3.3)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet


@st.composite
def model_sets(draw):
    count = draw(st.integers(min_value=1, max_value=10))
    accuracies = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=0.99),
            min_size=count,
            max_size=count,
        )
    )
    per_items = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=200.0),
            min_size=count,
            max_size=count,
        )
    )
    overheads = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=20.0),
            min_size=count,
            max_size=count,
        )
    )
    models = [
        ModelProfile(
            name=f"m{i}",
            accuracy=accuracies[i],
            latency=LinearLatencyModel(
                overhead_ms=overheads[i], per_item_ms=per_items[i], std_ms=0.0
            ),
        )
        for i in range(count)
    ]
    return ModelSet(models)


class TestParetoProperties:
    @given(models=model_sets())
    @settings(max_examples=100, deadline=None)
    def test_front_members_mutually_non_dominating(self, models):
        front = models.pareto_front()
        for a in front:
            for b in front:
                if a is b:
                    continue
                dominates = (
                    b.latency_ms(1) <= a.latency_ms(1)
                    and b.accuracy >= a.accuracy
                    and (
                        b.latency_ms(1) < a.latency_ms(1)
                        or b.accuracy > a.accuracy
                    )
                )
                assert not dominates

    @given(models=model_sets())
    @settings(max_examples=100, deadline=None)
    def test_every_pruned_model_is_dominated(self, models):
        front_names = set(models.pareto_front().names)
        for candidate in models:
            if candidate.name in front_names:
                continue
            dominated = any(
                other.latency_ms(1) <= candidate.latency_ms(1)
                and other.accuracy >= candidate.accuracy
                and (
                    other.latency_ms(1) < candidate.latency_ms(1)
                    or other.accuracy > candidate.accuracy
                )
                for other in models
                if other is not candidate
            )
            assert dominated

    @given(models=model_sets())
    @settings(max_examples=60, deadline=None)
    def test_front_idempotent(self, models):
        front = models.pareto_front()
        assert front.pareto_front().names == front.names

    @given(models=model_sets())
    @settings(max_examples=60, deadline=None)
    def test_front_contains_extremes(self, models):
        front = models.pareto_front()
        # The most accurate model is never dominated on accuracy; the
        # overall-fastest is never dominated on latency (ties may swap
        # which representative survives, so compare values, not names).
        best_acc = models.most_accurate().accuracy
        best_lat = models.fastest().latency_ms(1)
        assert any(m.accuracy == best_acc for m in front)
        assert any(m.latency_ms(1) == best_lat for m in front)

    @given(models=model_sets(), factor=st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_latency_scaling_preserves_front(self, models, factor):
        assert (
            models.with_latency_scale(factor).pareto_front().names
            == models.pareto_front().names
        )

    @given(models=model_sets(), slo=st.floats(min_value=5.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_max_batch_monotone_in_slo(self, models, slo):
        from repro.errors import ProfileError

        def batch_at(s):
            try:
                return models.max_batch_size(s, cap=16)
            except ProfileError:
                return 0

        assert batch_at(slo) <= batch_at(slo * 2.0)
