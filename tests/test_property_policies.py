"""Property-based tests on generated policies and guarantees.

Randomized model sets + loads: generated policies must always satisfy the
structural guarantees of §4-§5 (coverage, slack feasibility, probabilistic
bounds within [0, 1], monotone conservatism in load).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.distributions import PoissonArrivals
from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet


@st.composite
def random_model_sets(draw):
    """2-4 models with increasing accuracy and per-item latency."""
    count = draw(st.integers(min_value=2, max_value=4))
    accuracies = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.3, max_value=0.99),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    per_items = sorted(
        draw(
            st.lists(
                st.floats(min_value=2.0, max_value=60.0),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
    )
    models = [
        ModelProfile(
            name=f"m{i}",
            accuracy=accuracies[i],
            latency=LinearLatencyModel(
                overhead_ms=2.0, per_item_ms=per_items[i], std_ms=0.0
            ),
        )
        for i in range(count)
    ]
    return ModelSet(models, task="random")


class TestGeneratedPolicyProperties:
    @given(
        models=random_model_sets(),
        load=st.floats(min_value=2.0, max_value=80.0),
        slo=st.floats(min_value=60.0, max_value=300.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_policy_structurally_sound(self, models, load, slo):
        config = WorkerMDPConfig(
            model_set=models,
            slo_ms=slo,
            arrivals=PoissonArrivals(load),
            max_batch_size=6,
            fld_resolution=8,
        )
        result = generate_policy(config)
        policy = result.policy

        # Complete coverage.
        assert len(policy.states()) == policy.max_queue * len(policy.grid)

        # Every non-late action fits the quantized slack; every late action
        # drains the whole queue on the fastest model.
        fastest = models.fastest().name
        for (n, j), action in policy.states().items():
            model = models.get(action.model)
            if action.is_late:
                assert action.model == fastest
                assert action.batch_size == n
            else:
                assert (
                    model.latency_ms(action.batch_size)
                    <= policy.grid[j] + 1e-9
                )

        # Guarantees are probabilities.
        g = result.guarantees
        assert 0.0 <= g.expected_accuracy <= 1.0
        assert 0.0 <= g.expected_violation_rate <= 1.0

        # Accuracy bounded by the best model's accuracy.
        assert g.expected_accuracy <= models.most_accurate().accuracy + 1e-9

    @given(models=random_model_sets())
    @settings(max_examples=8, deadline=None)
    def test_more_load_never_higher_accuracy(self, models):
        slo = 200.0

        def accuracy(load):
            config = WorkerMDPConfig(
                model_set=models,
                slo_ms=slo,
                arrivals=PoissonArrivals(load),
                max_batch_size=6,
                fld_resolution=8,
            )
            return generate_policy(config).guarantees.expected_accuracy

        low, high = accuracy(3.0), accuracy(60.0)
        assert high <= low + 0.03

    @given(
        models=random_model_sets(),
        load=st.floats(min_value=2.0, max_value=60.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_json_roundtrip_preserves_actions(self, models, load, tmp_path_factory):
        from repro.core.policy import Policy

        config = WorkerMDPConfig(
            model_set=models,
            slo_ms=150.0,
            arrivals=PoissonArrivals(load),
            max_batch_size=5,
            fld_resolution=6,
        )
        policy = generate_policy(config, with_guarantees=False).policy
        data = policy.to_json_dict()
        restored = Policy.from_json_dict(data)
        assert restored.states() == policy.states()
