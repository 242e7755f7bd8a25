"""Value iteration's certified stop against the tolerance rule.

A load freezes once its greedy margin certifies the greedy table optimal
(:func:`repro.core.solvers.certified`) or once its residual drops below
the tolerance, whichever comes first.  The contract, against the
tolerance-only oracle in ``tests/oracles/tolerance_vi.py``:

- ``Policy.save`` output is byte-identical and §5.1 guarantees are
  bitwise equal, across task, workers, SLO, FLD resolution, batching,
  view, drop mode and arrival family;
- cells the rule does not apply to — duration-aware discounts, exact
  ties — keep the tolerance rule's values and sweep counts, and kernels
  whose rows do not sum to 1 are refused at construction;
- the kernel's margin is the dense enumeration's best-minus-runner-up
  gap, and it is the same in every stack.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.arrivals.distributions import (
    DeterministicArrivals,
    GammaArrivals,
    PoissonArrivals,
)
from repro.core.bank import StackedBankMDP, solve_stacked_bank
from repro.core.config import BatchingMode, TransitionView, WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.core.mdp import build_worker_mdp
from repro.core.solvers import certified, value_iteration
from repro.errors import ConfigurationError
from repro.experiments.tasks import image_task, text_task
from repro.profiles.models import ModelSet
from tests.conftest import make_tiny_model_set
from tests.oracles.dense_mdp import DenseMDP
from tests.oracles.loop_mdp import LoopWorkerMDP
from tests.oracles.tolerance_vi import converged_values, generate_tolerance_policy

TASKS = {"image": image_task, "text": text_task}
FAMILIES = {
    "poisson": PoissonArrivals,
    "gamma": lambda load: GammaArrivals(load, shape=0.7),
    "deterministic": DeterministicArrivals,
}


def _bytes(result, path) -> bytes:
    result.policy.save(path)
    return path.read_bytes()


def _tiny(**overrides) -> WorkerMDPConfig:
    base = dict(
        model_set=make_tiny_model_set(),
        slo_ms=80.0,
        arrivals=PoissonArrivals(30.0),
        num_workers=2,
        max_batch_size=4,
        max_queue=5,
        fld_resolution=8,
        batching=BatchingMode.VARIABLE,
    )
    base.update(overrides)
    return WorkerMDPConfig(**base)


def _all_twins() -> ModelSet:
    """Every tiny model twice: the best action of every state ties."""
    models = list(make_tiny_model_set())
    twins = [replace(m, name=f"{m.name}-twin") for m in models]
    return ModelSet(models + twins, task="tiny")


class TestSameArtifacts:
    @given(
        task=st.sampled_from(sorted(TASKS)),
        workers=st.integers(1, 4),
        slo_index=st.integers(0, 2),
        fld=st.integers(3, 12),
        per_worker_qps=st.floats(5.0, 60.0),
        batching=st.sampled_from(list(BatchingMode)),
        view=st.sampled_from(list(TransitionView)),
        drop_late=st.booleans(),
        family=st.sampled_from(sorted(FAMILIES)),
    )
    @settings(max_examples=30, deadline=None)
    def test_certified_matches_tolerance_stop(
        self, tmp_path_factory, task, workers, slo_index, fld,
        per_worker_qps, batching, view, drop_late, family,
    ):
        # The split and exact views build renewal families other than
        # Poisson poorly (they refuse gamma shapes below 1, whose rows sum
        # above 1, and deterministic chains can be periodic), so draws
        # stay on the views that solve.
        assume(family == "poisson" or view is TransitionView.ROUND_ROBIN_MARGINAL)
        spec = TASKS[task]()
        config = WorkerMDPConfig(
            model_set=spec.model_set,
            slo_ms=spec.slos_ms[slo_index],
            arrivals=FAMILIES[family](per_worker_qps * workers),
            num_workers=workers,
            max_batch_size=4,
            fld_resolution=fld,
            batching=batching,
            view=view,
            drop_late=drop_late,
        )
        fast = generate_policy(config)
        slow = generate_tolerance_policy(config)
        path = tmp_path_factory.mktemp("policy") / "p.json"
        assert _bytes(fast, path) == _bytes(slow, path)
        assert fast.guarantees == slow.guarantees
        assert fast.iterations <= slow.iterations

    def test_certified_stop_fires(self, tmp_path):
        """On a plain cell the table is certified long before the
        residual reaches the tolerance."""
        config = _tiny()
        fast = generate_policy(config)
        slow = generate_tolerance_policy(config)
        assert _bytes(fast, tmp_path / "a") == _bytes(slow, tmp_path / "b")
        assert fast.iterations < slow.iterations // 4

    def test_stacked_bank_matches_tolerance_stop(self, tmp_path):
        task = image_task()
        base = WorkerMDPConfig.default_poisson(
            task.model_set, slo_ms=task.middle_slo_ms, load_qps=20.0,
            num_workers=2, fld_resolution=10, max_batch_size=6,
        )
        configs = [base.with_load(q) for q in (20.0, 45.0, 70.0, 95.0)]
        for config, result in zip(configs, solve_stacked_bank(configs)):
            slow = generate_tolerance_policy(config)
            assert _bytes(result, tmp_path / "a") == _bytes(slow, tmp_path / "b")
            assert result.guarantees == slow.guarantees


class TestToleranceRuleKept:
    """Cells the certificate does not cover sweep exactly as before."""

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param(dict(duration_aware_discount=True), id="semi-mdp"),
            pytest.param(
                dict(duration_aware_discount=True, drop_late=True),
                id="semi-mdp-drop",
            ),
            pytest.param(
                dict(
                    duration_aware_discount=True,
                    view=TransitionView.EXACT_ROUND_ROBIN,
                    batching=BatchingMode.MAXIMAL,
                ),
                id="semi-mdp-exact",
            ),
            pytest.param(
                dict(model_set=_all_twins(), pareto_prune=False), id="exact-tie"
            ),
        ],
    )
    def test_iterations_and_values_unchanged(self, overrides, tmp_path):
        config = _tiny(**overrides)
        fast = generate_policy(config)
        slow = generate_tolerance_policy(config)
        assert fast.iterations == slow.iterations
        assert np.array_equal(fast.values, slow.values)
        assert _bytes(fast, tmp_path / "a") == _bytes(slow, tmp_path / "b")
        loop = value_iteration(LoopWorkerMDP(config))
        assert loop.iterations == slow.iterations

    def test_semi_mdp_reports_no_margin(self):
        mdp = build_worker_mdp(_tiny(duration_aware_discount=True))
        assert mdp.backup(mdp.initial_values()).margin is None

    def test_exact_tie_margin_is_zero(self):
        mdp = build_worker_mdp(_tiny(model_set=_all_twins(), pareto_prune=False))
        values = converged_values(mdp.config).values
        assert mdp.backup(values).margin == 0.0
        assert not certified(0.0, 0.0, 0.0, mdp.config.discount)

    def test_greedy_backup_reports_no_margin(self):
        mdp = build_worker_mdp(_tiny())
        assert mdp.backup(mdp.initial_values(), want_greedy=True).margin is None


class TestOffOneKernelsRejected:
    """Gamma shapes below 1 under the split and exact views build rows
    that sum above 1; construction refuses them, so every built cell's
    rows sum to 1 and the certificate applies."""

    @pytest.mark.parametrize(
        "view", [TransitionView.POISSON_SPLIT, TransitionView.EXACT_ROUND_ROBIN]
    )
    def test_bursty_gamma_raises(self, view):
        config = _tiny(view=view, arrivals=GammaArrivals(30.0, shape=0.7))
        for build in (build_worker_mdp, generate_policy):
            with pytest.raises(ConfigurationError) as info:
                build(config)
            message = str(info.value)
            assert view.name in message and "shape=0.7" in message
            assert "ROUND_ROBIN_MARGINAL" in message

    @pytest.mark.parametrize(
        "view, shape",
        [
            (TransitionView.ROUND_ROBIN_MARGINAL, 0.7),
            (TransitionView.POISSON_SPLIT, 1.5),
        ],
    )
    def test_stochastic_kernels_solve(self, view, shape):
        config = _tiny(view=view, arrivals=GammaArrivals(30.0, shape=shape))
        mdp = build_worker_mdp(config)
        assert mdp.backup(mdp.initial_values()).margin is not None
        result = generate_policy(config)
        assert result.iterations > 0


class TestMargin:
    @pytest.mark.parametrize("view", list(TransitionView))
    @pytest.mark.parametrize("drop_late", [False, True])
    def test_margin_is_dense_runner_up_gap(self, view, drop_late):
        config = _tiny(
            view=view, drop_late=drop_late, max_queue=4, fld_resolution=6
        )
        mdp = build_worker_mdp(config)
        dense = DenseMDP.from_worker_mdp(mdp)
        values = converged_values(config, tolerance=1e-3).values
        q = np.sort(dense.q_values(values), axis=0)
        gap = np.min(q[-1] - q[-2])
        assert mdp.backup(values).margin == pytest.approx(gap, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("batching", list(BatchingMode))
    def test_loop_oracle_margin_is_bitwise_equal(self, batching):
        config = _tiny(batching=batching)
        mdp, loop = build_worker_mdp(config), LoopWorkerMDP(config)
        values = mdp.initial_values()
        for _ in range(12):
            ours, theirs = mdp.backup(values), loop.backup(values)
            assert ours.margin == theirs.margin
            values = ours.values

    def test_stacked_margins_match_one_cell(self):
        configs = [_tiny().with_load(q) for q in (15.0, 30.0, 55.0)]
        bank = StackedBankMDP(configs)
        values = np.stack(
            [converged_values(c, tolerance=1e-2).values for c in configs]
        )
        bank._kernel.sweep(values, range(len(configs)))
        for cell, row, margin in zip(bank.cells, values, bank._kernel.margins):
            assert cell.backup(row).margin == margin


#: A signaling NaN: any arithmetic on it raises under
#: ``np.errstate(invalid="raise")``, where a quiet NaN or an infinity
#: would pass through unnoticed.
_SIGNALING_NAN = np.uint64(0x7FF4000000000001)


class TestFoldReadsOnlyWrittenRows:
    """The partial-drain fold touches no ``_fold_ev`` entry that the
    current solve has not written: rows below each entry's batch size
    are never written, and frozen loads stop being written."""

    @staticmethod
    def _solve(poison):
        configs = [_tiny().with_load(q) for q in (15.0, 30.0, 55.0)]
        bank = StackedBankMDP(configs)
        kernel = bank._kernel
        assert kernel._p_count
        if poison is not None:
            kernel._fold_ev.view(np.uint64)[...] = poison
        margins = []
        sweep = kernel.sweep

        def recorded(values, active):
            out = sweep(values, active)
            margins.append(kernel.margins.copy())
            return out

        kernel.sweep = recorded
        with np.errstate(all="raise"):
            stats = bank.solve()
        return stats, margins

    @pytest.mark.parametrize(
        "poison",
        [
            pytest.param(_SIGNALING_NAN, id="signaling-nan"),
            pytest.param(np.float64(np.nan).view(np.uint64), id="nan"),
            pytest.param(np.float64(np.inf).view(np.uint64), id="inf"),
        ],
    )
    def test_poisoned_buffer_solves_alike(self, poison):
        dirty, dirty_margins = self._solve(poison)
        clean, clean_margins = self._solve(None)
        # One load freezes before the others.
        assert len({s.iterations for s in clean}) > 1
        assert [s.iterations for s in dirty] == [s.iterations for s in clean]
        for d, c in zip(dirty, clean):
            assert d.values.tobytes() == c.values.tobytes()
        assert len(dirty_margins) == len(clean_margins)
        for d, c in zip(dirty_margins, clean_margins):
            assert d.tobytes() == c.tobytes()


def test_certified_values_are_not_the_fixed_point():
    """The declared trade: certified values stop short of the fixed point
    (residual histories still contract), while the policy is optimal."""
    config = _tiny()
    fast = generate_policy(config, record_residuals=True)
    converged = converged_values(config)
    assert len(fast.residuals) == fast.iterations
    assert fast.residuals[-1] > 1e-7
    assert not np.allclose(fast.values, converged.values, atol=1e-6)
