"""The kernel observer's lifecycle capture against its per-event oracle.

A run-dir shard records its feed rows as constant key tuples plus value
tuples and folds the registry's ``sim_*`` series from its lifecycle
capture in bulk.  :class:`tests.oracles.lifecycle_observer.DictLifecycleObserver`
builds an args dict per row and feeds the registry one event at a time,
as the observer did before.  Served through either, the merged artifacts
must be byte-equal, and the auditors folded from the capture must end
as the per-record hook oracle fed live by the args-dict observer.
"""

import pytest

from repro.arrivals.distributions import PoissonArrivals
from repro.arrivals.traces import LoadTrace
from repro.core.config import WorkerMDPConfig
from repro.core.generator import generate_policy
from repro.core.guarantees import stationary_occupancy
from repro.core.mdp import build_worker_mdp
from repro.obs.aggregate import merge_run_dir, write_merged_artifacts
from repro.obs.audit import GuaranteeAuditor
from repro.runtime import AdmissionControl, ShardedController
from repro.selectors import GreedyDeadlineSelector, RamsisSelector
from repro.sim.latency_model import DeterministicLatency
from tests.conftest import make_tiny_model_set
from tests.oracles.audit_fold import HookAuditor
from tests.oracles.lifecycle_observer import DictLifecycleObserver

ARTIFACTS = ("merged.cols", "metrics.json", "metrics.prom", "attribution.json")


@pytest.fixture(scope="module")
def audited_policy():
    config = WorkerMDPConfig(
        model_set=make_tiny_model_set(),
        slo_ms=100.0,
        arrivals=PoissonArrivals(25.0),
        num_workers=1,
        max_batch_size=8,
        fld_resolution=10,
    )
    generated = generate_policy(config)
    occupancy = stationary_occupancy(
        build_worker_mdp(config), generated.policy
    ).decision_conditional()
    return config, generated, occupancy


def _serve(run_dir, audited_policy, overload, auditor=GuaranteeAuditor):
    config, generated, occupancy = audited_policy
    auditors = [
        auditor(
            generated.guarantees, policy=generated.policy,
            expected_occupancy=occupancy,
        )
        for _ in range(2)
    ]
    kwargs = {}
    if overload:
        trace = LoadTrace.constant(1_000.0, 500.0)
        kwargs = dict(drop_late=True, admission=AdmissionControl(max_queue_depth=6))
        factory = lambda s: GreedyDeadlineSelector()  # noqa: E731
    else:
        trace = LoadTrace.constant(60.0, 3_000.0)
        factory = lambda s: RamsisSelector(generated.policy)  # noqa: E731
    controller = ShardedController(
        config.model_set, slo_ms=config.slo_ms, num_shards=2,
        workers_per_shard=2, latency_model=DeterministicLatency(), seed=11,
        paced=False, run_dir=str(run_dir),
        # Longer than the serve: neither observer is asked for a tick.
        snapshot_interval_s=3600.0, **kwargs,
    )
    report = controller.serve(factory, trace, auditors=auditors)
    write_merged_artifacts(merge_run_dir(run_dir), run_dir)
    return report, [a.finalize().to_json_dict() for a in auditors]


@pytest.mark.parametrize("overload", [False, True], ids=["audited", "overload"])
def test_capture_artifacts_equal_dict_oracle(
    tmp_path, monkeypatch, audited_policy, overload
):
    production = _serve(tmp_path / "capture", audited_policy, overload)
    monkeypatch.setattr(
        "repro.runtime.shard.LifecycleObserver", DictLifecycleObserver
    )
    oracle = _serve(tmp_path / "oracle", audited_policy, overload, HookAuditor)
    assert production[0].metrics == oracle[0].metrics
    assert production[1] == oracle[1]
    if overload:
        assert production[0].rejected and production[0].dropped
    for name in ARTIFACTS:
        assert (tmp_path / "capture" / name).read_bytes() == (
            tmp_path / "oracle" / name
        ).read_bytes(), name
    for pid in (4, 5):
        name = f"metrics-{pid}.json"
        assert (tmp_path / "capture" / name).read_bytes() == (
            tmp_path / "oracle" / name
        ).read_bytes(), name
