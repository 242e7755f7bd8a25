"""repro — a reproduction of RAMSIS (EuroSys '24).

*Model Selection for Latency-Critical Inference Serving*,
Mendoza, Romero, Trippel — Markov-decision-process-based model selection
and scheduling for inference serving systems that accounts for stochastic
query inter-arrival patterns, not just load.

Quick start::

    from repro import (
        PoissonArrivals, WorkerMDPConfig, generate_policy,
        build_image_model_set,
    )

    models = build_image_model_set()
    config = WorkerMDPConfig.default_poisson(
        models, slo_ms=150.0, load_qps=40.0, num_workers=1,
    )
    result = generate_policy(config)
    print(result.guarantees.expected_accuracy)

See README.md for the architecture overview and DESIGN.md for the mapping
between paper sections and modules.
"""

from repro.arrivals import (
    ArrivalDistribution,
    DeterministicArrivals,
    GammaArrivals,
    LoadTrace,
    PoissonArrivals,
    synthesize_twitter_trace,
)
from repro.core import (
    Action,
    BatchingMode,
    Discretization,
    Policy,
    PolicyGenerator,
    PolicySet,
    TimeGrid,
    TransitionView,
    WorkerMDP,
    WorkerMDPConfig,
    build_worker_mdp,
    evaluate_policy,
    generate_policy,
    value_iteration,
)
from repro.profiles import (
    LatencyProfile,
    LinearLatencyModel,
    ModelProfile,
    ModelSet,
    build_image_model_set,
    build_synthetic_model_set,
    build_text_model_set,
    build_three_model_image_set,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # arrivals
    "ArrivalDistribution",
    "PoissonArrivals",
    "GammaArrivals",
    "DeterministicArrivals",
    "LoadTrace",
    "synthesize_twitter_trace",
    # profiles
    "LatencyProfile",
    "LinearLatencyModel",
    "ModelProfile",
    "ModelSet",
    "build_image_model_set",
    "build_text_model_set",
    "build_synthetic_model_set",
    "build_three_model_image_set",
    # core
    "Action",
    "BatchingMode",
    "Discretization",
    "TransitionView",
    "TimeGrid",
    "WorkerMDPConfig",
    "WorkerMDP",
    "build_worker_mdp",
    "Policy",
    "PolicySet",
    "PolicyGenerator",
    "generate_policy",
    "evaluate_policy",
    "value_iteration",
]
