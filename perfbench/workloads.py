"""The benchmark's three workloads: ``bank``, ``replay`` and ``pipeline``.

Each workload drives the program only through its public entry points and
times each layer from outside, around those calls.  A workload provides

- ``setup()``: builds the inputs (profiles, trace, arrivals) and acquires
  the policies the op serves; the harness repeats it and reports the
  median;
- ``op(state)``: one repetition, returning its part walls and outputs;
  ``timed_op(state)`` times it in reference-host seconds (:mod:`host`),
  after ``before_op(state)`` housekeeping;
- ``between(state, out)``: side samples after each repetition, outside
  its wall, so they spread over the whole run;
- ``fingerprint(out)``: the op's deterministic result, which every
  repetition must reproduce exactly;
- ``check_op(state, out, reference)``: per-repetition correctness checks
  against the warm-up's fingerprint;
- ``finish(state, reps, last)``: the closing checks and the end-to-end
  metrics, from every repetition's float walls and the last full output;
- ``traced_op(state)``: the op again with the bench-owned probes of
  :mod:`ledger` attached, returning its wall and the layer ledger.

Every check returns a list of failure messages (empty when it passed).
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from host import HostClock
from ledger import (
    SweepCountingGenerator,
    SwitchCounter,
    TimedSelector,
    WaitTap,
    core_ledger,
    selector_totals,
    timed_factory,
)
from repro.arrivals.traces import LoadTrace, synthesize_twitter_trace
from repro.cache import PolicyCache
from repro.core.config import WorkerMDPConfig
from repro.core.generator import PolicyGenerator, generate_policy
from repro.core.guarantees import stationary_occupancy
from repro.core.mdp import build_worker_mdp
from repro.core.policy_set import PolicySet
from repro.experiments.tasks import image_task
from repro.obs.aggregate import merge_run_dir, write_merged_artifacts
from repro.obs.attribution import LatencyAttributor
from repro.obs.audit import GuaranteeAuditor
from repro.obs.profile import PhaseProfiler
from repro.obs.reconstruct import reconstruct_metrics
from repro.obs.report import render_run_report
from repro.profiles.latency import LinearLatencyModel
from repro.profiles.models import ModelProfile, ModelSet
from repro.runtime import ShardedController
from repro.runtime.workload import WorkloadGenerator
from repro.selectors import RamsisSelector
from repro.sim.latency_model import DeterministicLatency
from repro.sim.monitor import OracleLoadMonitor
from repro.sim.simulator import Simulation, SimulationConfig

#: Solver tolerance of every policy the benchmark generates or caches.
TOLERANCE = 1e-7
#: Batch-size cap of every policy, serve and simulation.
MAX_BATCH = 8
#: Relative tolerance of the sharded-vs-fast-simulator float comparison.
SIM_REL_TOL = 1e-12

_FLOAT_FIELDS = (
    "violation_rate",
    "accuracy_per_satisfied_query",
    "mean_response_ms",
    "p50_response_ms",
    "p99_response_ms",
    "mean_batch_size",
)
_COUNT_FIELDS = ("total_queries", "satisfied_queries", "decisions")


def bench_models() -> ModelSet:
    """The deterministic three-model zoo of the runtime benches."""
    return ModelSet(
        [
            ModelProfile(
                name="fast",
                accuracy=0.60,
                latency=LinearLatencyModel(2.0, 8.0, std_ms=0.0),
                family="bench",
            ),
            ModelProfile(
                name="medium",
                accuracy=0.75,
                latency=LinearLatencyModel(3.0, 20.0, std_ms=0.0),
                family="bench",
            ),
            ModelProfile(
                name="slow",
                accuracy=0.90,
                latency=LinearLatencyModel(4.0, 60.0, std_ms=0.0),
                family="bench",
            ),
        ],
        task="bench",
    )


def twitter_trace(duration_s: float, mean_qps: float) -> LoadTrace:
    """The paper's Twitter shape over ``duration_s``, scaled to a mean load.

    The shape keeps its 30 intervals at any duration and its fixed shape
    seed: the benchmark seed varies only the Poisson arrivals inside it.
    """
    trace = synthesize_twitter_trace(
        duration_s=duration_s, interval_s=duration_s / 30.0
    )
    return trace.scaled(mean_qps / trace.mean_qps, name="twitter-bench")


def shard_layout(total_workers: int, cpus: int) -> Tuple[int, int]:
    """(shards, workers per shard): at most one shard per CPU, up to two."""
    shards = max(1, min(2, cpus, total_workers))
    while total_workers % shards:
        shards -= 1
    return shards, total_workers // shards


def sharded_controller(models, slo_ms, workers, cpus, seed, **kwargs) -> ShardedController:
    """An unpaced deterministic-latency controller over ``workers`` workers."""
    shards, per_shard = shard_layout(workers, cpus)
    return ShardedController(
        models,
        slo_ms=slo_ms,
        num_shards=shards,
        workers_per_shard=per_shard,
        max_batch_size=MAX_BATCH,
        latency_model=DeterministicLatency(),
        seed=seed,
        paced=False,
        **kwargs,
    )


def fast_simulation(models, slo_ms, workers, trace, **kwargs) -> Simulation:
    """A simulation matching :func:`sharded_controller` (trace-oracle load)."""
    return Simulation(
        SimulationConfig(
            model_set=models,
            slo_ms=slo_ms,
            num_workers=workers,
            max_batch_size=MAX_BATCH,
            monitor=OracleLoadMonitor(trace),
            **kwargs,
        )
    )


def compare_metrics(served, simulated) -> Tuple[List[str], float]:
    """Counts exactly equal, floats within :data:`SIM_REL_TOL` relative.

    Returns the failures and the largest relative float difference seen.
    """
    failures = []
    worst = 0.0
    for name in _COUNT_FIELDS:
        a, b = getattr(served, name), getattr(simulated, name)
        if a != b:
            failures.append(f"{name}: served {a} != simulated {b}")
    if dict(served.model_query_counts) != dict(simulated.model_query_counts):
        failures.append("model_query_counts differ between served and simulated")
    for name in _FLOAT_FIELDS:
        a, b = getattr(served, name), getattr(simulated, name)
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale else 0.0
        worst = max(worst, rel)
        if rel > SIM_REL_TOL:
            failures.append(f"{name}: served {a!r} vs simulated {b!r} (rel {rel:.2e})")
    return failures, worst


def closed_accounting(report) -> List[str]:
    """``submitted == rejected + dropped + served`` and one record each."""
    failures = []
    if report.submitted != report.rejected + report.dropped + report.served:
        failures.append(
            f"accounting open: submitted {report.submitted} != rejected "
            f"{report.rejected} + dropped {report.dropped} + served {report.served}"
        )
    if report.metrics.total_queries != report.submitted:
        failures.append(
            f"{report.metrics.total_queries} terminal records for "
            f"{report.submitted} submitted queries"
        )
    return failures


def timed(fn, *args, **kwargs) -> Tuple[float, Any]:
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - start, out


def served_quality(metrics) -> Dict[str, float]:
    return {
        "accuracy": metrics.accuracy_per_satisfied_query,
        "slo_attainment": metrics.satisfied_queries / metrics.total_queries,
    }


def runtime_ledger(report, wait_tap: WaitTap) -> Dict[str, float]:
    m = report.metrics
    return {
        "runtime.batches": m.decisions,
        "runtime.mean_batch": m.mean_batch_size,
        "runtime.dropped": report.dropped,
        "runtime.rejected": report.rejected,
        "runtime.served_frac": report.served / report.submitted,
        "runtime.queue_wait_ms_p99": float(np.percentile(wait_tap.waits, 99)),
    }


class Workload:
    """Shared plumbing: seed, work directory and the shard layout."""

    name = ""
    setup_repeats = 3

    def __init__(self, seed: int, workdir: Path, cpus: int, clock: HostClock) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cpus = cpus
        #: Times every end-to-end sample in reference-host seconds.
        self.clock = clock
        #: Cold solve walls of every setup repetition (replay, pipeline).
        self.solve_walls: List[float] = []
        #: Serve and simulation walls timed between repetitions.
        self.serve_walls: List[float] = []
        self.sim_walls: List[float] = []

    def before_op(self, state) -> None:
        """Untimed housekeeping before each repetition."""

    def timed_op(self, state) -> Dict[str, Any]:
        """The op, paired with the host reference: ``wall`` (normalized),
        ``raw_wall`` and the host ``scale`` join its output."""
        wall, out = self.clock.timed(self.op, state)
        out.update(wall=wall, raw_wall=self.clock.last_raw_s, scale=self.clock.last_scale)
        return out

    def fingerprint(self, out):
        """The op's deterministic result (default: the served metrics)."""
        return out["report"].metrics

    def between(self, state, out) -> None:
        """Side measurements after each repetition, outside its wall."""

    def sample_arrivals(self, trace: LoadTrace, slo_ms: float) -> Tuple[float, np.ndarray]:
        return timed(WorkloadGenerator(trace, slo_ms, seed=self.seed).sample)


# ----------------------------------------------------------------------
# bank: cold §6 policy-set generation
# ----------------------------------------------------------------------
class Bank(Workload):
    """Cold refined policy set for the 26-model image task.

    The op is one in-process ``PolicySet.generate``: a stacked solve of the
    32-load initial grid, then per-load refinement rounds, with no pool
    and no disk cache.  ``qps`` and ``sim_qps`` come from a deployment
    check between repetitions, outside the op's wall: the generated set
    serves a Twitter-shaped 20-100 q/s trace on its two workers, sharded
    and in the fast simulator.
    """

    name = "bank"
    workers = 2
    grid = tuple(float(q) for q in np.linspace(20.0, 100.0, 32))
    deploy_duration_s = 1800.0
    #: Deployment serves and simulations per repetition.
    deploy_repeats = 2

    def setup(self) -> Dict[str, Any]:
        task = image_task()
        config = WorkerMDPConfig.default_poisson(
            task.model_set,
            slo_ms=task.middle_slo_ms,
            load_qps=self.grid[0],
            num_workers=self.workers,
            fld_resolution=30,
            max_batch_size=MAX_BATCH,
        )
        trace = synthesize_twitter_trace(
            duration_s=self.deploy_duration_s,
            interval_s=self.deploy_duration_s / 30.0,
            min_qps=self.grid[0],
            max_qps=self.grid[-1],
        )
        sample_s, arrivals = self.sample_arrivals(trace, config.slo_ms)
        return {
            "models": task.model_set,
            "config": config,
            "trace": trace,
            "arrivals": arrivals,
            "sample_s": sample_s,
        }

    def op(self, st) -> Dict[str, Any]:
        policy_set = PolicySet.generate(PolicyGenerator(st["config"]), self.grid)
        return {"set": policy_set}

    def fingerprint(self, out):
        return tuple(
            (p.load_qps, p.metadata.expected_accuracy, p.metadata.expected_violation_rate)
            for p in out["set"]
        )

    def check_op(self, st, out, reference) -> List[str]:
        if reference is not None and self.fingerprint(out) != reference:
            return ["policy set differs from the warm-up's"]
        return []

    def _spot_check(self, st, policy_set: PolicySet) -> List[str]:
        """Cells of the set byte-for-byte against per-load ``generate_policy``."""
        rng = np.random.default_rng(self.seed)
        grid = set(self.grid)
        on_grid = [q for q in policy_set.loads_qps if q in grid]
        midpoints = [q for q in policy_set.loads_qps if q not in grid]
        if not midpoints:
            return ["the refinement inserted no midpoint"]
        picks = list(rng.choice(on_grid, size=2, replace=False))
        picks.append(midpoints[int(rng.integers(len(midpoints)))])
        failures = []
        for load in picks:
            expected = generate_policy(st["config"].with_load(float(load))).policy
            a, b = self.workdir / "cell-set.json", self.workdir / "cell-solo.json"
            policy_set.policy_for(float(load)).save(a)
            expected.save(b)
            if a.read_bytes() != b.read_bytes():
                failures.append(f"cell {load:g} q/s differs from generate_policy")
        return failures

    def between(self, st, out) -> None:
        """Deploy the generated set: sharded serves and fast simulations."""
        detached = PolicySet(list(out["set"]))
        slo_ms = st["config"].slo_ms
        for _ in range(self.deploy_repeats):
            gc.collect()
            controller = sharded_controller(
                st["models"], slo_ms, self.workers, self.cpus, self.seed
            )
            wall, self.deployed = self.clock.timed(
                controller.serve,
                lambda s: RamsisSelector(detached),
                st["trace"],
                arrivals=st["arrivals"],
            )
            self.serve_walls.append(wall)
            gc.collect()
            sim = fast_simulation(st["models"], slo_ms, self.workers, st["trace"])
            wall, self.simulated = self.clock.timed(
                sim.run,
                RamsisSelector(detached),
                st["trace"],
                arrival_times=st["arrivals"],
                engine="fast",
            )
            self.sim_walls.append(wall)

    def finish(self, st, reps, last) -> Tuple[Dict[str, float], List[str]]:
        policy_set = last["set"]
        failures = self._spot_check(st, policy_set)
        report = self.deployed
        failures += closed_accounting(report)
        mismatch, worst = compare_metrics(report.metrics, self.simulated)
        failures += mismatch
        queries = report.submitted
        accuracies = [p.metadata.expected_accuracy for p in policy_set]
        violations = [p.metadata.expected_violation_rate for p in policy_set]
        return {
            "solve_s": statistics.median(r["wall"] for r in reps),
            "qps": queries / statistics.median(self.serve_walls),
            "sim_qps": queries / statistics.median(self.sim_walls),
            "accuracy": statistics.fmean(accuracies),
            "slo_attainment": 1.0 - statistics.fmean(violations),
            "info.policies": len(policy_set),
            "info.deploy_queries": queries,
            "info.sim_max_rel_diff": worst,
        }, failures

    def traced_op(self, st) -> Tuple[float, Dict[str, float]]:
        profiler = PhaseProfiler()
        generator = SweepCountingGenerator(st["config"], tracer=profiler)
        wall, policy_set = timed(PolicySet.generate, generator, self.grid)
        core = core_ledger(profiler)
        cells = len(policy_set)
        return wall, {
            "core.build_s": core["core.build_s"],
            "core.sweep_s": core["core.sweep_s"],
            "core.evaluate_s": core["core.evaluate_s"],
            "core.sweeps": generator.sweeps,
            "core.cells": cells,
            "core.cells_stacked": cells - core["per_load_cells"],
            "arrivals.sample_s": st["sample_s"],
            "arrivals.queries": len(st["arrivals"]),
        }


# ----------------------------------------------------------------------
# replay: unobserved sharded serving, then the fast simulator
# ----------------------------------------------------------------------
class Replay(Workload):
    """A long overloaded Twitter-shaped replay with no observers.

    Eight workers serve about 190k queries from a load-adaptive policy
    set with drop-late on; the trace peaks above what the workers can
    serve within the SLO.  The op serves the arrivals on the sharded
    runtime, then replays the same arrivals through the fast simulator.
    """

    name = "replay"
    slo_ms = 100.0
    workers = 8
    per_worker_qps = 100.0
    duration_s = 240.0
    policy_loads = 8

    def setup(self) -> Dict[str, Any]:
        models = bench_models()
        trace = twitter_trace(self.duration_s, self.per_worker_qps * self.workers)
        config = WorkerMDPConfig.default_poisson(
            models,
            slo_ms=self.slo_ms,
            load_qps=trace.mean_qps,
            num_workers=self.workers,
            fld_resolution=12,
            max_batch_size=MAX_BATCH,
        )
        loads = [
            float(q) for q in np.linspace(trace.min_qps, trace.peak_qps, self.policy_loads)
        ]
        st = {"models": models, "trace": trace, "config": config, "loads": loads}
        # Detached from its generator: the serve never solves inline.
        st["policy_set"] = PolicySet(list(self._solve(st)))
        st["sample_s"], st["arrivals"] = self.sample_arrivals(trace, self.slo_ms)
        return st

    def _solve(self, st) -> PolicySet:
        solve_s, policy_set = self.clock.timed(
            PolicySet.generate, PolicyGenerator(st["config"]), st["loads"]
        )
        self.solve_walls.append(solve_s)
        return policy_set

    def between(self, st, out) -> None:
        """One more cold solve, so ``solve_s`` samples the whole run."""
        gc.collect()
        self._solve(st)

    def _controller(self, st) -> ShardedController:
        return sharded_controller(
            st["models"], self.slo_ms, self.workers, self.cpus, self.seed,
            drop_late=True,
        )

    def _simulation(self, st) -> Simulation:
        return fast_simulation(
            st["models"], self.slo_ms, self.workers, st["trace"], drop_late=True
        )

    def op(self, st) -> Dict[str, Any]:
        policy_set = st["policy_set"]
        # Raw part walls; the harness's host scale for the op normalizes them.
        serve_s, report = timed(
            self._controller(st).serve,
            lambda s: RamsisSelector(policy_set),
            st["trace"],
            arrivals=st["arrivals"],
        )
        sim_s, simulated = timed(
            self._simulation(st).run,
            RamsisSelector(policy_set),
            st["trace"],
            arrival_times=st["arrivals"],
            engine="fast",
        )
        return {"serve_s": serve_s, "sim_s": sim_s, "report": report, "sim": simulated}

    def check_op(self, st, out, reference) -> List[str]:
        failures = closed_accounting(out["report"])
        failures += compare_metrics(out["report"].metrics, out["sim"])[0]
        if reference is not None and out["report"].metrics != reference:
            failures.append("served metrics differ from the warm-up's")
        return failures

    def finish(self, st, reps, last) -> Tuple[Dict[str, float], List[str]]:
        report = last["report"]
        queries = report.submitted
        return {
            "solve_s": statistics.median(self.solve_walls),
            "qps": queries / statistics.median(r["serve_s"] * r["scale"] for r in reps),
            "sim_qps": queries / statistics.median(r["sim_s"] * r["scale"] for r in reps),
            **served_quality(report.metrics),
            "info.queries": queries,
            "info.dropped": report.dropped,
            "info.sim_max_rel_diff": compare_metrics(report.metrics, last["sim"])[1],
        }, []

    def traced_op(self, st) -> Tuple[float, Dict[str, float]]:
        policy_set = st["policy_set"]
        selectors: List[TimedSelector] = []
        counters: List[SwitchCounter] = []

        def wrapped(_shard=None) -> TimedSelector:
            counter = SwitchCounter()
            counters.append(counter)
            selector = TimedSelector(RamsisSelector(policy_set, on_policy_change=counter))
            selectors.append(selector)
            return selector

        start = time.perf_counter()
        serve_s, report = timed(
            self._controller(st).serve, wrapped, st["trace"], arrivals=st["arrivals"]
        )
        serve_selectors = list(selectors)
        sim_s, simulated = timed(
            self._simulation(st).run,
            wrapped(),
            st["trace"],
            arrival_times=st["arrivals"],
            engine="fast",
        )
        wall = time.perf_counter() - start
        serve_decide, _ = selector_totals(serve_selectors)
        sim_decide, _ = selector_totals(selectors[len(serve_selectors):])
        decide_s, decisions = selector_totals(selectors)
        # Queue waits need a tap on the dispatch path: an extra serve,
        # outside the op's wall.
        shards, _ = shard_layout(self.workers, self.cpus)
        tap = WaitTap()
        self._controller(st).serve(
            lambda s: RamsisSelector(policy_set),
            st["trace"],
            arrivals=st["arrivals"],
            attributors=[tap] * shards,
        )
        return wall, {
            "arrivals.sample_s": st["sample_s"],
            "arrivals.queries": len(st["arrivals"]),
            "selectors.decide_s": decide_s,
            "selectors.decisions": decisions,
            "selectors.policy_switches": sum(c.switches for c in counters),
            "runtime.dispatch_s": serve_s - serve_decide,
            **runtime_ledger(report, tap),
            "sim.run_s": sim_s - sim_decide,
            "sim.queries": simulated.total_queries,
        }


# ----------------------------------------------------------------------
# pipeline: the §7 audited deployment plus its run report
# ----------------------------------------------------------------------
class Pipeline(Workload):
    """``ramsis serve --audit --run-dir`` followed by ``ramsis report``.

    The op loads the pinned policy from the warm policy cache that setup
    fills, serves a Twitter-shaped trace with one guarantee auditor per
    shard and per-worker run-dir feeds (which attach one latency
    attributor per shard), then merges the feeds, writes the merged
    artifacts and the audit report, and renders the run report.  Each
    shard's attributor completes more queries than its 4096-sample
    quantile reservoir holds, so the steady per-query cost shows.
    """

    name = "pipeline"
    slo_ms = 100.0
    workers = 8
    per_worker_qps = 40.0
    duration_s = 30.0
    solve_repeats = 5
    sim_repeats = 10

    def setup(self) -> Dict[str, Any]:
        models = bench_models()
        trace = twitter_trace(self.duration_s, self.per_worker_qps * self.workers)
        # Pinned at the trace's peak cluster load, so the one-sided §5.1
        # bounds hold over the whole diurnal shape.
        config = WorkerMDPConfig.default_poisson(
            models,
            slo_ms=self.slo_ms,
            load_qps=trace.peak_qps,
            num_workers=self.workers,
            fld_resolution=12,
            max_batch_size=MAX_BATCH,
        )
        result = self._solve(config)
        occupancy = stationary_occupancy(
            build_worker_mdp(config), result.policy
        ).decision_conditional()
        cache_dir = self.workdir / "policy-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        PolicyCache(cache_dir).put(config, TOLERANCE, result)
        sample_s, arrivals = self.sample_arrivals(trace, self.slo_ms)
        return {
            "models": models,
            "trace": trace,
            "config": config,
            "occupancy": occupancy,
            "cache_dir": cache_dir,
            "arrivals": arrivals,
            "sample_s": sample_s,
            "runs": 0,
        }

    def _run_dir(self, st) -> Path:
        return self.workdir / f"run-{st['runs']}"

    def before_op(self, st) -> None:
        for path in self.workdir.glob("run-*"):
            shutil.rmtree(path)
        st["runs"] += 1

    def _serve(self, st, factory, run_dir=None, **kwargs):
        controller = sharded_controller(
            st["models"], self.slo_ms, self.workers, self.cpus, self.seed,
            run_dir=run_dir,
        )
        return controller.serve(factory, st["trace"], arrivals=st["arrivals"], **kwargs)

    @staticmethod
    def _get(cache_dir: Path, config: WorkerMDPConfig) -> Tuple[PolicyCache, Any]:
        cache = PolicyCache(cache_dir)
        result = cache.get(config, TOLERANCE)
        if result is None:
            raise RuntimeError("the warm policy cache missed")
        return cache, result

    @staticmethod
    def _report(run_dir: Path, auditors) -> Tuple[List[Any], str]:
        audits = [a.finalize() for a in auditors]
        (run_dir / "audit.json").write_text(
            json.dumps(
                {
                    "ok": all(a.ok for a in audits),
                    "windows": [w.to_json_dict() for a in audits for w in a.windows],
                    "breaches": sum(
                        a.violation_breaches + a.accuracy_breaches for a in audits
                    ),
                    "shards": [a.to_json_dict() for a in audits],
                },
                indent=1,
            )
        )
        return audits, render_run_report(run_dir)

    def timed_op(self, st) -> Dict[str, Any]:
        return self.op(st)

    def op(self, st, selector_sink=None) -> Dict[str, Any]:
        """One audited deployment; with ``selector_sink`` (a list), every
        shard selector is a :class:`TimedSelector` appended to it.

        The op's ten seconds span several host-speed swings, so each stage
        is paired with the host reference on its own and the op's wall is
        the sum of the stages' walls.
        """
        shards, _ = shard_layout(self.workers, self.cpus)
        run_dir = self._run_dir(st)
        raw, normalized = {}, 0.0

        def stage(name, fn, *args, **kwargs):
            nonlocal normalized
            wall, out = self.clock.timed(fn, *args, **kwargs)
            normalized += wall
            raw[name] = self.clock.last_raw_s
            return out

        cache, result = stage("get_s", self._get, st["cache_dir"], st["config"])
        auditors = [
            GuaranteeAuditor(
                result.guarantees,
                policy=result.policy,
                expected_occupancy=st["occupancy"],
            )
            for _ in range(shards)
        ]
        if selector_sink is None:
            factory = lambda s: RamsisSelector(result.policy)  # noqa: E731
        else:
            factory = timed_factory(result.policy, selector_sink)
        report = stage(
            "serve_s", self._serve, st, factory, run_dir=str(run_dir), auditors=auditors
        )
        merged = stage("merge_s", merge_run_dir, run_dir)
        stage("artifacts_s", write_merged_artifacts, merged, run_dir)
        audits, text = stage("report_s", self._report, run_dir, auditors)
        raw_wall = sum(raw.values())
        return {
            "wall": normalized,
            "raw_wall": raw_wall,
            "scale": normalized / raw_wall,
            "parts": raw,
            "cache": cache,
            "policy": result.policy,
            "report": report,
            "merged": merged,
            "audits": audits,
            "text": text,
            "run_dir": run_dir,
        }

    def check_op(self, st, out, reference) -> List[str]:
        failures = closed_accounting(out["report"])
        breaches = sum(a.violation_breaches + a.accuracy_breaches for a in out["audits"])
        if breaches:
            failures.append(f"{breaches} §5.1 guarantee breach(es)")
        if "guarantee audit" not in out["text"]:
            failures.append("the run report has no audit section")
        if reference is not None and out["report"].metrics != reference:
            failures.append("served metrics differ from the warm-up's")
        return failures

    def _solve(self, config):
        """Cold pinned solves; short, so each sample is the mean of several."""

        def solve_all():
            for _ in range(self.solve_repeats):
                result = generate_policy(config, tolerance=TOLERANCE)
            return result

        gc.collect()
        wall, result = self.clock.timed(solve_all)
        self.solve_walls.append(wall / self.solve_repeats)
        return result

    def between(self, st, out) -> None:
        """More cold solves, and the op's arrivals through the fast
        simulator, so both sample the whole run."""
        self._solve(st["config"])
        sim = fast_simulation(st["models"], self.slo_ms, self.workers, st["trace"])
        def simulate_all():
            for _ in range(self.sim_repeats):
                simulated = sim.run(
                    RamsisSelector(out["policy"]),
                    st["trace"],
                    arrival_times=st["arrivals"],
                    engine="fast",
                )
            return simulated

        gc.collect()
        wall, self.simulated = self.clock.timed(simulate_all)
        self.sim_walls.append(wall / self.sim_repeats)

    def finish(self, st, reps, last) -> Tuple[Dict[str, float], List[str]]:
        report = last["report"]
        served = report.metrics
        failures = []
        summary = reconstruct_metrics(last["merged"].tracer)
        for name in ("total_queries", "satisfied_queries", "decisions",
                     "violation_rate", "accuracy_per_satisfied_query",
                     "mean_batch_size"):
            if getattr(summary, name) != getattr(served, name):
                failures.append(f"reconstructed {name} != served {name}")
        if summary.arrivals != report.submitted:
            failures.append("reconstructed arrivals != submitted queries")
        mismatch, worst = compare_metrics(served, self.simulated)
        failures += mismatch
        queries = report.submitted
        return {
            "solve_s": statistics.median(self.solve_walls),
            "qps": queries / statistics.median(r["wall"] for r in reps),
            "sim_qps": queries / statistics.median(self.sim_walls),
            **served_quality(served),
            "info.queries": queries,
            "info.shards": shard_layout(self.workers, self.cpus)[0],
            "info.sim_max_rel_diff": worst,
        }, failures

    def traced_op(self, st) -> Tuple[float, Dict[str, float]]:
        shards, _ = shard_layout(self.workers, self.cpus)
        selectors: List[TimedSelector] = []
        out = self.op(st, selector_sink=selectors)
        wall = out["raw_wall"]
        decide_s, decisions = selector_totals(selectors)
        policy = out["policy"]
        parts = out["parts"]

        # Each observer's cost is the serve time it adds: the same serve
        # with progressively more attached, outside the op's wall.
        def serve_wall(**kwargs) -> Tuple[float, float]:
            local: List[TimedSelector] = []
            wall, _ = timed(self._serve, st, timed_factory(policy, local), **kwargs)
            return wall, selector_totals(local)[0]

        plain_s, plain_decide = serve_wall()
        attr_s, _ = serve_wall(
            attributors=[LatencyAttributor(slo_ms=self.slo_ms) for _ in range(shards)]
        )
        # Named run-*, so before_op removes it with the op's run dirs.
        feed_s, _ = serve_wall(run_dir=str(self.workdir / "run-feeds-only"))
        tap = WaitTap()
        self._serve(st, lambda s: RamsisSelector(policy), attributors=[tap] * shards)

        feed_bytes = sum(p.stat().st_size for p in out["run_dir"].glob("shard-*.jsonl"))
        cache = out["cache"]
        return wall, {
            "arrivals.sample_s": st["sample_s"],
            "arrivals.queries": len(st["arrivals"]),
            "selectors.decide_s": decide_s,
            "selectors.decisions": decisions,
            "runtime.dispatch_s": plain_s - plain_decide,
            **runtime_ledger(out["report"], tap),
            "cache.get_s": parts["get_s"],
            "cache.hits": cache.hits,
            "cache.misses": cache.misses,
            "cache.bytes_read": cache.stats()["total_bytes"] if cache.hits else 0,
            "obs.attribution_s": attr_s - plain_s,
            "obs.feed_s": feed_s - attr_s,
            "obs.audit_s": parts["serve_s"] - feed_s,
            "obs.feed_bytes": feed_bytes,
            "obs.merge_s": parts["merge_s"],
            "obs.artifacts_s": parts["artifacts_s"],
            "obs.report_s": parts["report_s"],
            "obs.records": out["merged"].records,
            "obs.audit_windows": sum(len(a.windows) for a in out["audits"]),
        }


WORKLOADS = {cls.name: cls for cls in (Bank, Replay, Pipeline)}
