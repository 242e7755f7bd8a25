"""Command-line interface, mirroring the paper artifact's scripts (§A).

The artifact exposes ``RAMSIS_gen.py``, ``MS_gen.py``, ``run_sim.py`` and
``plot.py``; this CLI maps them onto subcommands of one entry point:

=================  ====================================================
artifact script    ``ramsis`` subcommand
=================  ====================================================
RAMSIS_gen.py      ``ramsis gen --task image --slo 150 --workers 4 ...``
MS_gen.py          ``ramsis ms-gen --task image --slo 150 --workers 4``
run_sim.py         ``ramsis simulate --m RAMSIS --trace real ...``
plot.py            ``ramsis report --trace real ...``
(trace file)       ``ramsis synth-trace --out twitter.txt``
(model profiles)   ``ramsis zoo --task image``
(observability)    ``ramsis trace --m RAMSIS --load 40 --out-dir obs``
(live audit)       ``ramsis audit --load 40 --workers 2 --out-dir audit``
(run reports)      ``ramsis report --run-dir run0 [--html] [--export]``
(bench history)    ``ramsis bench-history --check``
(tail attribution) ``ramsis explain --run-dir run0 [--json]``
(live view)        ``ramsis top --run-dir run0 [--once]``
=================  ====================================================

Results are written as JSON under ``--results-dir`` with the artifact's
naming convention ``TASK_METHOD_TRACE_SLO[_LOAD].json``.

Stdout carries only the human-facing result tables; progress messages go
through :mod:`repro.obs.log` (stderr) and are controlled by ``-v``/``-q``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.arrivals.traces import LoadTrace, synthesize_twitter_trace
from repro.experiments.reporting import format_table, render_comparison
from repro.experiments.runner import MethodPoint
from repro.experiments.scale import ExperimentScale
from repro.experiments.tasks import TaskSpec, image_task, text_task
from repro.obs.log import configure as configure_logging
from repro.obs.log import get_logger

__all__ = ["main", "build_parser"]

log = get_logger("cli")


def _task_by_name(name: str) -> TaskSpec:
    if name == "image":
        return image_task()
    if name == "text":
        return text_task()
    raise SystemExit(f"unknown task {name!r} (expected 'image' or 'text')")


def _scale_by_name(name: str) -> ExperimentScale:
    presets = {
        "smoke": ExperimentScale.smoke,
        "default": ExperimentScale.default,
        "paper": ExperimentScale.paper,
    }
    if name not in presets:
        raise SystemExit(f"unknown scale {name!r} (expected {sorted(presets)})")
    return presets[name]()


def _result_path(
    results_dir: Path,
    task: str,
    method: str,
    trace_kind: str,
    slo: float,
    load: Optional[float],
) -> Path:
    parts = [task, method, trace_kind, f"{slo:g}"]
    if load is not None:
        parts.append(f"{load:g}")
    return results_dir / ("_".join(parts) + ".json")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def _cache_from_args(args: argparse.Namespace):
    """A :class:`PolicyCache` honoring ``--cache-dir``/``--no-cache``."""
    if getattr(args, "no_cache", False):
        return None
    from repro.cache import PolicyCache

    return PolicyCache(directory=args.cache_dir)


def _write_obs_dir(tracer, registry, obs_dir) -> None:
    """Export the run's merged trace + metrics under ``obs_dir``.

    Leaves the directory in the layout ``ramsis report --run-dir``
    consumes (``merged.cols``, ``metrics.prom``, ``metrics.json``, plus
    any per-batch worker feeds); ``ramsis report --export`` adds
    ``merged.jsonl`` and ``trace.json``.
    """
    from repro.obs.aggregate import MergedRun, write_merged_artifacts

    merged = MergedRun(tracer=tracer, registry=registry)
    for path in write_merged_artifacts(merged, obs_dir).values():
        log.info("wrote %s", path)


def cmd_gen(args: argparse.Namespace) -> int:
    """Generate RAMSIS policies (artifact: RAMSIS_gen.py).

    One policy per ``--loads`` entry (default: just ``--load``); grid cells
    resolve through the persistent policy cache unless ``--no-cache``, and
    misses solve in-process as one stacked bank or fan out across
    ``--jobs`` processes.
    """
    from repro.core.config import WorkerMDPConfig
    from repro.core.generator import PolicyGenerator

    task = _task_by_name(args.task)
    slo = args.slo if args.slo is not None else task.slos_ms[0]
    loads = [float(q) for q in (args.loads or [args.load])]
    config = WorkerMDPConfig.default_poisson(
        task.model_set,
        slo_ms=slo,
        load_qps=max(loads),
        num_workers=args.workers,
        fld_resolution=args.fld_resolution,
    )
    obs_dir = getattr(args, "obs_dir", None)
    tracer = registry = None
    if obs_dir is not None:
        from repro.obs import MetricsRegistry, RecordingTracer

        tracer, registry = RecordingTracer(), MetricsRegistry()
    generator = PolicyGenerator(
        config,
        cache=_cache_from_args(args),
        tracer=tracer,
        registry=registry,
        run_dir=obs_dir,
    )
    results = generator.generate_many(loads, max_workers=args.jobs)
    if obs_dir is not None:
        _write_obs_dir(tracer, registry, obs_dir)
    out_dir = Path(args.out) / f"RAMSIS_{args.workers}_{slo:g}"
    out_dir.mkdir(parents=True, exist_ok=True)
    for load, result in zip(loads, results):
        out_file = out_dir / f"{load:g}.json"
        result.policy.save(out_file)
        g = result.guarantees
        log.info("policy written to %s", out_file)
        print(
            f"load {load:g} QPS: states covered: "
            f"{len(result.policy.states())}, "
            f"value iterations: {result.iterations}, "
            f"runtime: {result.runtime_s:.2f}s"
            + (" (cached)" if result.from_cache else "")
            + f"\nexpected accuracy: {g.expected_accuracy * 100:.2f}%, "
            f"expected SLO violation rate: "
            f"{g.expected_violation_rate * 100:.3f}%"
        )
    log.info("script complete!")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or maintain the persistent policy cache."""
    from repro.cache import PolicyCache

    cache = PolicyCache(directory=args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(
            f"cache directory: {stats['directory']}\n"
            f"artifacts: {stats['artifacts']}\n"
            f"total size: {stats['total_bytes']} bytes"
        )
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} artifact(s) from {cache.directory}")
        return 0
    if args.action == "verify":
        outcome = cache.verify()
        print(
            f"verified {len(outcome['ok']) + len(outcome['corrupt'])} "
            f"artifact(s): {len(outcome['ok'])} ok, "
            f"{len(outcome['corrupt'])} corrupt"
        )
        for path in outcome["corrupt"]:
            print(f"  corrupt: {path}")
        return 0 if not outcome["corrupt"] else 1
    raise SystemExit(f"unknown cache action {args.action!r}")


def cmd_ms_gen(args: argparse.Namespace) -> int:
    """Profile ModelSwitching response latencies (artifact: MS_gen.py)."""
    from repro.selectors import profile_response_latency

    task = _task_by_name(args.task)
    slo = args.slo if args.slo is not None else task.slos_ms[0]
    scale = _scale_by_name(args.scale)
    peak = args.load if args.load else 400.0
    grid = [peak * (i + 1) / scale.ms_profile_grid_points
            for i in range(scale.ms_profile_grid_points)]
    table = profile_response_latency(
        task.model_set,
        loads_qps=grid,
        num_workers=args.workers,
        slo_ms=slo,
        duration_ms=scale.ms_profile_duration_s * 1000.0,
    )
    out_dir = Path(args.out) / f"MS_{args.workers}_{slo:g}"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / "p99_table.json"
    out_file.write_text(
        json.dumps(
            {
                "loads_qps": list(table.loads_qps),
                "p99_ms": {k: list(v) for k, v in table.p99_ms.items()},
            },
            indent=1,
        )
    )
    log.info("response-latency table written to %s", out_file)
    log.info("script complete!")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run one method on a workload (artifact: run_sim.py).

    The worker sweep (``--trace real``) / load sweep (``--trace constant``)
    cells are independent, so ``--jobs N`` fans them out across processes
    through :mod:`repro.experiments.sweep` — results (and the JSON written
    under ``--results-dir``) are identical to a serial run.
    """
    from repro.experiments.sweep import SweepCell, run_sweep

    task = _task_by_name(args.task)
    scale = _scale_by_name(args.scale)
    slo = args.slo if args.slo is not None else task.slos_ms[0]
    results_dir = Path(args.results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)

    cells: List[SweepCell] = []
    if args.trace == "real":
        from repro.experiments.fig5 import production_trace

        trace = production_trace(scale)
        workers_sweep = (
            [args.workers] if args.workers else list(scale.worker_counts)
        )
        for workers in workers_sweep:
            cells.append(
                SweepCell(
                    method=args.m,
                    task=task,
                    slo_ms=slo,
                    num_workers=workers,
                    trace=trace,
                    seed=args.seed,
                )
            )
    else:
        loads = [args.load] if args.load else list(scale.constant_loads_qps)
        workers = args.workers or (
            scale.constant_workers_image
            if task.name == "image"
            else scale.constant_workers_text
        )
        for load in loads:
            const = LoadTrace.constant(
                load, scale.constant_duration_s * 1000.0, name=f"const-{load:g}"
            )
            cells.append(
                SweepCell(
                    method=args.m,
                    task=task,
                    slo_ms=slo,
                    num_workers=workers,
                    trace=const,
                    seed=args.seed,
                    oracle_load=True,
                )
            )

    obs_dir = getattr(args, "obs_dir", None)
    tracer = registry = None
    if obs_dir is not None:
        from repro.obs import MetricsRegistry, RecordingTracer

        tracer, registry = RecordingTracer(), MetricsRegistry()
    points = run_sweep(
        cells,
        scale,
        jobs=args.jobs,
        cache=_cache_from_args(args),
        tracer=tracer,
        registry=registry,
        run_dir=obs_dir,
    )
    if obs_dir is not None:
        _write_obs_dir(tracer, registry, obs_dir)
    for point in points:
        where = (
            f"workers={point.num_workers}"
            if args.trace == "real"
            else f"load={point.load_qps:g}"
        )
        print(
            f"{args.m} {where}: acc={point.accuracy * 100:.2f}% "
            f"viol={point.violation_rate * 100:.3f}%"
        )

    for point in points:
        path = _result_path(
            results_dir, task.name, args.m, args.trace, slo, point.load_qps
        )
        payload = {
            "task": point.task,
            "method": point.method,
            "slo_ms": point.slo_ms,
            "num_workers": point.num_workers,
            "load_qps": point.load_qps,
            "accuracy": point.accuracy,
            "violation_rate": point.violation_rate,
            "queries": point.queries,
        }
        existing = []
        if path.exists():
            existing = json.loads(path.read_text())
            existing = [e for e in existing if e["num_workers"] != point.num_workers]
        existing.append(payload)
        path.write_text(json.dumps(existing, indent=1))
        log.debug("result written to %s", path)
    log.info("script complete!")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Summarize stored results (artifact: plot.py).

    With ``--run-dir`` the report instead consumes one observability run
    directory (worker feeds, merged table/metrics, audit report) and
    emits a single text or HTML summary — printed, and written alongside
    the artifacts (or at ``--out``).  ``--export`` first writes the
    ``merged.jsonl`` event log and the Perfetto ``trace.json`` beside
    every ``merged.cols``.
    """
    if getattr(args, "run_dir", None) is not None:
        from repro.obs.aggregate import export_run_dir
        from repro.obs.report import write_run_report

        fmt = "html" if args.html else "text"
        if not Path(args.run_dir).is_dir():
            print(f"run directory not found: {args.run_dir}")
            return 1
        if args.export:
            for path in export_run_dir(args.run_dir):
                log.info("wrote %s", path)
        out_path = write_run_report(args.run_dir, out_path=args.out, fmt=fmt)
        if fmt == "text":
            print(out_path.read_text(), end="")
        log.info("run report written to %s", out_path)
        return 0

    results_dir = Path(args.results_dir)
    points: List[MethodPoint] = []
    pattern = f"{args.task}_*_{args.trace}_*.json" if args.task else "*.json"
    for path in sorted(results_dir.glob(pattern)):
        for raw in json.loads(path.read_text()):
            points.append(
                MethodPoint(
                    task=raw["task"],
                    method=raw["method"],
                    slo_ms=raw["slo_ms"],
                    num_workers=raw["num_workers"],
                    load_qps=raw.get("load_qps"),
                    accuracy=raw["accuracy"],
                    violation_rate=raw["violation_rate"],
                    queries=raw["queries"],
                )
            )
    if not points:
        print(f"no results found in {results_dir}")
        return 1
    rows = [
        (
            p.task,
            p.method,
            f"{p.slo_ms:g}",
            p.num_workers,
            "-" if p.load_qps is None else f"{p.load_qps:g}",
            f"{p.accuracy * 100:.2f}%",
            f"{p.violation_rate * 100:.3f}%",
        )
        for p in sorted(points, key=lambda p: (p.task, p.method, p.num_workers))
    ]
    print(
        format_table(
            ["task", "method", "SLO", "workers", "load", "accuracy", "violation"],
            rows,
        )
    )
    print()
    print(render_comparison(points, ["MS", "JF"]))
    return 0


def cmd_bench_history(args: argparse.Namespace) -> int:
    """Track benchmark results over time and gate on regressions.

    Appends every ``<out-dir>/*.json`` benchmark result to the history
    log (one JSON line per benchmark per invocation), then — with
    ``--check`` — compares each benchmark's latest entry against its best
    recent one and exits non-zero when a tracked metric regressed beyond
    ``--tolerance``.  ``--no-append`` checks the existing history
    without recording a new generation.
    """
    from repro.obs.report import append_bench_history, check_bench_history

    out_dir = Path(args.out_dir)
    history = (
        Path(args.history) if args.history else out_dir / "history.jsonl"
    )
    if not args.no_append:
        entries = append_bench_history(out_dir, history_path=history)
        print(f"recorded {len(entries)} benchmark result(s) in {history}")
        for entry in entries:
            log.debug("recorded %s", entry["bench"])
    if not args.check:
        return 0
    regressions = check_bench_history(history, tolerance=args.tolerance)
    if not regressions:
        print(
            f"no regressions beyond {args.tolerance * 100:g}% tolerance"
        )
        return 0
    print(f"{len(regressions)} regression(s) beyond {args.tolerance * 100:g}%:")
    for regression in regressions:
        print(f"  {regression.describe()}")
    return 1


def _explain_attributor(run_dir: Path, slo: Optional[float]):
    """The run's attribution, preferring the merged artifact's tracer fold.

    Returns ``(snapshot_dict, attributor_or_None)``: an existing
    ``attribution.json`` is authoritative (it was folded from the merged
    table in serial cell order); otherwise the merged table, else the
    event log, is refolded.
    """
    direct = run_dir / "attribution.json"
    if direct.is_file():
        return json.loads(direct.read_text()), None
    batches = sorted(run_dir.glob("batch-*/attribution.json"))
    if batches:
        return json.loads(batches[-1].read_text()), None
    from repro.obs.aggregate import merged_tables
    from repro.obs.attribution import attribution_from_jsonl, attribution_from_table
    from repro.obs.columns import EventTable

    tables = merged_tables(run_dir)
    if tables:
        table, header = EventTable.load(tables[0])
        attributor = attribution_from_table(
            table, slo_ms=slo if slo is not None else header.get("slo_ms")
        )
        return attributor.to_json_dict(), attributor
    for name in ("merged.jsonl", "events.jsonl"):
        candidates = [run_dir / name] + sorted(run_dir.glob(f"batch-*/{name}"))
        for path in candidates:
            if path.is_file():
                attributor = attribution_from_jsonl(path, slo_ms=slo)
                return attributor.to_json_dict(), attributor
    return None, None


def cmd_explain(args: argparse.Namespace) -> int:
    """Attribute a run's tail latency (phases, blame, burn, exemplars).

    Reads a run directory's ``attribution.json`` (written by traced
    sweeps and ``write_merged_artifacts``) or, absent that, folds the
    run's ``merged.cols`` table or ``merged.jsonl``/``events.jsonl``
    event log through the attribution engine.  Prints the per-(model, worker) phase table with
    model-choice blame, the SLO burn-rate windows, and the retained tail
    exemplars — or the full JSON snapshot with ``--json``.
    """
    run_dir = Path(args.run_dir)
    if not run_dir.is_dir():
        print(f"run directory not found: {run_dir}")
        return 1
    snapshot, attributor = _explain_attributor(run_dir, args.slo)
    if snapshot is None:
        print(
            f"no attribution source in {run_dir} "
            "(expected attribution.json, merged.cols, merged.jsonl, "
            "or events.jsonl)"
        )
        return 1
    if args.json:
        rendered = json.dumps(snapshot, indent=1, sort_keys=True)
    elif attributor is not None:
        rendered = attributor.render_text(limit=args.top)
    else:
        rendered = _render_attribution_snapshot(snapshot, limit=args.top)
    if args.out:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(rendered + "\n")
        log.info("attribution written to %s", out_path)
    print(rendered)
    return 0


def _render_attribution_snapshot(snapshot: dict, limit: Optional[int]) -> str:
    """Text tables from a stored attribution.json (no live attributor)."""
    rows = sorted(snapshot.get("rows", []), key=lambda r: -r["response_ms"])
    if limit is not None:
        rows = rows[:limit]
    body = []
    for r in rows:
        n = max(r["queries"], 1)
        body.append(
            [
                r["slo"],
                r["model"],
                str(r["worker"]),
                str(r["queries"]),
                f"{r['queue_wait_ms'] / n:.2f}",
                f"{r['service_ms'] / n:.2f}",
                f"{r['drop_ms'] / n:.2f}",
                f"{r.get('blame_per_query_ms', 0.0):.2f}",
                f"{r['violations'] / n:.1%}",
                str(r["dropped"]),
            ]
        )
    table = format_table(
        [
            "slo", "model", "worker", "queries", "wait ms", "service ms",
            "drop ms", "blame/q ms", "viol %", "drops",
        ],
        body,
        title="Latency attribution (per-query phase means)",
    )
    lines = [table, "", "SLO burn rate:"]
    for w in snapshot.get("burn", {}).get("windows", []):
        lines.append(
            "  window {:>6}  rate {:.4f}  burn {:.3f}  alerts {}".format(
                w["size"], w["rate"], w["burn"], w["alerts"]
            )
        )
    chains = snapshot.get("exemplars", {}).get("chains", [])
    lines.append("")
    lines.append(f"Tail exemplars ({len(chains)} retained):")
    for chain in chains[:5]:
        lines.append(
            "  q{query} worker {worker} {model}: {response_ms:.1f} ms "
            "(wait {queue_wait_ms:.1f}, service {service_ms:.1f}, "
            "drop {drop_ms:.1f})".format(**chain)
        )
    return "\n".join(lines)


def cmd_top(args: argparse.Namespace) -> int:
    """Live streaming view of an in-flight (or finished) run directory.

    Polls the run directory's snapshot feeds — ``metrics-<pid>.json`` /
    ``attribution-<pid>.json`` written periodically by the runtime
    controller and by ``run_sweep`` pool workers, plus merged artifacts —
    and redraws one frame per ``--interval``.  ``--once`` prints a single
    frame and exits (CI-friendly); interactive mode stops on Ctrl-C.
    """
    import time as _time

    from repro.obs.report import render_top_frame

    run_dir = Path(args.run_dir)
    try:
        frame = render_top_frame(run_dir, limit=args.limit)
    except FileNotFoundError as exc:
        print(str(exc))
        return 1
    if args.once:
        print(frame, end="")
        return 0
    try:
        while True:
            # ANSI clear + home, then the frame: a minimal live TUI.
            sys.stdout.write("\x1b[2J\x1b[H" + frame)
            sys.stdout.flush()
            _time.sleep(args.interval)
            frame = render_top_frame(run_dir, limit=args.limit)
    except KeyboardInterrupt:
        print()
        return 0


def cmd_synth_trace(args: argparse.Namespace) -> int:
    """Synthesize and save the Twitter-shaped trace."""
    trace = synthesize_twitter_trace(
        duration_s=args.duration, seed=args.seed
    )
    trace.save(args.out)
    log.info(
        "trace written to %s: %d intervals, %.0f-%.0f QPS, ~%.0f queries",
        args.out,
        len(trace.qps),
        trace.min_qps,
        trace.peak_qps,
        trace.expected_queries(),
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one scenario with full observability and emit artifacts.

    Produces three files under ``--out-dir``: ``events.jsonl`` (per-query
    lifecycle event log), ``trace.json`` (Chrome ``trace_event`` format,
    loadable in Perfetto or chrome://tracing), and ``metrics.prom``
    (Prometheus text dump), plus a stdout summary that cross-checks the
    trace against the simulator's own metrics.
    """
    from repro.experiments.runner import make_selector
    from repro.obs import MetricsRegistry, RecordingTracer, reconstruct_metrics
    from repro.obs.exporters import (
        write_chrome_trace,
        write_events_jsonl,
        write_prometheus_text,
    )
    from repro.sim.monitor import OracleLoadMonitor
    from repro.sim.simulator import Simulation, SimulationConfig

    task = _task_by_name(args.task)
    scale = _scale_by_name(args.scale)
    slo = args.slo if args.slo is not None else task.slos_ms[0]
    trace = LoadTrace.constant(
        args.load, args.duration * 1000.0, name=f"const-{args.load:g}"
    )
    selector = make_selector(
        args.m,
        task,
        slo,
        args.workers,
        trace,
        scale,
        pinned_load_qps=args.load if args.m == "RAMSIS" else None,
    )
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    sim = Simulation(
        SimulationConfig(
            model_set=task.model_set,
            slo_ms=slo,
            num_workers=args.workers,
            max_batch_size=scale.max_batch_size,
            monitor=OracleLoadMonitor(trace),
            seed=args.seed,
            tracer=tracer,
            registry=registry,
        )
    )
    log.info(
        "tracing %s: load=%g QPS, %d workers, SLO %g ms, %.0f s",
        args.m, args.load, args.workers, slo, args.duration,
    )
    metrics = sim.run(selector, trace)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jsonl_path = write_events_jsonl(tracer, out_dir / "events.jsonl")
    chrome_path = write_chrome_trace(
        tracer, out_dir / "trace.json", process_name=f"ramsis-{args.m}"
    )
    prom_path = write_prometheus_text(registry, out_dir / "metrics.prom")

    summary = reconstruct_metrics(tracer)
    consistent = (
        summary.violation_rate == metrics.violation_rate
        and summary.mean_batch_size == metrics.mean_batch_size
        and summary.accuracy_per_satisfied_query
        == metrics.accuracy_per_satisfied_query
    )
    print(
        format_table(
            ["metric", "simulator", "from trace"],
            [
                ("queries", metrics.total_queries, summary.total_queries),
                (
                    "violation rate",
                    f"{metrics.violation_rate * 100:.3f}%",
                    f"{summary.violation_rate * 100:.3f}%",
                ),
                (
                    "mean batch size",
                    f"{metrics.mean_batch_size:.3f}",
                    f"{summary.mean_batch_size:.3f}",
                ),
                ("decisions", metrics.decisions, summary.decisions),
                (
                    "accuracy",
                    f"{metrics.accuracy_per_satisfied_query * 100:.2f}%",
                    f"{summary.accuracy_per_satisfied_query * 100:.2f}%",
                ),
                ("p99 response (ms)", f"{metrics.p99_response_ms:.1f}", "-"),
            ],
            title=f"{args.m} on {task.name}, trace vs. simulator"
            + (" (consistent)" if consistent else " (MISMATCH!)"),
        )
    )
    for path in (jsonl_path, chrome_path, prom_path):
        log.info("wrote %s", path)
    return 0 if consistent else 1


def cmd_audit(args: argparse.Namespace) -> int:
    """Run a scenario under the live guarantee auditor (§5.1 online).

    Pins the RAMSIS policy for ``--policy-load`` (default: the actual
    ``--load``) and audits the run against that policy's predicted bounds,
    stationary occupancy, and profiled load.  Writes ``audit.json`` (the
    report schema) and ``audit.txt`` (human-readable) under ``--out-dir``
    and prints the text report.  Exit code 0 when the audit is clean, 1 on
    any bound breach, occupancy divergence, or load drift.
    """
    from repro.experiments.runner import run_audited
    from repro.obs import MetricsRegistry, RecordingTracer
    from repro.obs.audit import AuditConfig
    from repro.obs.exporters import write_events_jsonl, write_prometheus_text

    task = _task_by_name(args.task)
    scale = _scale_by_name(args.scale)
    slo = args.slo if args.slo is not None else task.slos_ms[0]
    trace = LoadTrace.constant(
        args.load, args.duration * 1000.0, name=f"const-{args.load:g}"
    )
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    log.info(
        "auditing RAMSIS: load=%g QPS (policy for %g), %d workers, "
        "SLO %g ms, %.0f s",
        args.load, args.policy_load or args.load, args.workers, slo,
        args.duration,
    )
    run = run_audited(
        task,
        slo,
        args.workers,
        trace,
        scale,
        seed=args.seed,
        policy_load_qps=args.policy_load,
        audit_config=AuditConfig(
            window_queries=args.window, confidence=args.confidence
        ),
        tracer=tracer,
        registry=registry,
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_text = run.report.render_text()
    (out_dir / "audit.json").write_text(
        json.dumps(run.report.to_json_dict(), indent=1)
    )
    (out_dir / "audit.txt").write_text(report_text + "\n")
    write_events_jsonl(tracer, out_dir / "events.jsonl")
    write_prometheus_text(registry, out_dir / "metrics.prom")
    print(report_text)
    log.info("audit artifacts written to %s", out_dir)
    return 0 if run.report.ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a trace on the sharded runtime.

    Replays a constant or Twitter-shaped trace across ``--shards``
    controller shards of ``--workers`` workers each, with optional
    admission control (``--max-queue-depth`` / ``--min-slack-ms``),
    drop-late semantics, per-shard §5.1 auditors (``--audit``), and a
    ``--run-dir`` holding the per-worker event feeds, live snapshots and
    — merged on exit — the artifacts ``ramsis report`` / ``ramsis
    explain`` / ``ramsis top`` consume.  ``--policy-dir`` loads a saved
    RAMSIS policy set (``ramsis gen --out-dir``); without one, ``--audit``
    pins a RAMSIS policy for the trace load and a plain run uses the
    greedy selector.  Exit code 1 on any audited guarantee breach.
    """
    from repro.runtime import AdmissionControl, ShardedController
    from repro.selectors import GreedyDeadlineSelector, RamsisSelector

    task = _task_by_name(args.task)
    scale = _scale_by_name(args.scale)
    slo = args.slo if args.slo is not None else task.slos_ms[0]
    if args.trace == "twitter":
        # Keep the 30-interval diurnal shape at any duration (a single
        # interval would degenerate in the min/max normalization).
        trace = synthesize_twitter_trace(
            duration_s=args.duration, interval_s=args.duration / 30.0
        )
        if args.load_scale != 1.0:
            trace = trace.scaled(args.load_scale)
    else:
        trace = LoadTrace.constant(
            args.load * args.load_scale,
            args.duration * 1000.0,
            name=f"const-{args.load:g}",
        )

    total_workers = args.shards * args.workers
    factory = lambda shard_index: GreedyDeadlineSelector()  # noqa: E731
    if args.policy_dir is not None:
        from repro.core.policy_set import PolicySet

        policy_set = PolicySet.load(args.policy_dir)
        factory = lambda shard_index: RamsisSelector(policy_set)  # noqa: E731

    auditors = None
    if args.audit:
        from repro.experiments.runner import build_audit_references
        from repro.obs.audit import GuaranteeAuditor

        ref_load = trace.mean_qps
        policy, guarantees, occupancy = build_audit_references(
            task.model_set, slo, ref_load, total_workers, scale
        )
        auditors = [
            GuaranteeAuditor(
                guarantees, policy=policy, expected_occupancy=occupancy
            )
            for _ in range(args.shards)
        ]
        if args.policy_dir is None:
            factory = lambda shard_index: RamsisSelector(policy)  # noqa: E731

    admission = None
    if args.max_queue_depth is not None or args.min_slack_ms is not None:
        admission = AdmissionControl(
            max_queue_depth=args.max_queue_depth,
            min_slack_ms=args.min_slack_ms,
        )

    log.info(
        "serving %s: %d shards x %d workers, SLO %g ms, time scale %g",
        trace.name, args.shards, args.workers, slo, args.time_scale,
    )
    controller = ShardedController(
        task.model_set,
        slo_ms=slo,
        num_shards=args.shards,
        workers_per_shard=args.workers,
        time_scale=args.time_scale,
        seed=args.seed,
        admission=admission,
        drop_late=args.drop_late,
        paced=not args.unpaced,
        run_dir=args.run_dir,
        snapshot_interval_s=args.snapshot_interval,
    )
    report = controller.serve(factory, trace, auditors=auditors)

    m = report.metrics
    print(
        f"{trace.name}: {report.num_shards} shards x "
        f"{report.workers_per_shard} workers, {report.submitted} queries "
        f"in {report.wall_seconds:.2f}s wall ({report.qps:,.0f} q/s)"
    )
    print(
        f"  served={report.served} rejected={report.rejected} "
        f"dropped={report.dropped}"
    )
    print(f"  {m.summary()}")
    if not args.unpaced:
        print(f"  p99 added latency: {report.p99_added_latency_ms:.3f} ms wall")

    if args.run_dir is not None:
        from repro.obs.aggregate import merge_run_dir, write_merged_artifacts

        merged = merge_run_dir(args.run_dir)
        for path in write_merged_artifacts(merged, args.run_dir).values():
            log.info("wrote %s", path)

    breaches = 0
    if auditors is not None:
        for shard_index, auditor in enumerate(auditors):
            audit = auditor.finalize()
            breaches += audit.violation_breaches + audit.accuracy_breaches
            print(
                f"  shard {shard_index} audit: "
                f"violation_breaches={audit.violation_breaches} "
                f"accuracy_breaches={audit.accuracy_breaches}"
            )
    return 1 if breaches else 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one evaluation figure (optionally in parallel).

    ``--jobs N`` fans the figure's independent cells across processes via
    :mod:`repro.experiments.sweep`; the rendered output is identical to a
    serial run.  ``fig5``/``fig6`` also print their companion violation
    tables (Tables 3/4).
    """
    scale = _scale_by_name(args.scale)
    cache = _cache_from_args(args)
    jobs = args.jobs
    if args.which == "fig5":
        from repro.experiments.fig5 import render_fig5, run_fig5
        from repro.experiments.tables import render_table3

        result = run_fig5(scale, jobs=jobs, cache=cache)
        print(render_fig5(result))
        print()
        print(render_table3(result))
    elif args.which == "fig6":
        from repro.experiments.fig6 import render_fig6, run_fig6
        from repro.experiments.tables import render_table4

        result = run_fig6(scale, jobs=jobs, cache=cache)
        print(render_fig6(result))
        print()
        print(render_table4(result))
    elif args.which == "fig7":
        from repro.experiments.fig7 import render_fig7, run_fig7

        print(render_fig7(run_fig7(scale, jobs=jobs, cache=cache)))
    elif args.which == "fig8":
        from repro.experiments.fig8 import render_fig8, run_fig8

        print(render_fig8(run_fig8(scale, jobs=jobs, cache=cache)))
    else:  # pragma: no cover - argparse choices guard
        raise SystemExit(f"unknown figure {args.which!r}")
    log.info("script complete!")
    return 0


def cmd_zoo(args: argparse.Namespace) -> int:
    """Print the model profiles (Fig. 3 / Fig. 9 data)."""
    task = _task_by_name(args.task)
    front = set(task.model_set.pareto_front().names)
    rows = []
    for m in sorted(task.model_set, key=lambda m: m.latency_ms(1)):
        rows.append(
            (
                m.name,
                m.family,
                f"{m.accuracy * 100:.2f}%",
                f"{m.latency_ms(1):.1f}",
                f"{m.latency.per_item_ms:.1f}",
                "*" if m.name in front else "",
            )
        )
    print(
        format_table(
            ["model", "family", "accuracy", "p95 latency (ms)", "ms/query", "Pareto"],
            rows,
            title=f"{task.name} task — {len(task.model_set)} models, "
            f"SLOs {task.slos_ms}",
        )
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``ramsis`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ramsis",
        description="RAMSIS reproduction: policy generation, simulation, reports",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more progress output (DEBUG level)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="suppress progress output (warnings only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate RAMSIS policies")
    gen.add_argument("--task", default="image", choices=["image", "text"])
    gen.add_argument("--slo", type=float, default=None, help="latency SLO in ms")
    gen.add_argument("--workers", type=int, default=1)
    gen.add_argument("--load", type=float, default=40.0, help="query load (QPS)")
    gen.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="generate a policy per load (overrides --load)",
    )
    gen.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="solve grid cells across this many processes",
    )
    gen.add_argument(
        "--cache-dir",
        default=None,
        help="policy cache directory (default: $RAMSIS_CACHE_DIR or "
        "~/.cache/ramsis)",
    )
    gen.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent policy cache",
    )
    gen.add_argument("--fld-resolution", type=int, default=100)
    gen.add_argument("--out", default="policy_gen")
    gen.add_argument(
        "--obs-dir",
        default=None,
        help="trace the generation (serial and parallel) and write the "
        "merged observability artifacts under this directory",
    )
    gen.set_defaults(func=cmd_gen)

    cache = sub.add_parser("cache", help="inspect the persistent policy cache")
    cache.add_argument(
        "action", choices=["stats", "clear", "verify"], help="what to do"
    )
    cache.add_argument(
        "--cache-dir",
        default=None,
        help="policy cache directory (default: $RAMSIS_CACHE_DIR or "
        "~/.cache/ramsis)",
    )
    cache.set_defaults(func=cmd_cache)

    msgen = sub.add_parser("ms-gen", help="profile ModelSwitching p99 latencies")
    msgen.add_argument("--task", default="image", choices=["image", "text"])
    msgen.add_argument("--slo", type=float, default=None)
    msgen.add_argument("--workers", type=int, default=1)
    msgen.add_argument("--load", type=float, default=None, help="peak load (QPS)")
    msgen.add_argument("--scale", default="default")
    msgen.add_argument("--out", default="policy_gen")
    msgen.set_defaults(func=cmd_ms_gen)

    simulate = sub.add_parser("simulate", help="simulate one method")
    simulate.add_argument("--m", default="RAMSIS", help="RAMSIS | JF | MS | Greedy")
    simulate.add_argument("--trace", default="real", choices=["real", "constant"])
    simulate.add_argument("--task", default="image", choices=["image", "text"])
    simulate.add_argument("--slo", type=float, default=None)
    simulate.add_argument("--workers", type=int, default=None)
    simulate.add_argument("--load", type=float, default=None)
    simulate.add_argument("--scale", default="default")
    simulate.add_argument("--seed", type=int, default=11)
    simulate.add_argument("--results-dir", default="results")
    simulate.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run sweep cells across this many processes",
    )
    simulate.add_argument(
        "--cache-dir",
        default=None,
        help="policy cache directory (default: $RAMSIS_CACHE_DIR or "
        "~/.cache/ramsis)",
    )
    simulate.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent policy cache",
    )
    simulate.add_argument(
        "--obs-dir",
        default=None,
        help="trace the sweep (serial and parallel) and write the merged "
        "observability artifacts under this directory",
    )
    simulate.set_defaults(func=cmd_simulate)

    figure = sub.add_parser(
        "figure", help="regenerate one evaluation figure (parallel with --jobs)"
    )
    figure.add_argument(
        "which", choices=["fig5", "fig6", "fig7", "fig8"], help="figure to run"
    )
    figure.add_argument("--scale", default="smoke")
    figure.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run sweep cells across this many processes",
    )
    figure.add_argument(
        "--cache-dir",
        default=None,
        help="policy cache directory (default: $RAMSIS_CACHE_DIR or "
        "~/.cache/ramsis)",
    )
    figure.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the persistent policy cache",
    )
    figure.set_defaults(func=cmd_figure)

    report = sub.add_parser(
        "report", help="summarize stored results or an observability run dir"
    )
    report.add_argument("--task", default=None)
    report.add_argument("--trace", default="real")
    report.add_argument("--results-dir", default="results")
    report.add_argument(
        "--run-dir",
        default=None,
        help="summarize this observability run directory (shards, merged "
        "trace/metrics, audit report) instead of stored results",
    )
    report.add_argument(
        "--html",
        action="store_true",
        help="with --run-dir: emit an HTML report instead of text",
    )
    report.add_argument(
        "--out",
        default=None,
        help="with --run-dir: report destination (default: "
        "report.txt/report.html inside the run directory)",
    )
    report.add_argument(
        "--export",
        action="store_true",
        help="with --run-dir: also write merged.jsonl and trace.json "
        "(Perfetto) beside every merged.cols",
    )
    report.set_defaults(func=cmd_report)

    bench_history = sub.add_parser(
        "bench-history",
        help="append benchmark results to the history log; gate regressions",
    )
    bench_history.add_argument(
        "--out-dir",
        default="benchmarks/out",
        help="directory holding the bench *.json results",
    )
    bench_history.add_argument(
        "--history",
        default=None,
        help="history log path (default: <out-dir>/history.jsonl)",
    )
    bench_history.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when a tracked metric regressed vs. its "
        "best value in the recent recorded generations",
    )
    bench_history.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="fractional change tolerated before a regression is flagged",
    )
    bench_history.add_argument(
        "--no-append",
        action="store_true",
        help="check the existing history without recording a new generation",
    )
    bench_history.set_defaults(func=cmd_bench_history)

    explain = sub.add_parser(
        "explain",
        help="attribute a run's tail latency: phases, blame, burn, exemplars",
    )
    explain.add_argument(
        "--run-dir",
        required=True,
        help="observability run directory (attribution.json or an event log)",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="print the full JSON snapshot instead of text tables",
    )
    explain.add_argument(
        "--slo",
        type=float,
        default=None,
        help="SLO label for violation-excess tracking when refolding an "
        "event log (ignored when attribution.json already exists)",
    )
    explain.add_argument(
        "--top",
        type=int,
        default=None,
        help="show only the N highest-latency attribution rows",
    )
    explain.add_argument(
        "--out", default=None, help="also write the rendering to this file"
    )
    explain.set_defaults(func=cmd_explain)

    top = sub.add_parser(
        "top", help="live streaming view of a run directory's snapshot feeds"
    )
    top.add_argument(
        "--run-dir",
        required=True,
        help="run directory receiving metrics-*/attribution-* snapshots",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single frame and exit (no ANSI redraw loop)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between frame redraws",
    )
    top.add_argument(
        "--limit",
        type=int,
        default=12,
        help="max metric rows shown per feed file",
    )
    top.set_defaults(func=cmd_top)

    synth = sub.add_parser(
        "synth-trace", help="synthesize the Twitter-shaped trace"
    )
    synth.add_argument("--out", default="twitter_trace.txt")
    synth.add_argument("--duration", type=float, default=300.0)
    synth.add_argument("--seed", type=int, default=2018)
    synth.set_defaults(func=cmd_synth_trace)

    trace = sub.add_parser(
        "trace", help="run a scenario with tracing and emit obs artifacts"
    )
    trace.add_argument("--m", default="RAMSIS", help="RAMSIS | JF | MS | Greedy")
    trace.add_argument("--task", default="image", choices=["image", "text"])
    trace.add_argument("--slo", type=float, default=None)
    trace.add_argument("--workers", type=int, default=2)
    trace.add_argument("--load", type=float, default=40.0, help="constant QPS")
    trace.add_argument(
        "--duration", type=float, default=10.0, help="scenario length (s)"
    )
    trace.add_argument("--scale", default="smoke")
    trace.add_argument("--seed", type=int, default=11)
    trace.add_argument("--out-dir", default="obs_out")
    trace.set_defaults(func=cmd_trace)

    audit = sub.add_parser(
        "audit", help="audit a run against the §5.1 guarantees, live"
    )
    audit.add_argument("--task", default="image", choices=["image", "text"])
    audit.add_argument("--slo", type=float, default=None)
    audit.add_argument("--workers", type=int, default=2)
    audit.add_argument("--load", type=float, default=40.0, help="constant QPS")
    audit.add_argument(
        "--policy-load",
        type=float,
        default=None,
        help="generate the audited policy for this load instead of --load "
        "(a mismatch simulates a stale policy)",
    )
    audit.add_argument(
        "--duration", type=float, default=20.0, help="scenario length (s)"
    )
    audit.add_argument(
        "--window", type=int, default=200, help="completions per audit window"
    )
    audit.add_argument(
        "--confidence", type=float, default=0.95, help="CI confidence level"
    )
    audit.add_argument("--scale", default="smoke")
    audit.add_argument("--seed", type=int, default=11)
    audit.add_argument("--out-dir", default="audit_out")
    audit.set_defaults(func=cmd_audit)

    serve = sub.add_parser(
        "serve", help="serve a trace on the sharded runtime"
    )
    serve.add_argument("--task", default="image", choices=["image", "text"])
    serve.add_argument("--slo", type=float, default=None)
    serve.add_argument(
        "--trace", default="constant", choices=["constant", "twitter"]
    )
    serve.add_argument("--load", type=float, default=40.0, help="constant QPS")
    serve.add_argument(
        "--load-scale",
        type=float,
        default=1.0,
        help="multiply the trace's QPS (scales the Twitter trace down "
        "to demo-sized worker counts)",
    )
    serve.add_argument(
        "--duration", type=float, default=10.0, help="trace length (s)"
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--workers", type=int, default=2, help="workers per shard"
    )
    serve.add_argument(
        "--policy-dir",
        default=None,
        help="serve with a saved RAMSIS policy set (ramsis gen --out-dir)",
    )
    serve.add_argument(
        "--audit",
        action="store_true",
        help="attach one §5.1 guarantee auditor per shard "
        "(exit 1 on any bound breach)",
    )
    serve.add_argument(
        "--run-dir",
        default=None,
        help="write per-worker event feeds, live snapshots, and merged "
        "artifacts (ramsis report/explain/top all consume this)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="admission control: reject when the worker queue is this deep",
    )
    serve.add_argument(
        "--min-slack-ms",
        type=float,
        default=None,
        help="admission control: reject queries whose slack at the "
        "estimated service start falls below this",
    )
    serve.add_argument(
        "--drop-late",
        action="store_true",
        help="drop the worker queue when the selected action is late",
    )
    serve.add_argument(
        "--unpaced",
        action="store_true",
        help="replay flat out instead of pacing arrivals on the wall "
        "clock (throughput stress mode)",
    )
    serve.add_argument("--time-scale", type=float, default=0.05)
    serve.add_argument(
        "--snapshot-interval", type=float, default=0.5,
        help="seconds between live snapshot publishes under --run-dir",
    )
    serve.add_argument("--scale", default="smoke")
    serve.add_argument("--seed", type=int, default=7)
    serve.set_defaults(func=cmd_serve)

    zoo = sub.add_parser("zoo", help="print model profiles (Fig. 3 / Fig. 9)")
    zoo.add_argument("--task", default="image", choices=["image", "text"])
    zoo.set_defaults(func=cmd_zoo)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
