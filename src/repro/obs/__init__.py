"""Observability: tracing, metrics, auditing, and exporters.

The paper's claims are distributional (SLO violation rates, expected
accuracy, policy-generation runtime), so this package makes every run
inspectable *as it happens* rather than only through the frozen
end-of-run :class:`~repro.sim.metrics.SimulationMetrics`:

- :mod:`repro.obs.trace` — per-query lifecycle spans/events with a
  no-op default tracer (zero overhead when off) and one recorder that
  keeps event-table rows, in memory or (subclassed) in a run-dir feed;
- :mod:`repro.obs.metrics` — counters, gauges (with time series), and
  streaming histograms in a Prometheus-flavoured registry;
- :mod:`repro.obs.audit` — the live guarantee auditor: per-window §5.1
  bound verdicts with confidence intervals, empirical-vs-stationary
  occupancy divergence, and Page–Hinkley load-drift detection;
- :mod:`repro.obs.exporters` — JSONL event log, Chrome ``trace_event``
  JSON (Perfetto / ``chrome://tracing``), Prometheus text dump;
- :mod:`repro.obs.reconstruct` — recompute violation rate / accuracy /
  batch sizes from a trace alone (the instrumentation's correctness
  oracle);
- :mod:`repro.obs.columns` — the columnar event table behind every
  recorder and run dir: typed column buffers, append-only ``np.save``
  blocks, merge, and replay into a tracer;
- :mod:`repro.obs.aggregate` — cross-process trace shipping: per-worker
  columnar feed tracers + registries installed by a pool initializer,
  merged back into one event table/registry in serial cell order;
- :mod:`repro.obs.profile` — the phase profiler: nested wall-clock phase
  timers on the tracer protocol, with hotspot tables and
  flamegraph-folded output (online, or rebuilt offline from recorded
  spans);
- :mod:`repro.obs.attribution` — tail-latency attribution: exact
  per-query phase decomposition, model-choice blame, multi-window SLO
  burn-rate alerting, and tail exemplar retention, feeding ``ramsis
  explain`` and the live ``ramsis top`` view;
- :mod:`repro.obs.report` — run-directory reports (text/HTML) and the
  benchmark history log with regression checking;
- :mod:`repro.obs.log` — package-wide logging setup for the CLI.

Typical use::

    from repro.obs import MetricsRegistry, RecordingTracer, exporters

    tracer, registry = RecordingTracer(), MetricsRegistry()
    config = SimulationConfig(..., tracer=tracer, registry=registry)
    Simulation(config).run(selector, trace)
    exporters.write_chrome_trace(tracer, "trace.json")
    exporters.write_prometheus_text(registry, "metrics.prom")
"""

from repro.obs import exporters
from repro.obs.aggregate import (
    MergedRun,
    ShardInfo,
    ShardTracer,
    export_run_dir,
    merge_run_dir,
    new_run_dir,
    write_live_snapshot,
    write_merged_artifacts,
)
from repro.obs.attribution import (
    AttributionRow,
    BurnWindow,
    LatencyAttributor,
    Lifecycle,
    PhaseBreakdown,
    attribution_from_jsonl,
    attribution_from_table,
    attribution_from_tracer,
)
from repro.obs.audit import (
    AuditAlert,
    AuditBounds,
    AuditConfig,
    AuditReport,
    DriftEvent,
    GuaranteeAuditor,
    OccupancySummary,
    PageHinkley,
    WindowVerdict,
    hoeffding_interval,
    wilson_interval,
)
from repro.obs.columns import EventTable
from repro.obs.log import configure, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import (
    PhaseProfiler,
    PhaseStats,
    folded_lines,
    render_hotspots,
    stats_from_spans,
    stats_from_table,
)
from repro.obs.reconstruct import (
    TraceSummary,
    reconstruct_from_jsonl,
    reconstruct_metrics,
    summarize,
)
from repro.obs.report import (
    Regression,
    append_bench_history,
    check_bench_history,
    render_run_report,
    render_top_frame,
    write_run_report,
)
from repro.obs.trace import (
    NULL_TRACER,
    Event,
    ForwardingTracer,
    NullTracer,
    RecordingTracer,
    Span,
    Tracer,
)

__all__ = [
    "AttributionRow",
    "AuditAlert",
    "AuditBounds",
    "AuditConfig",
    "AuditReport",
    "BurnWindow",
    "Counter",
    "DriftEvent",
    "Event",
    "EventTable",
    "ForwardingTracer",
    "Gauge",
    "GuaranteeAuditor",
    "Histogram",
    "LatencyAttributor",
    "Lifecycle",
    "MergedRun",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OccupancySummary",
    "PageHinkley",
    "PhaseBreakdown",
    "PhaseProfiler",
    "PhaseStats",
    "RecordingTracer",
    "Regression",
    "ShardInfo",
    "ShardTracer",
    "Span",
    "Tracer",
    "TraceSummary",
    "WindowVerdict",
    "append_bench_history",
    "attribution_from_jsonl",
    "attribution_from_table",
    "attribution_from_tracer",
    "check_bench_history",
    "configure",
    "export_run_dir",
    "exporters",
    "folded_lines",
    "get_logger",
    "hoeffding_interval",
    "merge_run_dir",
    "new_run_dir",
    "reconstruct_from_jsonl",
    "reconstruct_metrics",
    "render_hotspots",
    "render_run_report",
    "render_top_frame",
    "stats_from_spans",
    "stats_from_table",
    "summarize",
    "wilson_interval",
    "write_live_snapshot",
    "write_merged_artifacts",
    "write_run_report",
]
