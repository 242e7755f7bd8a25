"""Parallel experiment sweeps.

Every evaluation figure is a grid of independent ``run_method`` cells —
(method, task, SLO, workers, workload, seed) — so figures fan out across a
``ProcessPoolExecutor``, one pool task per cell:

- **Deterministic positional collection.**  Cells are enumerated in the
  figure's nested-loop order, submitted in that order, and results are
  placed back positionally.  A parallel sweep therefore returns the exact
  same :class:`~repro.experiments.runner.MethodPoint` tuple as a serial
  one, regardless of which worker finishes first — every cell runs the
  same ``run_method`` code path on the same seeded arrival realization.
- **Shared solved policies.**  Passing a persistent
  :class:`repro.cache.PolicyCache` gives all workers a common disk layer:
  the first process to solve a policy cell publishes it and every later
  lookup (same config, same tolerance) restores the artifact instead of
  re-solving.  Workers receive only the cache *directory* and rebuild the
  handle locally, so nothing unpicklable crosses the process boundary.
- **Observability.**  Submit/collect progress and per-cell spans appear on
  the tracer's ``sweep`` track — and with a tracer, registry, attributor
  or ``run_dir`` present, the cells themselves stay instrumented across
  the process boundary: each cell records into its own feed, numbered by
  its cell index rather than by the process that ran it, and the feeds
  are merged back into the caller's tracer and registry after the pool
  drains (see :mod:`repro.obs.aggregate`), so identical sweeps write
  identical merged artifacts whatever the scheduling.

:class:`SweepCell` is deliberately a plain frozen dataclass of picklable
leaves (task spec, trace, scalars).  Stochastic execution latency is
carried as a seed (``stochastic_seed``) rather than a live
:class:`~repro.sim.latency_model.StochasticLatency` instance so a worker
process always constructs a fresh, deterministically-seeded RNG.
"""

from __future__ import annotations

import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.arrivals.traces import LoadTrace
from repro.experiments.runner import MethodPoint, run_method
from repro.experiments.scale import ExperimentScale
from repro.experiments.tasks import TaskSpec
from repro.obs.aggregate import (
    MergedRun,
    ShardTracer,
    merge_run_dir,
    new_run_dir,
    write_live_snapshot,
    write_merged_artifacts,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.profiles.models import ModelSet
from repro.sim.latency_model import StochasticLatency

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.cache import PolicyCache
    from repro.obs.attribution import LatencyAttributor
    from repro.obs.metrics import MetricsRegistry

__all__ = ["SweepCell", "run_cell", "run_sweep"]


@dataclass(frozen=True)
class SweepCell:
    """One independent evaluation cell of a figure/table sweep.

    ``tag`` is an opaque caller label carried through untouched (e.g. the
    Fig. 7 variant name or the Fig. 8 model count) so drivers can
    re-associate positional results without parallel bookkeeping lists.
    """

    method: str
    task: TaskSpec
    slo_ms: float
    num_workers: int
    trace: LoadTrace
    seed: int = 11
    oracle_load: bool = False
    #: When set, execution latency is stochastic (Fig. 7's
    #: "implementation" variant) with this RNG seed.
    stochastic_seed: Optional[int] = None
    #: Model-set override (Fig. 8 swaps in the synthetic 60-model set).
    model_set: Optional[ModelSet] = None
    tag: str = ""


def run_cell(
    cell: SweepCell,
    scale: ExperimentScale,
    cache: Optional["PolicyCache"] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional["MetricsRegistry"] = None,
    attributor: Optional["LatencyAttributor"] = None,
) -> MethodPoint:
    """Execute one cell — the single code path serial and parallel share."""
    latency_model = (
        None
        if cell.stochastic_seed is None
        else StochasticLatency(seed=cell.stochastic_seed)
    )
    return run_method(
        cell.method,
        cell.task,
        cell.slo_ms,
        cell.num_workers,
        cell.trace,
        scale,
        seed=cell.seed,
        oracle_load=cell.oracle_load,
        latency_model=latency_model,
        model_set=cell.model_set,
        tracer=tracer,
        registry=registry,
        cache=cache,
        attributor=attributor,
    )


def _cell_label(cell: SweepCell) -> str:
    parts = [cell.method, cell.task.name, f"slo={cell.slo_ms:g}"]
    parts.append(f"K={cell.num_workers}")
    if len(cell.trace.qps) == 1:
        parts.append(f"load={cell.trace.qps[0]:g}")
    if cell.tag:
        parts.append(cell.tag)
    return " ".join(parts)


def _pool_cell(
    payload: Tuple[int, SweepCell, ExperimentScale, Optional[str], Optional[str]]
) -> MethodPoint:
    """Worker-process entry: rebuild the cache handle, run the cell.

    With a run directory (observability shipping on), the cell records
    into its own feed ``shard-<seq>.cols``, registry and attributor,
    numbered by its cell index ``seq`` whichever process runs it; at the
    end of the cell the feed is closed and ``metrics-<seq>.json`` /
    ``attribution-<seq>.json`` are published for ``ramsis top``.
    """
    seq, cell, scale, cache_dir, run_dir = payload
    tracer: Optional[ShardTracer] = None
    registry: Optional["MetricsRegistry"] = None
    attributor: Optional["LatencyAttributor"] = None
    if run_dir is not None:
        from repro.obs.attribution import LatencyAttributor
        from repro.obs.metrics import MetricsRegistry

        tracer = ShardTracer(Path(run_dir) / f"shard-{seq}.cols", pid=seq)
        tracer.set_sequence(seq)
        registry = MetricsRegistry()
        attributor = LatencyAttributor()
    cache: Optional["PolicyCache"] = None
    if cache_dir is not None:
        from repro.cache import PolicyCache

        cache = PolicyCache(directory=cache_dir, registry=registry, tracer=tracer)
    try:
        return run_cell(
            cell, scale, cache=cache, tracer=tracer, registry=registry,
            attributor=attributor,
        )
    finally:
        if tracer is not None:
            tracer.close()
            write_live_snapshot(
                run_dir, registry=registry, attributor=attributor, pid=seq
            )


def run_sweep(
    cells: Sequence[SweepCell],
    scale: ExperimentScale,
    jobs: Optional[int] = None,
    cache: Optional[Union["PolicyCache", str, "Path"]] = None,
    tracer: Optional[Tracer] = None,
    registry: Optional["MetricsRegistry"] = None,
    run_dir: Optional[Union[str, "Path"]] = None,
    attributor: Optional["LatencyAttributor"] = None,
) -> List[MethodPoint]:
    """Run every cell; results come back in the order of ``cells``.

    ``jobs > 1`` fans the cells out across a ``ProcessPoolExecutor``;
    otherwise they run serially in this process.  Both paths return
    identical points (see module docstring).  ``cache`` may be a
    :class:`repro.cache.PolicyCache` or a directory path; parallel workers
    always receive the directory and open their own handle.

    ``tracer`` and ``registry`` instrument **both** paths.  Serially they
    are threaded straight into every cell.  In parallel they cross the
    process boundary by *shipping*: each cell records into its own
    columnar feed ``shard-<i>.cols`` + registry under a per-run directory
    (:mod:`repro.obs.aggregate`), and after the pool drains the feeds
    are merged and replayed into the caller's ``tracer`` (after its own
    records) and ``registry`` in serial cell order, with cell ``i``'s
    tracks renamed ``w<i>/<track>`` and its gauges labelled
    ``worker=<i>`` —
    ``reconstruct_metrics`` on a traced parallel sweep equals the serial
    traced run exactly.  ``run_dir`` pins the shard directory (merged
    artifacts are then written there for ``ramsis report``); without it a
    temporary directory is used and removed after the merge.  One
    ``run_dir`` serves one ``run_sweep`` call — reusing it across calls
    would mix shards from different pools.

    ``attributor`` streams tail-latency attribution
    (:mod:`repro.obs.attribution`).  Serially it is attached to every
    cell's engine directly; in parallel it is folded from the merged
    shard records after the pool drains — the merge replays in serial
    ``(seq, worker, n)`` cell order, so both paths produce exactly equal
    attribution tables (asserted in the test suite).
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    cells = list(cells)
    results: List[Optional[MethodPoint]] = [None] * len(cells)

    cache_obj: Optional["PolicyCache"] = None
    cache_dir: Optional[str] = None
    if cache is not None:
        from repro.cache import PolicyCache

        if isinstance(cache, PolicyCache):
            cache_obj = cache
        else:
            cache_obj = PolicyCache(directory=cache)
        cache_dir = str(cache_obj.directory)

    parallel = jobs is not None and jobs > 1 and len(cells) > 1
    if not parallel:
        for i, cell in enumerate(cells):
            with tracer.span(
                f"cell {_cell_label(cell)}",
                track="sweep",
                args={"index": i, "method": cell.method},
            ):
                results[i] = run_cell(
                    cell,
                    scale,
                    cache=cache_obj,
                    tracer=tracer,
                    registry=registry,
                    attributor=attributor,
                )
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    ship = (
        tracer.enabled
        or registry is not None
        or run_dir is not None
        or attributor is not None
    )
    owns_run_dir = False
    shard_dir: Optional[Path] = None
    if ship:
        if run_dir is None:
            shard_dir = new_run_dir()
            owns_run_dir = True
        else:
            shard_dir = Path(run_dir)
            shard_dir.mkdir(parents=True, exist_ok=True)

    pool_size = min(jobs, len(cells))
    feed_dir = None if shard_dir is None else str(shard_dir)
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        with tracer.span(
            "sweep_submit",
            track="sweep",
            args={"cells": len(cells), "processes": pool_size},
        ):
            futures = [
                (
                    i,
                    cell,
                    pool.submit(
                        _pool_cell, (i, cell, scale, cache_dir, feed_dir)
                    ),
                )
                for i, cell in enumerate(cells)
            ]
        with tracer.span(
            "sweep_collect", track="sweep", args={"cells": len(cells)}
        ):
            # Collect in submit order: placement is positional, so the
            # returned point ordering is deterministic regardless of which
            # worker finishes first.
            for i, cell, future in futures:
                with tracer.span(
                    f"cell {_cell_label(cell)}",
                    track="sweep",
                    args={"index": i, "method": cell.method},
                ):
                    results[i] = future.result()
    if shard_dir is not None:
        merged: MergedRun = merge_run_dir(
            shard_dir,
            tracer=tracer if tracer.enabled else None,
            registry=registry,
        )
        if attributor is not None:
            # The merged table is in serial cell order, so folding it
            # here produces tables exactly equal to a serial run with
            # the attributor attached to every cell.
            attributor.fold(merged.table)
        if owns_run_dir:
            shutil.rmtree(shard_dir, ignore_errors=True)
        else:
            write_merged_artifacts(merged, shard_dir)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]
