"""Offline policy-bank generation: per-load solves vs. one stacked bank.

Times three passes over the same 32-cell load grid and gates the tentpole
invariants of the pipeline:

- **cold serial**: a per-load :func:`repro.core.generator.generate_policy`
  loop (each call a one-load stacked bank), persisting each cell into a
  fresh cache directory;
- **cold stacked**: ``PolicyGenerator.generate_many``, which solves the
  whole grid as *one* batched tensor program
  (:class:`repro.core.bank.StackedBankMDP`);
- **warm cross-path**: a stacked generator pointed at the serial pass's
  cache directory, resolving every cell from disk — proving the two
  passes share per-load cache keys.

Both banks must be byte-identical (the stacked sweep is float-``==`` to
independent per-load solves), a subset of loads is additionally checked
against the loop oracle (``tests/oracles/loop_mdp.py``), and the stacked
pass must beat the cold serial pass by ``RAMSIS_BENCH_MIN_SPEEDUP``
(default 1.4x at bench scale, 1.2x at ``RAMSIS_BENCH_SCALE=smoke``).
Both passes run the same Bellman kernel
(:class:`repro.core.mdp.BellmanKernel`) in one process, so that ratio is
exactly what stacking loads into one solve adds.

Headline numbers land in ``benchmarks/out/policy_bank.{txt,json}`` and
``BENCH_policy_bank.json`` at the repo root, regression-gated in CI via
``ramsis bench-history --check``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from benchmarks._common import bench_scale, bench_use_cache, emit
from repro.cache import PolicyCache
from repro.core.config import WorkerMDPConfig
from repro.core.generator import PolicyGenerator, generate_policy
from repro.experiments.tasks import image_task
from tests.oracles.loop_mdp import generate_loop_policy

#: Load grid (QPS) — 32 cells, the acceptance benchmark's shape.
LOADS = [20.0 + 2.5 * i for i in range(32)]

#: Subset cross-checked against the loop oracle (exact but far too slow
#: to run on all 32 cells every benchmark run).
LOOP_CHECK_LOADS = LOADS[::8]

#: Value-iteration tolerance of every pass (the generator default).
TOL = 1e-7


def _smoke() -> bool:
    return os.environ.get("RAMSIS_BENCH_SCALE", "bench") == "smoke"


def _min_speedup() -> float:
    env = os.environ.get("RAMSIS_BENCH_MIN_SPEEDUP")
    if env:
        return float(env)
    return 1.2 if _smoke() else 1.4


def _bank_config() -> WorkerMDPConfig:
    scale = bench_scale()
    task = image_task()
    return WorkerMDPConfig.default_poisson(
        task.model_set,
        slo_ms=task.slos_ms[0],
        load_qps=max(LOADS),
        num_workers=2,
        fld_resolution=scale.fld_resolution,
        max_batch_size=scale.max_batch_size,
    )


def _bank_bytes(results) -> str:
    return json.dumps(
        [r.policy.to_json_dict() for r in results], sort_keys=True
    )


def test_policy_bank_speedups(tmp_path):
    config = _bank_config()
    use_cache = bench_use_cache()

    dir_serial = tmp_path / "cache-serial"

    start = time.perf_counter()
    serial_cache = PolicyCache(directory=dir_serial) if use_cache else None
    serial = []
    for load in LOADS:
        cell = config.with_load(load)
        result = generate_policy(cell, tolerance=TOL)
        if serial_cache is not None:
            serial_cache.put(cell, TOL, result)
        serial.append(result)
    cold_serial_s = time.perf_counter() - start

    start = time.perf_counter()
    stacked = PolicyGenerator(config, tolerance=TOL).generate_many(LOADS)
    stacked_s = time.perf_counter() - start

    assert _bank_bytes(serial) == _bank_bytes(stacked), (
        "stacked bank differs from serial bank"
    )
    assert all(
        a.guarantees == b.guarantees for a, b in zip(serial, stacked)
    ), "stacked guarantees differ from serial guarantees"

    # Spot-check the stack against the loop oracle: exact agreement on a
    # subset ties the whole chain back to the per-action formulation.
    for load in LOOP_CHECK_LOADS:
        reference = stacked[LOADS.index(load)]
        looped = generate_loop_policy(config.with_load(load), tolerance=TOL)
        assert json.dumps(
            looped.policy.to_json_dict(), sort_keys=True
        ) == json.dumps(reference.policy.to_json_dict(), sort_keys=True), (
            f"stacked policy at {load} qps differs from the loop oracle"
        )

    warm_s = None
    if use_cache:
        # Cross-path cache sharing: the stacked generator resolves the
        # serial pass's artifacts — per-load keys are path-agnostic.
        warm_cache = PolicyCache(directory=dir_serial)
        start = time.perf_counter()
        warm = PolicyGenerator(
            config, tolerance=TOL, cache=warm_cache
        ).generate_many(LOADS)
        warm_s = time.perf_counter() - start
        assert warm_cache.hits == len(LOADS), (
            f"expected {len(LOADS)} warm hits, got {warm_cache.hits}"
        )
        assert all(r.from_cache for r in warm)
        assert _bank_bytes(warm) == _bank_bytes(serial), (
            "cached bank differs from solved bank"
        )
        assert warm_s < cold_serial_s, (
            f"warm cache ({warm_s:.3f}s) not faster than cold serial "
            f"({cold_serial_s:.3f}s)"
        )

    floor = _min_speedup()
    stacked_speedup_vs_serial = cold_serial_s / stacked_s
    warm_speedup = None if warm_s is None else cold_serial_s / warm_s
    assert stacked_speedup_vs_serial >= floor, (
        f"stacked bank solve {stacked_s:.3f}s vs serial {cold_serial_s:.3f}s "
        f"= {stacked_speedup_vs_serial:.2f}x, below the {floor:.1f}x floor"
    )

    lines = [
        f"policy bank: {len(LOADS)}-cell grid, "
        f"fld_resolution={config.fld_resolution}",
        f"cold serial:   {cold_serial_s:8.3f} s",
        f"cold stacked:  {stacked_s:8.3f} s "
        f"({stacked_speedup_vs_serial:.2f}x vs serial, "
        f"floor {floor:.1f}x)",
    ]
    if warm_s is not None:
        lines.append(
            f"warm cache:    {warm_s:8.3f} s ({warm_speedup:.2f}x)"
        )
    emit(
        "policy_bank",
        "\n".join(lines),
        data={
            "loads_qps": LOADS,
            "fld_resolution": config.fld_resolution,
            "scale": "smoke" if _smoke() else "bench",
            "min_speedup": floor,
            "cold_serial_s": cold_serial_s,
            "cold_stacked_s": stacked_s,
            "warm_cache_s": warm_s,
            "stacked_speedup_vs_serial": stacked_speedup_vs_serial,
            "warm_cache_speedup": warm_speedup,
        },
        root=True,
    )


def test_policy_bank_corruption_fallback(tmp_path):
    """A truncated artifact falls back to a solve and is overwritten."""
    if not bench_use_cache():
        pytest.skip("--no-cache")
    config = _bank_config()
    cache = PolicyCache(directory=tmp_path / "cache")
    reference = PolicyGenerator(config, cache=cache).generate(LOADS[0])
    artifact = next((tmp_path / "cache").glob("??/*.json"))
    artifact.write_text(artifact.read_text()[:100])

    recovery_cache = PolicyCache(directory=tmp_path / "cache")
    recovered = PolicyGenerator(config, cache=recovery_cache).generate(LOADS[0])
    assert recovery_cache.invalidations == 1
    assert not recovered.from_cache
    assert json.dumps(recovered.policy.to_json_dict(), sort_keys=True) == (
        json.dumps(reference.policy.to_json_dict(), sort_keys=True)
    )
