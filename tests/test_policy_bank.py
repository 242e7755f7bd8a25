"""Policy-bank generation: parallel/serial equivalence, caching, warm starts."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.arrivals.distributions import DeterministicArrivals, GammaArrivals
from repro.cache import PolicyCache
from repro.core.bank import StackedBankMDP, solve_stacked_bank
from repro.core.generator import PolicyGenerator, generate_policy
from repro.core.transitions import _POISSON_SUM_MAX_X, gaps_for_distribution
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RecordingTracer
from tests.oracles.loop_mdp import generate_loop_policy

TOL = 1e-6
LOADS = [15.0, 25.0, 35.0, 45.0]


def _policy_bytes(result) -> str:
    return json.dumps(result.policy.to_json_dict(), sort_keys=True)


def _bank_bytes(results) -> str:
    return json.dumps(
        [r.policy.to_json_dict() for r in results], sort_keys=True
    )


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------
def test_parallel_bank_matches_serial(tiny_config):
    serial = PolicyGenerator(tiny_config, tolerance=TOL).generate_many(LOADS)
    parallel = PolicyGenerator(tiny_config, tolerance=TOL).generate_many(
        LOADS, max_workers=2
    )
    assert _bank_bytes(serial) == _bank_bytes(parallel)
    for s, p in zip(serial, parallel):
        assert s.guarantees == p.guarantees
        assert s.iterations == p.iterations


def test_generate_many_preserves_load_order(tiny_config):
    generator = PolicyGenerator(tiny_config, tolerance=TOL)
    # Pre-warm one middle cell so the pending set is a strict subset.
    generator.generate(LOADS[2])
    results = generator.generate_many(LOADS, max_workers=2)
    assert [r.policy.load_qps for r in results] == LOADS


def test_parallel_bank_emits_spans_and_counters(tiny_config):
    registry = MetricsRegistry()
    tracer = RecordingTracer()
    generator = PolicyGenerator(
        tiny_config, tolerance=TOL, tracer=tracer, registry=registry
    )
    generator.generate_many(LOADS, max_workers=2)
    bank_spans = [s.name for s in tracer.spans if s.track == "policy_bank"]
    assert "policy_bank_submit" in bank_spans
    assert "policy_bank_collect" in bank_spans
    assert sum(s.startswith("cell ") for s in bank_spans) == len(LOADS)
    solves = registry.counter(
        "policy_bank_cells_total",
        labels={"source": "solve"},
    )
    assert solves.value == len(LOADS)


# ----------------------------------------------------------------------
# Cache layers
# ----------------------------------------------------------------------
def test_memory_cache_hits_counted(tiny_config):
    registry = MetricsRegistry()
    generator = PolicyGenerator(tiny_config, tolerance=TOL, registry=registry)
    first = generator.generate_many(LOADS)
    second = generator.generate_many(LOADS)
    assert generator.cache_size() == len(LOADS)
    assert _bank_bytes(first) == _bank_bytes(second)
    hits = registry.counter(
        "policy_bank_cells_total", labels={"source": "memory"}
    )
    assert hits.value == len(LOADS)


def test_disk_cache_shared_across_generators(tiny_config, tmp_path):
    cache_a = PolicyCache(directory=tmp_path)
    bank = PolicyGenerator(
        tiny_config, tolerance=TOL, cache=cache_a
    ).generate_many(LOADS)
    assert cache_a.stores == len(LOADS)

    registry = MetricsRegistry()
    cache_b = PolicyCache(directory=tmp_path)
    restored = PolicyGenerator(
        tiny_config, tolerance=TOL, cache=cache_b, registry=registry
    ).generate_many(LOADS)
    assert cache_b.hits == len(LOADS)
    assert all(r.from_cache for r in restored)
    assert _bank_bytes(restored) == _bank_bytes(bank)
    disk_hits = registry.counter(
        "policy_bank_cells_total", labels={"source": "disk"}
    )
    assert disk_hits.value == len(LOADS)


def test_tolerance_partitions_the_cache(tiny_config, tmp_path):
    cache = PolicyCache(directory=tmp_path)
    PolicyGenerator(tiny_config, tolerance=1e-6, cache=cache).generate(25.0)
    fresh = PolicyCache(directory=tmp_path)
    result = PolicyGenerator(tiny_config, tolerance=1e-7, cache=fresh).generate(
        25.0
    )
    assert not result.from_cache
    assert fresh.misses == 1


# ----------------------------------------------------------------------
# Serial misses: one stacked solve, byte-equal to per-load generate_policy
# ----------------------------------------------------------------------
def _per_load(config, loads, initials=None):
    initials = initials or {}
    return [
        generate_policy(
            config.with_load(q), tolerance=TOL, initial=initials.get(q)
        )
        for q in loads
    ]


@pytest.mark.parametrize("cells", [1, 2, 3, 4])
def test_serial_misses_solve_as_one_stacked_bank(tiny_config, cells):
    loads = LOADS[:cells]
    tracer = RecordingTracer()
    registry = MetricsRegistry()
    stacked = PolicyGenerator(
        tiny_config, tolerance=TOL, tracer=tracer, registry=registry
    ).generate_many(loads)
    spans = [s for s in tracer.spans if s.track == "policy_bank"]
    assert [s.name for s in spans] == ["policy_bank_stacked"]
    assert spans[0].args["cells"] == cells
    solves = registry.counter(
        "policy_bank_cells_total", labels={"source": "solve"}
    )
    assert solves.value == cells

    reference = _per_load(tiny_config, loads)
    assert _bank_bytes(stacked) == _bank_bytes(reference)
    for s, r in zip(stacked, reference):
        assert s.guarantees == r.guarantees
        assert s.iterations == r.iterations


def _cell_sources(registry):
    return {
        source: registry.counter(
            "policy_bank_cells_total", labels={"source": source}
        ).value
        for source in ("memory", "disk", "solve")
    }


def test_generate_is_a_one_load_generate_many(tiny_config, tmp_path):
    reg_one, reg_many = MetricsRegistry(), MetricsRegistry()
    one = PolicyGenerator(
        tiny_config,
        tolerance=TOL,
        cache=PolicyCache(directory=tmp_path / "one"),
        registry=reg_one,
    )
    many = PolicyGenerator(
        tiny_config,
        tolerance=TOL,
        cache=PolicyCache(directory=tmp_path / "many"),
        registry=reg_many,
    )
    q = LOADS[1]
    assert _policy_bytes(one.generate(q)) == _policy_bytes(
        many.generate_many([q])[0]
    )
    assert _cell_sources(reg_one) == _cell_sources(reg_many)
    # Memory hits, then disk hits through fresh generators, alike.
    one.generate(q)
    many.generate_many([q])
    assert _cell_sources(reg_one) == _cell_sources(reg_many)
    for name, registry in (("one", reg_one), ("many", reg_many)):
        PolicyGenerator(
            tiny_config,
            tolerance=TOL,
            cache=PolicyCache(directory=tmp_path / name),
            registry=registry,
        ).generate(q)
    assert _cell_sources(reg_one) == _cell_sources(reg_many) == {
        "memory": 1, "disk": 1, "solve": 1,
    }


def test_traced_serial_and_pool_banks_record_the_same_sweeps(
    tiny_config, tmp_path
):
    loads = [10.0, 20.0, 30.0]
    banks, restored, sweeps = [], [], []
    for max_workers in (None, 2):
        tracer = RecordingTracer()
        cache_dir = tmp_path / f"cache-{max_workers}"
        banks.append(
            PolicyGenerator(
                tiny_config, tracer=tracer, cache=PolicyCache(cache_dir)
            ).generate_many(loads, max_workers=max_workers)
        )
        restored.append(
            PolicyGenerator(
                tiny_config, cache=PolicyCache(cache_dir)
            ).generate_many(loads)
        )
        # The vi_sweep events at iteration k count the cells still
        # sweeping at k, so this tally fixes every cell's sweep count.
        sweeps.append(
            Counter(
                ev.args["iteration"]
                for ev in tracer.events
                if not ev.is_counter and ev.name == "vi_sweep"
            )
        )
    serial, pool = banks
    assert all(r.residuals is not None for r in serial)
    assert [len(r.residuals) for r in serial] == [r.iterations for r in serial]
    assert [r.residuals for r in serial] == [r.residuals for r in pool]
    assert [r.residuals for r in restored[0]] == [
        r.residuals for r in restored[1]
    ]
    cells = Counter(k for r in serial for k in range(1, r.iterations + 1))
    assert sweeps[0] == sweeps[1] == cells


def test_explicit_workers_keep_the_pool_under_auto(tiny_config):
    tracer = RecordingTracer()
    PolicyGenerator(tiny_config, tolerance=TOL, tracer=tracer).generate_many(
        LOADS, max_workers=2
    )
    spans = [s.name for s in tracer.spans if s.track == "policy_bank"]
    assert "policy_bank_stacked" not in spans
    assert "policy_bank_submit" in spans


def test_stacked_bank_matches_serial(tiny_config):
    serial = _per_load(tiny_config, LOADS)
    stacked = PolicyGenerator(tiny_config, tolerance=TOL).generate_many(LOADS)
    assert _bank_bytes(serial) == _bank_bytes(stacked)
    for s, p in zip(serial, stacked):
        assert s.guarantees == p.guarantees
        assert s.iterations == p.iterations


def test_stacked_shares_cache_keys_with_serial(tiny_config, tmp_path):
    cache_a = PolicyCache(directory=tmp_path)
    bank = PolicyGenerator(
        tiny_config, tolerance=TOL, cache=cache_a
    ).generate_many(LOADS, max_workers=2)
    assert cache_a.stores == len(LOADS)

    cache_b = PolicyCache(directory=tmp_path)
    restored = PolicyGenerator(
        tiny_config, tolerance=TOL, cache=cache_b
    ).generate_many(LOADS)
    assert cache_b.hits == len(LOADS)
    assert all(r.from_cache for r in restored)
    assert _bank_bytes(restored) == _bank_bytes(bank)


def test_stacked_threads_initials(tiny_config):
    seed = generate_policy(tiny_config.with_load(20.0), tolerance=TOL)
    cold = _per_load(tiny_config, LOADS)
    initials = {q: seed.values for q in LOADS}
    warm = PolicyGenerator(tiny_config, tolerance=TOL).generate_many(
        LOADS, initials=initials
    )
    assert _bank_bytes(warm) == _bank_bytes(cold)
    assert all(w.iterations <= c.iterations for w, c in zip(warm, cold))
    # Warm-started stacked cells follow the per-load warm trajectory.
    warm_reference = _per_load(tiny_config, LOADS, initials)
    assert [w.iterations for w in warm] == [
        r.iterations for r in warm_reference
    ]


# ----------------------------------------------------------------------
# Every stacked cell, the first included, is built from the batched seed
# ----------------------------------------------------------------------
SEEDED_CASES = [
    pytest.param(dict(num_workers=2), LOADS[:3], id="erlang-2"),
    pytest.param(dict(num_workers=3), LOADS[:3], id="erlang-3"),
    pytest.param(
        dict(num_workers=2, arrivals=GammaArrivals(25.0, shape=0.75)),
        LOADS[:3],
        id="gamma-non-integer-shape",
    ),
    pytest.param(
        dict(num_workers=2, arrivals=DeterministicArrivals(25.0)),
        LOADS[:3],
        id="deterministic",
    ),
    pytest.param(dict(num_workers=2), [25.0, 20000.0], id="underflow-load"),
]


@pytest.mark.parametrize("overrides, loads", SEEDED_CASES)
def test_every_stacked_cell_matches_per_load_and_loop_oracle(
    tiny_config, tmp_path, overrides, loads
):
    configs = [replace(tiny_config, **overrides).with_load(q) for q in loads]
    bank = StackedBankMDP(configs)
    assert all(cell._kernel_seed is not None for cell in bank.cells)
    if loads[-1] > 1000.0:
        # Some service latency spans more than _POISSON_SUM_MAX_X gap
        # scales, so the recurrence hands those elements to gammainc.
        gaps = gaps_for_distribution(configs[-1].per_worker_arrivals())
        worst = max(
            bank.cells[-1].latency_ms(m, n)
            for m in range(bank.cells[-1].num_models)
            for n in range(1, bank.cells[-1].max_queue + 1)
        )
        assert worst / gaps.scale_ms > _POISSON_SUM_MAX_X

    stacked = solve_stacked_bank(configs, tolerance=TOL)
    paths = [tmp_path / name for name in ("bank", "solo", "loop")]
    for config, result in zip(configs, stacked):
        solo = generate_policy(config, tolerance=TOL)
        loop = generate_loop_policy(config, tolerance=TOL)
        for path, r in zip(paths, (result, solo, loop)):
            r.policy.save(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].read_bytes() == paths[2].read_bytes()
        assert result.guarantees == solo.guarantees == loop.guarantees
        assert result.iterations == solo.iterations == loop.iterations


# ----------------------------------------------------------------------
# Warm starts
# ----------------------------------------------------------------------
def test_warm_start_matches_cold_policy(tiny_config):
    neighbour = generate_policy(tiny_config.with_load(20.0), tolerance=TOL)
    cold = generate_policy(tiny_config.with_load(25.0), tolerance=TOL)
    warm = generate_policy(
        tiny_config.with_load(25.0), tolerance=TOL, initial=neighbour.values
    )
    assert _policy_bytes(warm) == _policy_bytes(cold)
    assert warm.iterations <= cold.iterations


def test_generate_many_threads_initials(tiny_config):
    generator = PolicyGenerator(tiny_config, tolerance=TOL)
    seed = generator.generate(20.0)
    cold = PolicyGenerator(tiny_config, tolerance=TOL).generate(25.0)
    warm = generator.generate_many([25.0], initials={25.0: seed.values})[0]
    assert _policy_bytes(warm) == _policy_bytes(cold)


# ----------------------------------------------------------------------
# Policy serialization (deterministic artifact bytes)
# ----------------------------------------------------------------------
def test_policy_save_bytes_are_stable(tiny_config, tmp_path):
    result = generate_policy(tiny_config, tolerance=TOL)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    result.policy.save(a)
    result.policy.save(b)
    assert a.read_bytes() == b.read_bytes()
    # Keys are sorted, so a re-serialized round trip is also byte-stable.
    from repro.core.policy import Policy

    loaded = Policy.load(a)
    loaded.save(b)
    assert a.read_bytes() == b.read_bytes()
    assert np.isclose(loaded.metadata.expected_accuracy,
                      result.policy.metadata.expected_accuracy)
