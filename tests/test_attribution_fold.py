"""The columnar attribution fold against the per-record hook oracle.

:meth:`LatencyAttributor.fold` reads a table's arg columns in bulk; the
oracle (``tests/oracles/attribution_fold.py``) calls its streaming hooks
once per lifecycle record.  On generated tables — drops and rejections,
completions without a service start, (worker, query) keys repeated
across cells, missing and odd-typed args, signed zeros, more completions
than the tail reservoir holds — the two must leave the attributor in the
same state bit for bit: its snapshot, every internal table, ring,
reservoir and exemplar, its registry series and its alert stream, also
when the table is folded in two parts into one attributor.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import LatencyAttributor
from repro.obs.columns import EventTable, json_default
from repro.obs.metrics import MetricsRegistry
from tests.oracles.attribution_fold import HookAttributor, hook_fold

MODELS = ["small", "medium", "large"]


def lifecycle_records(
    seed: int,
    queries: int,
    cells: int,
    workers: int,
    p_drop: float,
    p_missing: float,
    p_int: float,
    p_orphan: float,
) -> List[Dict[str, Any]]:
    """JSONL-schema lifecycle records of ``cells`` runs over the same
    query ids, each run's records in a locally shuffled time order."""
    rng = random.Random(seed)
    records: List[Dict[str, Any]] = []

    def maybe(args: Dict[str, Any], key: str, value: Any) -> None:
        if rng.random() >= p_missing:
            args[key] = value

    def latency(value: float) -> Any:
        roll = rng.random()
        if roll < p_int:
            return int(value)
        if roll < p_int + 0.02:
            return -0.0
        return value

    for cell in range(cells):
        events = []
        for query in range(queries):
            worker = rng.randrange(workers)
            track = rng.choice([f"worker-{worker}", f"c{cell}/worker-{worker}"])
            arrival = rng.uniform(0.0, 1_000.0)
            model = rng.choice(MODELS + ["", 7, None])
            if rng.random() < p_drop:
                rejected = rng.random() < 0.5
                args = {"query": query, "satisfied": False, "dropped": True}
                maybe(args, "worker", worker)
                maybe(args, "model", rng.choice(["<dropped>", "", "small"]))
                args["response_ms"] = 0.0 if rejected else latency(
                    rng.uniform(0.0, 200.0)
                )
                events.append((arrival, "completion", track, args, 0.0))
                continue
            batch = rng.randrange(1, 5)
            wait = latency(rng.uniform(0.0, 80.0))
            service = rng.uniform(1.0, 120.0)
            start = arrival + float(wait)
            serve = {"queue_len": 1}
            maybe(serve, "worker", worker)
            maybe(serve, "model", model)
            maybe(serve, "batch", batch)
            events.append((start, "serve", track, serve, service))
            if rng.random() >= p_orphan:
                args = {"query": query, "wait_ms": wait}
                maybe(args, "model", model)
                maybe(args, "batch", batch)
                events.append((start, "service_start", track, args, 0.0))
                if rng.random() < 0.05:  # a second start under one key
                    events.append((start, "service_start", track, dict(args), 0.0))
            response = latency(float(wait) + service)
            args = {"query": query, "satisfied": float(response) <= 100.0}
            maybe(args, "worker", worker)
            maybe(args, "model", model)
            maybe(args, "response_ms", response)
            events.append((start + service, "completion", track, args, 0.0))
        events.sort(key=lambda e: e[0] + rng.uniform(-20.0, 20.0))
        for ts, name, track, args, dur in events:
            record = {
                "type": "span" if name == "serve" else "instant",
                "name": name,
                "track": track,
                "ts_ms": ts,
                "seq": cell,
                "args": args,
            }
            if name == "serve":
                record["dur_ms"] = dur
            records.append(record)
    # Rows the fold must skip: no query, and a foreign instant.
    records.append({"type": "instant", "name": "completion", "track": "worker-0",
                    "ts_ms": 0.0, "args": {"response_ms": 5.0}})
    records.append({"type": "instant", "name": "arrival", "track": "worker-0",
                    "ts_ms": 0.0, "args": {"query": 1}})
    return records


def attributor_pair(config: Dict[str, Any]):
    """Two identically configured attributors — the production one, then
    the hook oracle — each with its own alert list and (when asked for)
    its own registry."""
    out = []
    for cls in (LatencyAttributor, HookAttributor):
        alerts: List[Any] = []
        registry = MetricsRegistry() if config["registry"] else None
        attributor = cls(
            config["slo_ms"],
            registry=registry,
            burn_windows=config["windows"],
            burn_threshold=config["threshold"],
            violation_budget=config["budget"],
            exemplar_quantile=config["quantile"],
            exemplar_capacity=config["capacity"],
            exemplar_warmup=config["warmup"],
            alert_sink=alerts.append,
            record_queries=config["record"],
        )
        out.append((attributor, registry, alerts))
    return out


def state(attributor: LatencyAttributor, registry, alerts) -> Dict[str, str]:
    """Everything a fold leaves behind, as text (``repr`` keeps ``-0.0``
    apart from ``0.0``).  The exemplar heap is compared as the set it
    holds; pending queries as a mapping."""
    hist = attributor._response_hist
    return {
        "snapshot": json.dumps(
            attributor.to_json_dict(), sort_keys=True, default=json_default
        ),
        "rows": repr([(k, vars(r)) for k, r in attributor._rows.items()]),
        "decisions": repr(list(attributor._decisions.items())),
        "pending": repr(sorted(attributor._pending.items())),
        "windows": repr([
            (w.size, w._ring, w._head, w._filled, w.violations, w.alerts, w._armed)
            for w in attributor._windows
        ]),
        "hist": repr((
            hist.state_dict(), hist._ordered, hist._neg_zeros, hist._rng.getstate()
        )),
        "exemplars": repr(sorted(attributor._exemplars, key=lambda e: e[:2])),
        "seq": repr(attributor._seq),
        "breakdowns": repr(attributor.breakdowns),
        "registry": (
            "" if registry is None
            else json.dumps(registry.to_json_dict(), sort_keys=True)
        ),
        "alerts": repr(alerts),
    }


def assert_same(bulk, oracle) -> None:
    got, want = state(*bulk), state(*oracle)
    for key in want:
        assert got[key] == want[key], key


_table = st.fixed_dictionaries({
    "seed": st.integers(0, 2**20),
    "queries": st.sampled_from([1, 3, 25, 120]),
    "cells": st.integers(1, 3),
    "workers": st.integers(1, 3),
    "p_drop": st.sampled_from([0.0, 0.1, 0.5]),
    "p_missing": st.sampled_from([0.0, 0.1, 0.4]),
    "p_int": st.sampled_from([0.0, 0.2]),
    "p_orphan": st.sampled_from([0.0, 0.1]),
})
_config = st.fixed_dictionaries({
    "slo_ms": st.sampled_from([None, 100.0]),
    "windows": st.sampled_from([(1000, 10000), (3, 40), (1,)]),
    "threshold": st.sampled_from([1.0, 0.2, 0.0]),
    "budget": st.sampled_from([None, 0.05]),
    "quantile": st.sampled_from([0.99, 0.5, 0.0]),
    "capacity": st.sampled_from([32, 3, 0]),
    "warmup": st.sampled_from([200, 10, 0]),
    "registry": st.booleans(),
    "record": st.booleans(),
})


class TestBulkFoldEqualsHooks:
    @settings(max_examples=60, deadline=None)
    @given(spec=_table, config=_config, cut=st.floats(0.0, 1.0))
    def test_fold_equals_oracle(self, spec, config, cut):
        table = EventTable.from_records(lifecycle_records(**spec))
        (bulk, *bulk_obs), (oracle, *oracle_obs) = attributor_pair(config)
        # Two folds of a table split at any row: the first leaves pending
        # queries, partly filled rings and a warm reservoir behind.
        split = int(cut * len(table))
        bulk.fold(table.take(np.arange(split)))
        hook_fold(oracle, table.take(np.arange(split)))
        assert_same((bulk, *bulk_obs), (oracle, *oracle_obs))
        bulk.fold(table.take(np.arange(split, len(table))))
        whole = attributor_pair(config)[1]
        hook_fold(whole[0], table)
        assert_same((bulk, *bulk_obs), whole)

    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**20), config=_config)
    def test_past_the_reservoir(self, seed, config):
        """More completions than the 4096-sample tail reservoir holds."""
        table = EventTable.from_records(lifecycle_records(
            seed, 4_500, 1, 2, p_drop=0.05, p_missing=0.05, p_int=0.1,
            p_orphan=0.02,
        ))
        (bulk, *bulk_obs), (oracle, *oracle_obs) = attributor_pair(config)
        bulk.fold(table)
        hook_fold(oracle, table)
        assert bulk._response_hist.count > 4096
        assert_same((bulk, *bulk_obs), (oracle, *oracle_obs))

    def test_low_threshold_alerts_and_registry(self):
        """A budget with a low threshold fires alerts; both folds emit the
        same ones, in the same order, and publish the same series."""
        table = EventTable.from_records(
            lifecycle_records(3, 400, 2, 2, 0.3, 0.0, 0.0, 0.0)
        )
        config = {
            "slo_ms": 100.0, "windows": (5, 50), "threshold": 0.5,
            "budget": 0.1, "quantile": 0.9, "capacity": 4, "warmup": 10,
            "registry": True, "record": False,
        }
        (bulk, *bulk_obs), (oracle, *oracle_obs) = attributor_pair(config)
        bulk.fold(table)
        hook_fold(oracle, table)
        assert len(oracle_obs[1]) > 2
        assert_same((bulk, *bulk_obs), (oracle, *oracle_obs))

    def test_empty_and_foreign_tables(self):
        config = {
            "slo_ms": None, "windows": (1000, 10000), "threshold": 1.0,
            "budget": None, "quantile": 0.99, "capacity": 32, "warmup": 200,
            "registry": True, "record": True,
        }
        (bulk, *bulk_obs), (oracle, *oracle_obs) = attributor_pair(config)
        foreign = EventTable.from_records(
            [{"type": "span", "name": "serve", "track": "worker-0", "ts_ms": 0.0}]
        )
        for table in (EventTable.empty(), foreign):
            bulk.fold(table)
            hook_fold(oracle, table)
        assert_same((bulk, *bulk_obs), (oracle, *oracle_obs))
