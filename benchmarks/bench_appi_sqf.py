"""Appendix I: extending RAMSIS to shortest-queue-first load balancing.

Only the MDP transition probabilities change: SQF policies are generated
from the Gupta et al. conditional per-worker arrival rate and deployed with
the SQF balancer.  Asserted: both balancing strategies serve the load with
comparable accuracy and violations across the satisfiable range.
"""

import pytest

from benchmarks._common import bench_scale, emit, points_payload
from repro.experiments.appendix import render_appendix_i, run_appendix_i


def _low_loads():
    """The scale's two lowest constant loads."""
    return bench_scale().constant_loads_qps[:2]


@pytest.fixture(scope="module")
def appi_points():
    scale = bench_scale()
    # Every other load, plus the two lowest ones the low-load test reads.
    loads = sorted(set(scale.constant_loads_qps[::2]) | set(_low_loads()))
    return run_appendix_i(scale=scale, loads_qps=loads)


def test_appi_run_and_render(benchmark, appi_points):
    points = benchmark.pedantic(lambda: appi_points, rounds=1, iterations=1)
    emit(
        "appi_sqf",
        render_appendix_i(points),
        data={
            "points": [
                dict(balancer=label, **row)
                for (label, p) in points
                for row in points_payload([p])
            ]
        },
    )
    assert {label for label, _ in points} == {"round-robin", "shortest-queue"}


def test_appi_sqf_comparable_to_round_robin(appi_points):
    rr = {p.load_qps: p for label, p in appi_points if label == "round-robin"}
    sqf = {p.load_qps: p for label, p in appi_points if label == "shortest-queue"}
    compared = 0
    for load in set(rr) & set(sqf):
        if rr[load].plottable and sqf[load].plottable:
            compared += 1
            assert sqf[load].accuracy == pytest.approx(
                rr[load].accuracy, abs=0.06
            )
    assert compared > 0


def test_appi_sqf_satisfiable_at_low_load(appi_points):
    lows = _low_loads()
    checked = [
        p
        for label, p in appi_points
        if label == "shortest-queue" and p.load_qps in lows
    ]
    assert sorted(p.load_qps for p in checked) == sorted(lows)
    for p in checked:
        assert p.violation_rate < 0.05
