"""Figure 8: scaling to many models (§7.3.2).

M=9 (Pareto front) vs M=60 (synthetic interpolated superset), RAMSIS vs
ModelSwitching.  Paper insights asserted:

- RAMSIS gains almost nothing from 60 models vs 9 (it already emulates a
  dense model set through per-batch decisions);
- ModelSwitching improves noticeably with more models, yet stays at or
  below RAMSIS.
"""

import pytest

from benchmarks._common import bench_scale, emit, points_payload
from repro.experiments.fig8 import render_fig8, run_fig8


@pytest.fixture(scope="module")
def fig8_result():
    return run_fig8(scale=bench_scale())


def _mean_gain(result, method):
    low = dict(result.series(method, 9))
    high = dict(result.series(method, 60))
    common = sorted(set(low) & set(high))
    if not common:
        return None
    return sum(high[x] - low[x] for x in common) / len(common)


def test_fig8_run_and_render(benchmark, fig8_result):
    result = benchmark.pedantic(lambda: fig8_result, rounds=1, iterations=1)
    emit(
        "fig8_many_models",
        render_fig8(result),
        data={
            "points": [
                {**row, "method": label, "model_count": count}
                for (label, count, p) in result.points
                for row in points_payload([p])
            ]
        },
    )
    assert {c for _, c, _ in result.points} == {9, 60}


def test_fig8_ramsis_insensitive_to_model_count(fig8_result):
    gain = _mean_gain(fig8_result, "RAMSIS")
    assert gain is not None
    assert abs(gain) < 0.02  # "negligible performance improvement"


def test_fig8_modelswitching_benefits_more(fig8_result):
    ramsis_gain = _mean_gain(fig8_result, "RAMSIS")
    ms_gain = _mean_gain(fig8_result, "MS")
    if ramsis_gain is not None and ms_gain is not None:
        assert ms_gain >= ramsis_gain - 0.005


def test_fig8_ramsis_still_ahead_with_60_models(fig8_result):
    ramsis = dict(fig8_result.series("RAMSIS", 60))
    ms = dict(fig8_result.series("MS", 60))
    for load in set(ramsis) & set(ms):
        assert ramsis[load] >= ms[load] - 0.01
