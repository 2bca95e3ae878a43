"""Figure 10: Up/Down vs route traces, slope + y-intercept separation.

Paper: Route-1 slopes sit within (-1, 1) while stair-like traces sit
outside; slope alone confuses Routes 2/3 with Up/Down, but the joint
(slope, y-intercept) features separate them cleanly.
"""

from __future__ import annotations

from repro.experiments.fig10 import run_fig10


def test_fig10_floor_traces(benchmark, publish, results_dir):
    result = benchmark.pedantic(
        lambda: run_fig10(seed=10), rounds=1, iterations=1,
    )
    publish("fig10_floor_traces", result.render())
    from repro.analysis.export import export_trace_features
    export_trace_features(result, results_dir / "fig10_traces.csv")
    stats = result.route_stats("training")
    # The paper's slope gate at +-1.
    assert abs(stats["route1"]["slope_min"]) < 1.0
    assert abs(stats["route1"]["slope_max"]) < 1.0
    for route in ("up", "down", "route2", "route3"):
        assert min(abs(stats[route]["slope_min"]), abs(stats[route]["slope_max"])) > 1.0
    # Routes 2/3 overlap Up/Down in slope but split on intercept.
    assert abs(stats["route2"]["intercept_mean"] - stats["up"]["intercept_mean"]) > 1.0
    assert abs(stats["route3"]["intercept_mean"] - stats["down"]["intercept_mean"]) > 1.0
    assert result.accuracy() >= 0.9
