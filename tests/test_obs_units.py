"""Unit tests for the observability layer's pieces.

The property and golden suites pin the end-to-end behaviour; these
tests exercise each exported surface in isolation — span lifecycle,
metric instruments, exporters, report rendering, snapshot plumbing —
plus the zero-command rate guards fixed alongside the layer.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.metrics import ConfusionMatrix
from repro.analysis.reporting import fmt_percent, render_metrics_snapshot
from repro.errors import ConfigError
from repro.obs.export import (
    CLASSIFY_SPAN,
    DECISION_SPAN,
    HOLD_SPAN,
    PUSH_SPAN,
    WINDOW_SPAN,
    phase_breakdown,
    render_phase_table,
    render_waterfall,
    span_to_dict,
    spans_to_jsonl,
    write_spans_jsonl,
)
from repro.obs.metrics import MetricsRegistry, histogram_quantile, merge_snapshots
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, Observability, SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


# ---------------------------------------------------------------------------
# Tracer / span lifecycle
# ---------------------------------------------------------------------------

def test_span_lifecycle_and_queries():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    root = tracer.begin("root", window_id=7)
    clock.now = 1.0
    child = tracer.begin("child", parent=root).set(device="tv")
    child.event("retry", attempt=2)
    clock.now = 2.5
    child.finish(status="report")
    clock.now = 4.0
    child.finish(status="late")  # idempotent: end time must not move
    root.finish()

    assert root.start == 0.0 and root.end == 4.0 and root.duration == 4.0
    assert child.end == 2.5 and child.duration == 1.5
    assert child.attrs == {"device": "tv", "status": "late"}
    assert child.events[0].name == "retry" and child.events[0].time == 1.0
    assert tracer.roots() == [root]
    assert tracer.children_of(root) == [child]
    assert tracer.named("child") == [child]
    assert len(tracer) == 2


def test_span_context_manager_finishes_on_exit():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    with tracer.span("phase") as span:
        clock.now = 3.0
    assert span.finished and span.duration == 3.0


def test_begin_with_null_parent_makes_a_root():
    tracer = SpanTracer(FakeClock())
    span = tracer.begin("orphan", parent=NULL_SPAN)
    assert span.parent_id is None
    assert tracer.roots() == [span]


def test_tracer_rejects_clockless_clock():
    with pytest.raises(ConfigError):
        SpanTracer(object())


def test_observability_modes():
    obs = Observability()
    assert obs.tracer is NULL_TRACER and not obs.tracing
    assert obs.metrics.counter("x") is obs.metrics.counter("x")

    traced = Observability(FakeClock(), tracing=True)
    assert traced.tracing and traced.tracer.enabled

    with pytest.raises(ConfigError):
        Observability(tracing=True)  # tracing needs a clock


def test_null_tracer_queries_are_empty():
    assert NULL_TRACER.begin("x") is NULL_SPAN
    with NULL_TRACER.span("y") as span:
        assert span is NULL_SPAN
    assert NULL_TRACER.roots() == []
    assert NULL_TRACER.children_of(NULL_SPAN) == []
    assert NULL_TRACER.named("x") == []
    assert len(NULL_TRACER) == 0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_gauge_tracks_high_water():
    registry = MetricsRegistry()
    gauge = registry.gauge("held")
    gauge.inc(3)
    gauge.inc(2)
    gauge.set(1)
    assert gauge.value == 1.0
    assert gauge.high_water == 5.0


def test_scope_prefixes_names():
    registry = MetricsRegistry()
    scope = registry.scope("proxy")
    assert scope.counter("flows").name == "proxy.flows"
    assert scope.counter("flows") is registry.counter("proxy.flows")
    assert scope.gauge("open").name == "proxy.open"
    assert scope.histogram("hold").name == "proxy.hold"


def test_histogram_quantile_from_snapshot():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", edges=(1.0, 2.0, 4.0))
    for value in (0.5, 0.9, 1.5, 3.0, 9.0):
        hist.record(value)
    snap = registry.snapshot()["histograms"]["latency"]
    assert histogram_quantile(snap, 0.0) == 1.0  # first populated bucket edge
    assert histogram_quantile(snap, 0.5) == 2.0
    assert histogram_quantile(snap, 0.8) == 4.0
    assert histogram_quantile(snap, 1.0) == 9.0  # overflow -> recorded max
    with pytest.raises(ConfigError):
        histogram_quantile(snap, 1.5)
    empty = MetricsRegistry().histogram("e", edges=(1.0,))
    empty_snap = {"edges": list(empty.edges), "counts": list(empty.counts),
                  "count": 0, "total": 0.0, "min": None, "max": None}
    assert math.isnan(histogram_quantile(empty_snap, 0.5))


def test_merge_snapshots_gauges_and_none_entries():
    first, second = MetricsRegistry(), MetricsRegistry()
    first.gauge("open").set(3.0)
    second.gauge("open").set(5.0)
    second.gauge("open").set(2.0)  # high water stays 5
    merged = merge_snapshots([first.snapshot(), None, second.snapshot()])
    assert merged["gauges"]["open"] == {"value": 3.0, "high_water": 5.0}

    mismatched = MetricsRegistry()
    mismatched.histogram("h", edges=(1.0,)).record(0.5)
    other = MetricsRegistry()
    other.histogram("h", edges=(2.0,)).record(0.5)
    with pytest.raises(ConfigError):
        merge_snapshots([mismatched.snapshot(), other.snapshot()])


# ---------------------------------------------------------------------------
# Export: JSONL, phase breakdown, waterfall
# ---------------------------------------------------------------------------

def _pipeline_forest():
    """A hand-built span forest shaped like one guarded command."""
    clock = FakeClock()
    tracer = SpanTracer(clock)
    root = tracer.begin(WINDOW_SPAN, window_id=1, classification="command")
    classify = tracer.begin(CLASSIFY_SPAN, parent=root)
    clock.now = 0.4
    classify.finish()
    hold = tracer.begin(HOLD_SPAN, parent=root)
    decision = tracer.begin(DECISION_SPAN, parent=root, devices=2)
    slow = tracer.begin(PUSH_SPAN, parent=decision, device="slow", attempt=1)
    fast = tracer.begin(PUSH_SPAN, parent=decision, device="fast", attempt=1)
    clock.now = 0.7
    fast.finish(status="report", rssi=-42)
    clock.now = 1.2
    slow.finish(status="report", rssi=-60)
    decision.finish(verdict="legitimate", degraded=False, retries=0)
    decision.event("late-note")  # events may land after finish
    clock.now = 1.3
    hold.finish(records=4, outcome="released")
    root.finish(outcome="released")
    return tracer


def test_span_to_dict_and_jsonl(tmp_path):
    tracer = _pipeline_forest()
    root = tracer.roots()[0]
    payload = span_to_dict(root)
    assert payload["name"] == WINDOW_SPAN
    assert payload["attrs"]["window_id"] == 1
    assert payload["parent_id"] is None

    # Non-JSON attribute values fall back to str().
    odd = tracer.begin("odd", marker=object())
    assert isinstance(span_to_dict(odd)["attrs"]["marker"], str)

    text = spans_to_jsonl(tracer.spans)
    lines = text.splitlines()
    assert len(lines) == len(tracer)
    assert all(json.loads(line)["span_id"] for line in lines)

    target = write_spans_jsonl(tracer, tmp_path / "nested" / "spans.jsonl")
    assert target.read_text(encoding="utf-8") == text + "\n"


def test_phase_breakdown_reconstructs_fig4_timings():
    rows = phase_breakdown(_pipeline_forest())
    assert len(rows) == 1
    row = rows[0]
    assert row.window_id == 1
    assert row.classification == "command"
    assert row.recognition == pytest.approx(0.4)
    assert row.hold == pytest.approx(0.9)
    assert row.decision == pytest.approx(0.8)
    assert row.push_rtt == pytest.approx(0.3)  # fastest reporting device
    assert row.verdict == "legitimate"
    assert row.outcome == "released"

    table = render_phase_table(rows)
    assert "push rtt" in table and "0.300s" in table and "released" in table


def test_phase_breakdown_handles_missing_children():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    root = tracer.begin(WINDOW_SPAN, window_id=2)
    clock.now = 1.0
    root.finish()  # no classify/hold/decision children at all
    row = phase_breakdown(tracer)[0]
    assert row.recognition is None and row.decision is None
    assert row.push_rtt is None and row.verdict == "-"
    assert "—" in render_phase_table([row])


def test_render_waterfall_filters_roots():
    tracer = _pipeline_forest()
    tracer.begin("proxy.flow", flow_id=9).finish(reason="closed")
    everything = render_waterfall(tracer)
    assert "proxy.flow" in everything and WINDOW_SPAN in everything
    commands_only = render_waterfall(tracer, roots=[WINDOW_SPAN])
    assert "proxy.flow" not in commands_only
    assert "#" in commands_only  # bars drawn
    assert "· late-note" in commands_only  # span events annotated


# ---------------------------------------------------------------------------
# Reporting and snapshot plumbing
# ---------------------------------------------------------------------------

def test_render_metrics_snapshot_tables_and_fallback():
    registry = MetricsRegistry()
    registry.counter("decision.queries").inc(3)
    registry.gauge("proxy.open").set(2.0)
    registry.histogram("decision.latency", edges=(1.0, 2.0)).record(1.5)
    registry.histogram("push.rtt", edges=(1.0,))  # empty -> dashes
    text = render_metrics_snapshot(registry.snapshot())
    assert "decision.queries" in text and "counter" in text
    assert "2 (high 2)" in text
    assert "decision.latency" in text and "1.5" in text
    assert "—" in text  # the empty histogram row

    assert "(no metrics recorded)" in render_metrics_snapshot({})


# ---------------------------------------------------------------------------
# Zero-command rate guards (bugfix riding along with the layer)
# ---------------------------------------------------------------------------

def test_confusion_matrix_renders_empty_without_nan():
    text = ConfusionMatrix().render()
    assert "nan" not in text.lower()
    assert "—" in text


def test_fmt_percent_nan_is_a_dash():
    assert fmt_percent(float("nan")) == "—"
    assert fmt_percent(0.5) == "50.00%"


# ---------------------------------------------------------------------------
# Quantile sketch (fleet latency percentiles)
# ---------------------------------------------------------------------------

class TestQuantileSketch:
    def _sketch(self, values, alpha=0.01):
        from repro.obs.metrics import QuantileSketch

        sketch = QuantileSketch(alpha)
        sketch.add(values)
        return sketch

    def test_relative_error_bound(self):
        import random

        rng = random.Random(5)
        values = sorted(rng.uniform(0.5, 40.0) for _ in range(5000))
        sketch = self._sketch(values, alpha=0.01)
        for q in (0.05, 0.5, 0.9, 0.99):
            exact = values[max(0, math.ceil(q * len(values)) - 1)]
            approx = sketch.quantile(q)
            assert abs(approx - exact) <= 0.011 * exact

    def test_merge_matches_all_at_once(self):
        left = self._sketch([1.0, 2.0, 3.0, 100.0])
        right = self._sketch([0.5, 4.0, 0.0, 2.5])
        combined = self._sketch([1.0, 2.0, 3.0, 100.0, 0.5, 4.0, 0.0, 2.5])
        left.merge(right)
        assert left.to_dict() == combined.to_dict()

    def test_merge_alpha_mismatch_rejected(self):
        from repro.obs.metrics import QuantileSketch

        with pytest.raises(ConfigError):
            QuantileSketch(0.01).merge(QuantileSketch(0.02))

    def test_negative_value_rejected(self):
        from repro.obs.metrics import QuantileSketch

        with pytest.raises(ConfigError):
            QuantileSketch().add([2.0, -1.0])

    def test_empty_quantile_is_nan(self):
        from repro.obs.metrics import QuantileSketch

        assert math.isnan(QuantileSketch().quantile(0.5))

    def test_roundtrip_through_dict(self):
        from repro.obs.metrics import QuantileSketch

        sketch = self._sketch([0.0, 1.5, 2.5, 9.0])
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.9) == sketch.quantile(0.9)

    def test_zero_values_tracked(self):
        sketch = self._sketch([0.0, 0.0, 5.0])
        assert sketch.quantile(0.5) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_add_fills_the_buckets_of_a_per_bucket_loop(self, seed):
        # The buckets add() fills, against the loop that adds each
        # nonzero histogram entry as numpy scalars, over two calls (the
        # second lands on buckets the first filled) of random arrays
        # with zeros in them.
        import numpy as np

        from repro.obs.metrics import QuantileSketch

        rng = np.random.default_rng(seed)
        sketch = QuantileSketch(0.01)
        buckets = {}
        for _ in range(2):
            values = rng.lognormal(0.0, 2.0, size=int(rng.integers(20, 400)))
            values[rng.random(values.size) < 0.2] = 0.0
            sketch.add(values)
            tracked = values[values > QuantileSketch.MIN_TRACKED]
            indices = np.ceil(np.log(tracked) / sketch._log_gamma).astype(np.int64)
            base = int(indices.min())
            histogram = np.bincount(indices - base)
            for offset in np.flatnonzero(histogram):
                index = base + int(offset)
                buckets[index] = buckets.get(index, 0) + int(histogram[offset])
        assert sketch.buckets == buckets
        assert all(type(key) is int and type(n) is int for key, n in sketch.buckets.items())
