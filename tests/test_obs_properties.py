"""Property-based tests for the observability layer (hypothesis).

Three invariant families:

* Span trees built through the public begin/finish API are well nested:
  every span's interval is contained in its parent's, starts are
  monotone in begin order, and ``start <= end`` always.
* Histograms conserve observations: bucket counts sum to the number of
  recorded values, and every value lands in the bucket ``bisect_left``
  names.
* The tracer is a true no-op: a tracing-enabled scenario run produces
  a ``CommandEvent`` stream identical to its tracing-disabled twin,
  for randomized scenario configurations.
"""

from __future__ import annotations

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError
from repro.obs.metrics import Histogram, MetricsRegistry, merge_snapshots
from repro.obs.tracer import NULL_SPAN, SpanTracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


# ---------------------------------------------------------------------------
# Span-tree invariants
# ---------------------------------------------------------------------------

# An op is (kind, amount): push a child, pop (finish deepest), or advance.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.just(0.0)),
        st.tuples(st.just("pop"), st.just(0.0)),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=10.0,
                                             allow_nan=False)),
    ),
    max_size=60,
)


@given(_ops)
def test_span_trees_are_well_nested(ops):
    clock = FakeClock()
    tracer = SpanTracer(clock)
    stack = [tracer.begin("root")]
    for kind, amount in ops:
        if kind == "push":
            stack.append(tracer.begin(f"child.{len(stack)}", parent=stack[-1]))
        elif kind == "pop" and len(stack) > 1:
            stack.pop().finish()
        else:
            clock.now += amount
    while stack:
        stack.pop().finish()

    by_id = {span.span_id: span for span in tracer.spans}
    starts = [span.start for span in tracer.spans]
    assert starts == sorted(starts)  # begin order is time order
    for span in tracer.spans:
        assert span.finished
        assert span.end is not None and span.start <= span.end
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start <= span.start
            assert span.end <= parent.end  # LIFO finish => containment


@given(_ops)
def test_null_span_absorbs_everything(ops):
    # The same op sequence against NULL_SPAN must be inert: no state,
    # no error, chainable.
    span = NULL_SPAN
    for kind, _ in ops:
        span = span.set(key="value").event("anything", extra=1)
    assert span is NULL_SPAN
    assert not NULL_SPAN.finished
    assert NULL_SPAN.finish() is NULL_SPAN
    assert not NULL_SPAN.finished  # finish never sticks


# ---------------------------------------------------------------------------
# Histogram conservation
# ---------------------------------------------------------------------------

_edges = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=8, unique=True,
).map(sorted)

_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    max_size=200,
)


@given(_edges, _values)
def test_histogram_conserves_observations(edges, values):
    hist = Histogram("h", edges=tuple(edges))
    for value in values:
        hist.record(value)
    assert hist.count == len(values)
    assert sum(hist.counts) == len(values)
    if values:
        assert hist.min == min(values)
        assert hist.max == max(values)
        assert hist.total == pytest.approx(sum(values))
    # Every value lands exactly where bisect_left says it should.
    expected = [0] * (len(edges) + 1)
    for value in values:
        expected[bisect_left(list(edges), value)] += 1
    assert list(hist.counts) == expected


@given(_edges, _values, _values)
def test_merged_snapshots_equal_combined_recording(edges, first, second):
    separate_a, separate_b = MetricsRegistry(), MetricsRegistry()
    combined = MetricsRegistry()
    for registry, values in ((separate_a, first), (separate_b, second)):
        hist = registry.histogram("latency", edges=tuple(edges))
        for value in values:
            hist.record(value)
            registry.counter("n").inc()
    both = combined.histogram("latency", edges=tuple(edges))
    for value in [*first, *second]:
        both.record(value)
        combined.counter("n").inc()
    merged = merge_snapshots([separate_a.snapshot(), separate_b.snapshot()])
    expected = combined.snapshot()
    assert merged["counters"] == expected["counters"]
    assert (merged["histograms"]["latency"]["counts"]
            == expected["histograms"]["latency"]["counts"])
    assert merged["histograms"]["latency"]["count"] \
        == expected["histograms"]["latency"]["count"]


def test_histogram_edge_mismatch_rejected():
    registry = MetricsRegistry()
    registry.histogram("h", edges=(1.0, 2.0))
    with pytest.raises(ConfigError):
        registry.histogram("h", edges=(1.0, 3.0))


# ---------------------------------------------------------------------------
# Tracing never perturbs a run
# ---------------------------------------------------------------------------

def _run_scenario(tracing, seed, speaker_kind, owner_count):
    from repro.audio.speech import full_utterance_duration
    from repro.experiments.scenarios import build_scenario

    scenario = build_scenario(
        "apartment", speaker_kind, seed=seed, owner_count=owner_count,
        with_floor_tracking=False, tracing=tracing,
    )
    env = scenario.env
    owner = scenario.owners[0]
    owner.teleport(env.testbed.speaker_room(0).center(height=0.0))
    rng = env.rng.stream("prop.workload")
    for _ in range(2):
        command = scenario.corpus.sample(rng)
        duration = full_utterance_duration(command, rng)
        utterance = owner.speak(command.text, duration)
        env.play_utterance(utterance, owner.device_position())
        env.sim.run_for(duration + 10.0)
    return scenario


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    speaker_kind=st.sampled_from(["echo", "google"]),
    owner_count=st.integers(min_value=1, max_value=2),
)
def test_tracing_never_changes_the_event_stream(seed, speaker_kind, owner_count):
    plain = _run_scenario(False, seed, speaker_kind, owner_count)
    traced = _run_scenario(True, seed, speaker_kind, owner_count)
    assert plain.guard.log.event_stream() == traced.guard.log.event_stream()
    assert len(plain.env.obs.tracer) == 0  # disabled tracer collected nothing
    assert traced.env.obs.tracer.enabled
    # Both runs recorded the same metrics (metrics are always on).
    assert plain.env.obs.metrics.snapshot() == traced.env.obs.metrics.snapshot()


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    speaker_kind=st.sampled_from(["echo", "google"]),
)
def test_traced_spans_are_well_formed_on_real_runs(seed, speaker_kind):
    scenario = _run_scenario(True, seed, speaker_kind, 1)
    tracer = scenario.env.obs.tracer
    by_id = {span.span_id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.end is not None:
            assert span.start <= span.end
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            assert parent.start <= span.start
