"""Property-based tests (hypothesis) on core data structures and
invariants: event ordering, metrics algebra, regression, TLS sequencing,
geometry, corpus construction, and the recognizer's length grammar."""

from __future__ import annotations

import math
from itertools import accumulate, repeat

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import ConfusionMatrix
from repro.analysis.regression import linear_fit
from repro.audio.commands import _exact_counts
from repro.core.events import TrafficClass
from repro.core.recognition import classify_echo_lengths, finalize_echo_lengths
from repro.net.tls import TlsSession
from repro.radio.geometry import Point, distance, path_points, segment_crosses_wall
from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from repro.speakers import signatures as sig


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False, allow_infinity=False), max_size=60))
    def test_pops_sorted(self, times):
        queue = EventQueue()
        fired = []
        for t in times:
            queue.push(t, fired.append, (t,))
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                        allow_nan=False),
                              st.booleans()), max_size=40))
    def test_cancellation_never_loses_live_events(self, entries):
        queue = EventQueue()
        fired = []
        expected = 0
        for t, keep in entries:
            handle = queue.push(t, fired.append, (t,))
            if keep:
                expected += 1
            else:
                handle.cancel()
        while (event := queue.pop()) is not None:
            event.callback(*event.args)
        assert len(fired) == expected


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.001, max_value=50, allow_nan=False),
                    min_size=1, max_size=30))
    def test_clock_monotonic_under_any_schedule(self, delays):
        sim = Simulator()
        seen = []
        for d in delays:
            sim.schedule(d, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == max(delays)


class TestMetricsProperties:
    counts = st.integers(min_value=0, max_value=1000)

    @given(counts, counts, counts, counts)
    def test_rates_bounded(self, tp, fp, tn, fn):
        matrix = ConfusionMatrix(tp, fp, tn, fn)
        for value in (matrix.accuracy, matrix.precision, matrix.recall):
            assert math.isnan(value) or 0.0 <= value <= 1.0

    @given(counts, counts, counts, counts, counts, counts, counts, counts)
    def test_merge_is_additive(self, a1, a2, a3, a4, b1, b2, b3, b4):
        a = ConfusionMatrix(a1, a2, a3, a4)
        b = ConfusionMatrix(b1, b2, b3, b4)
        merged = a.merged(b)
        assert merged.total == a.total + b.total
        assert merged.true_positive == a1 + b1

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200))
    def test_record_preserves_total(self, outcomes):
        matrix = ConfusionMatrix()
        for actual, predicted in outcomes:
            matrix.record(actual, predicted)
        assert matrix.total == len(outcomes)
        assert matrix.actual_positive == sum(1 for a, _ in outcomes if a)


class TestRegressionProperties:
    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        st.integers(min_value=2, max_value=60),
    )
    def test_recovers_exact_line(self, slope, intercept, n):
        xs = [0.2 * i for i in range(n)]
        assume(len(set(xs)) > 1)
        ys = [slope * x + intercept for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(slope, abs=1e-6)
        assert fit.intercept == pytest.approx(intercept, abs=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.one_of(st.just(0.2), st.floats(min_value=1e-3, max_value=10.0)),
        st.integers(min_value=2, max_value=60).flatmap(
            lambda n: st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                               min_size=n, max_size=n)),
    )
    def test_matches_np_cov_bit_for_bit(self, start, period, values):
        """The fit on a trace's time chain (ticks ``start + 0.0``, then
        ``+ period``, re-based to the first as ``RssiTrace.from_samples``
        does) is exactly the ``np.cov`` / ``np.var`` reference."""
        ticks = list(accumulate(repeat(period, len(values) - 1), initial=start + 0.0))
        times = [tick - ticks[0] for tick in ticks]
        t, v = np.asarray(times), np.asarray(values)
        t_var = float(np.var(t))
        if t_var == 0.0:
            with pytest.raises(ValueError):
                linear_fit(times, values)
            return
        slope = float(np.cov(t, v, bias=True)[0, 1] / t_var)
        intercept = float(np.mean(v) - slope * np.mean(t))
        fit = linear_fit(times, values)
        assert (fit.slope, fit.intercept) == (slope, intercept)


class TestTlsProperties:
    @given(st.integers(min_value=1, max_value=200))
    def test_continuous_stream_never_violates(self, n):
        session = TlsSession()
        for expected in range(n):
            assert session.accept_record(expected, now=0.0) is None

    @given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=50))
    def test_any_gap_violates(self, prefix, gap):
        session = TlsSession()
        for expected in range(prefix):
            session.accept_record(expected, now=0.0)
        violation = session.accept_record(prefix + gap, now=1.0)
        assert violation is not None
        assert violation.expected_seq == prefix


class TestGeometryProperties:
    coords = st.floats(min_value=-50, max_value=50, allow_nan=False)

    @given(coords, coords, coords, coords, coords, coords)
    def test_distance_symmetric_and_nonnegative(self, x1, y1, z1, x2, y2, z2):
        a, b = Point(x1, y1, z1), Point(x2, y2, z2)
        assert distance(a, b) == pytest.approx(distance(b, a))
        assert distance(a, b) >= 0
        assert distance(a, a) == 0

    @given(coords, coords, coords, coords,
           st.floats(min_value=0, max_value=1, allow_nan=False))
    def test_lerp_stays_between(self, x1, y1, x2, y2, t):
        a, b = Point(x1, y1, 0), Point(x2, y2, 0)
        mid = a.lerp(b, t)
        assert min(a.x, b.x) - 1e-9 <= mid.x <= max(a.x, b.x) + 1e-9

    @given(st.integers(min_value=2, max_value=30))
    def test_path_points_count_and_endpoints(self, n):
        points = path_points(Point(0, 0, 0), Point(5, 5, 5), n)
        assert len(points) == n
        assert distance(points[0], Point(0, 0, 0)) < 1e-9
        assert distance(points[-1], Point(5, 5, 5)) < 1e-9

    @given(coords, coords)
    def test_wall_crossing_symmetric(self, y1, y2):
        a, b = Point(0, y1, 1), Point(4, y2, 1)
        forward = segment_crosses_wall(a, b, (2, -60), (2, 60), 0, 3)
        backward = segment_crosses_wall(b, a, (2, -60), (2, 60), 0, 3)
        assert forward == backward


class TestCorpusProperties:
    @given(st.integers(min_value=10, max_value=2000))
    def test_exact_counts_sum_to_total(self, total):
        pmf = {2: 0.2, 3: 0.3, 4: 0.5}
        counts = _exact_counts(pmf, total)
        assert sum(c for _, c in counts) == total
        assert all(c >= 0 for _, c in counts)


class TestRecognizerGrammarProperties:
    filler = st.sampled_from(sig.PHASE1_FILLER_POOL)

    @given(st.integers(min_value=0, max_value=4), filler, filler, filler, filler)
    def test_marker_in_first_five_always_command(self, position, a, b, c, d):
        lengths = [a, b, c, d, 300]
        lengths.insert(position, 138)
        assert classify_echo_lengths(lengths[:5]) is TrafficClass.COMMAND

    @given(st.lists(st.sampled_from(sig.PHASE2_PREFIX_POOL), min_size=0, max_size=5))
    def test_pair_after_prefix_always_response(self, prefix):
        lengths = prefix + [77, 33]
        decided = classify_echo_lengths(lengths[: sig.PHASE2_MARKER_MAX_INDEX])
        if len(prefix) <= 5:
            assert decided is TrafficClass.RESPONSE

    @given(st.lists(st.sampled_from(sig.PHASE2_PREFIX_POOL), min_size=7, max_size=12))
    def test_markerless_stream_never_command(self, lengths):
        assert classify_echo_lengths(lengths) is not TrafficClass.COMMAND
        assert finalize_echo_lengths(lengths) is TrafficClass.UNKNOWN

    @given(st.lists(st.integers(min_value=1, max_value=1500), min_size=1, max_size=12))
    def test_classifier_total_on_any_input(self, lengths):
        decided = classify_echo_lengths(lengths)
        assert decided in (None, TrafficClass.COMMAND, TrafficClass.RESPONSE,
                           TrafficClass.UNKNOWN)
        assert finalize_echo_lengths(lengths) in (
            TrafficClass.COMMAND, TrafficClass.RESPONSE, TrafficClass.UNKNOWN,
        )

    @given(st.data())
    def test_generated_command_spikes_recognized(self, data):
        """The traffic model and the recognizer agree: non-anomalous
        command spikes classify as COMMAND within seven packets."""
        from repro.speakers.interaction import EchoTrafficModel
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        model = EchoTrafficModel(np.random.default_rng(seed), anomalous_rate=0.0)
        script = model.command_phase(2.0)
        lengths = [r.length for r in script.records[:7]]
        assert classify_echo_lengths(lengths) is TrafficClass.COMMAND

    @given(st.data())
    def test_generated_response_spikes_recognized(self, data):
        from repro.speakers.interaction import EchoTrafficModel
        seed = data.draw(st.integers(min_value=0, max_value=10_000))
        model = EchoTrafficModel(np.random.default_rng(seed))
        spike = model.response_spike()
        lengths = [r.length for r in spike[:7]]
        assert classify_echo_lengths(lengths) is TrafficClass.RESPONSE
