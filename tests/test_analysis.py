"""Tests for metrics, regression, traces, and report rendering."""

from __future__ import annotations

import math

import pytest

from repro.analysis.metrics import ConfusionMatrix
from repro.analysis.regression import linear_fit
from repro.analysis.reporting import render_histogram, render_table
from repro.analysis.traces import RssiTrace
from repro.radio.bluetooth import RssiSample


class TestConfusionMatrix:
    def test_paper_table1_numbers(self):
        # Table I: 132 TP, 2 FN, 149 TN, 0 FP.
        matrix = ConfusionMatrix(
            true_positive=132, false_negative=2, true_negative=149, false_positive=0,
        )
        assert matrix.accuracy == pytest.approx(0.9929, abs=1e-3)
        assert matrix.precision == 1.0
        assert matrix.recall == pytest.approx(0.9851, abs=1e-3)

    def test_record_routes_counts(self):
        matrix = ConfusionMatrix()
        matrix.record(True, True)
        matrix.record(True, False)
        matrix.record(False, True)
        matrix.record(False, False)
        assert (matrix.true_positive, matrix.false_negative,
                matrix.false_positive, matrix.true_negative) == (1, 1, 1, 1)
        assert matrix.total == 4
        assert matrix.accuracy == 0.5

    def test_empty_matrix_is_nan(self):
        matrix = ConfusionMatrix()
        assert math.isnan(matrix.accuracy)
        assert math.isnan(matrix.precision)
        assert math.isnan(matrix.recall)

    def test_merge(self):
        a = ConfusionMatrix(true_positive=1, false_positive=2)
        b = ConfusionMatrix(true_positive=3, true_negative=4)
        merged = a.merged(b)
        assert merged.true_positive == 4
        assert merged.false_positive == 2
        assert merged.true_negative == 4

    def test_render_contains_labels(self):
        matrix = ConfusionMatrix(true_positive=5, true_negative=5)
        text = matrix.render()
        assert "Accuracy" in text and "Precision" in text and "Recall" in text


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([0, 1, 2, 3], [1, 3, 5, 7])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_flat_line(self):
        fit = linear_fit([0, 1, 2], [4, 4, 4])
        assert fit.slope == pytest.approx(0.0)
        assert fit.intercept == pytest.approx(4.0)

    def test_noisy_r_squared_below_one(self, rng):
        xs = list(range(40))
        ys = [2 * x + float(rng.normal(0, 3)) for x in xs]
        fit = linear_fit(xs, ys)
        assert fit.slope == pytest.approx(2.0, abs=0.3)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])

    def test_degenerate_times_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 1, 1], [1, 2, 3])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1, 2, 3])


class TestRssiTrace:
    def _samples(self, values, start=100.0, period=0.2):
        return [
            RssiSample(rssi=v, time=start + i * period, beacon_name="b", scanner_name="s")
            for i, v in enumerate(values)
        ]

    def test_from_samples_rebases_time(self):
        trace = RssiTrace.from_samples(self._samples([1.0, 2.0, 3.0]))
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.4)

    def test_fit_matches_samples(self):
        trace = RssiTrace.from_samples(self._samples([0.0, 1.0, 2.0, 3.0]))
        fit = trace.fit()
        assert fit.slope == pytest.approx(5.0)  # 1 unit per 0.2 s

    def test_span(self):
        trace = RssiTrace.from_samples(self._samples([0.0] * 40))
        assert trace.span == pytest.approx(7.8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RssiTrace.from_samples([])


class TestRendering:
    def test_table_alignment(self):
        text = render_table("Title", ["a", "b"], [[1, 2], ["long-value", 4]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert all("|" in line for line in lines[2:] if "-" not in line[:2])

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table("t", ["a", "b"], [[1]])

    def test_histogram_counts(self):
        text = render_histogram("H", [0.1, 0.2, 0.9, 1.5], bins=[0.0, 0.5, 1.0, 2.0])
        assert "2" in text  # first bin holds two values

    def test_histogram_rejects_single_edge(self):
        with pytest.raises(ValueError):
            render_histogram("H", [1.0], bins=[0.0])

    def test_histogram_includes_right_edge_value(self):
        text = render_histogram("H", [2.0], bins=[0.0, 1.0, 2.0])
        last_line = text.splitlines()[-1]
        assert "   1" in last_line
