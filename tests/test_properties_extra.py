"""A second round of property-based tests: propagation physics,
bootstrap statistics, and corpus phrases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis.stats import bootstrap_interval
from repro.audio.commands import _phrase_with_exact_words
from repro.core.floor import TraceClassifier, TraceFeatures
from repro.radio.floorplan import FloorPlan, Room
from repro.radio.geometry import Point
from repro.radio import propagation
from repro.radio.propagation import PropagationModel


def _open_model() -> PropagationModel:
    plan = FloorPlan("open")
    plan.add_room(Room("hall", 0, 0, 40, 40, floor=0))
    return PropagationModel(plan, seed=5)


class TestPropagationProperties:
    @given(st.floats(min_value=1.0, max_value=15.0),
           st.floats(min_value=1.05, max_value=2.0))
    def test_mean_path_loss_monotone_without_shadowing(self, d, factor):
        """Path loss (excluding the spatial shadowing term) grows with
        distance along any ray in open space."""
        plan = FloorPlan("open")
        plan.add_room(Room("hall", 0, 0, 80, 80, floor=0))
        model = PropagationModel(plan, seed=5)
        tx = Point(1.0, 1.0, 1.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagation, "SHADOWING_SIGMA", 0.0)
            near = model.mean_rssi(tx, Point(1.0 + d, 1.0, 1.0))
            far = model.mean_rssi(tx, Point(1.0 + d * factor, 1.0, 1.0))
        assert near >= far

    @given(st.floats(min_value=0.5, max_value=30.0),
           st.floats(min_value=0.0, max_value=6.28))
    def test_rssi_never_exceeds_reference(self, d, angle):
        model = _open_model()
        tx = Point(20.0, 20.0, 1.0)
        rx = Point(20.0 + d * np.cos(angle) / 2, 20.0 + d * np.sin(angle) / 2, 1.0)
        assume(0 <= rx.x <= 40 and 0 <= rx.y <= 40)
        assert model.mean_rssi(tx, rx) <= propagation.REFERENCE_RSSI + \
            3 * propagation.SHADOWING_SIGMA


class TestClassifierProperties:
    @given(st.floats(min_value=-0.99, max_value=0.99),
           st.floats(min_value=-40, max_value=0))
    def test_gate_always_wins_inside_band(self, slope, intercept):
        classifier = TraceClassifier()
        classifier.fit({
            "up": [TraceFeatures(-1.7, -10)],
            "down": [TraceFeatures(2.0, -20)],
            "route1": [TraceFeatures(0.0, -3)],
        })
        assert classifier.classify(TraceFeatures(slope, intercept)) == "route1"

    @given(st.floats(min_value=1.01, max_value=5.0),
           st.floats(min_value=-40, max_value=0))
    def test_steep_positive_slopes_never_route1(self, slope, intercept):
        classifier = TraceClassifier()
        classifier.fit({
            "up": [TraceFeatures(-1.7, -10)],
            "down": [TraceFeatures(2.0, -20)],
            "route1": [TraceFeatures(0.0, -3)],
        })
        assert classifier.classify(TraceFeatures(slope, intercept)) != "route1"


class TestBootstrapProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=150))
    def test_interval_brackets_mean(self, flags):
        interval = bootstrap_interval([float(f) for f in flags], seed=7)
        mean = sum(flags) / len(flags)
        assert interval.low - 1e-9 <= mean <= interval.high + 1e-9
        assert 0.0 <= interval.low <= interval.high <= 1.0


class TestCorpusPhraseProperties:
    @given(st.integers(min_value=3, max_value=14), st.integers(min_value=0, max_value=10_000))
    def test_phrase_has_exact_word_count(self, words, seed):
        rng = np.random.default_rng(seed)
        phrase = _phrase_with_exact_words(words, rng)
        assert len(phrase.split()) == words
        assert phrase == phrase.lower()
