"""Figure 10: Up/Down vs route traces — slopes and y-intercepts.

The paper collects, per case, 15 Up, 15 Down, 25 Route-1, 10 Route-2
and 10 Route-3 traces, fits a line to each 40-sample trace, and shows
that (left column) the slope alone separates Route 1 (|slope| < 1)
from stair-like traces (|slope| > 1), while (right column) slope +
y-intercept jointly separate Routes 2/3 from Up/Down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.analysis.reporting import render_table
from repro.core.floor import TraceClassifier, TraceFeatures
from repro.experiments.scenarios import (
    ROUTE_CLASS,
    TRAINING_REPS,
    build_scenario,
    collect_route_features,
)

ROUTE_ORDER = ("up", "down", "route1", "route2", "route3")


@dataclass
class Fig10Result:
    """Training features, held-out features, and test confusion."""

    training: Dict[str, List[TraceFeatures]]
    testing: Dict[str, List[TraceFeatures]]
    confusion: Dict[str, Dict[str, int]]
    classifier: TraceClassifier

    def route_stats(self, which: str = "training") -> Dict[str, Dict[str, float]]:
        source = self.training if which == "training" else self.testing
        stats = {}
        for route, features in source.items():
            slopes = [f.slope for f in features]
            intercepts = [f.intercept for f in features]
            stats[route] = {
                "slope_min": float(np.min(slopes)),
                "slope_max": float(np.max(slopes)),
                "slope_mean": float(np.mean(slopes)),
                "intercept_mean": float(np.mean(intercepts)),
            }
        return stats

    def accuracy(self) -> float:
        correct = sum(self.confusion.get(r, {}).get(r, 0) for r in self.confusion)
        total = sum(sum(row.values()) for row in self.confusion.values())
        return correct / total if total else float("nan")

    def render(self) -> str:
        """Render as paper-style text."""
        stats = self.route_stats("training")
        rows = []
        for route in ROUTE_ORDER:
            if route not in stats:
                continue
            s = stats[route]
            rows.append([
                route,
                f"[{s['slope_min']:.2f}, {s['slope_max']:.2f}]",
                f"{s['slope_mean']:.2f}",
                f"{s['intercept_mean']:.1f}",
                len(self.training[route]),
            ])
        table = render_table(
            "Figure 10: trace fitting-line features per route",
            ["route", "slope range", "slope mean", "y-intercept mean", "traces"],
            rows,
        )
        conf_rows = []
        for route in ROUTE_ORDER:
            if route not in self.confusion:
                continue
            row = self.confusion[route]
            conf_rows.append([route] + [row.get(r, 0) for r in ROUTE_ORDER])
        confusion = render_table(
            f"Held-out trace classification (accuracy {self.accuracy():.1%})",
            ["actual \\ predicted", *ROUTE_ORDER],
            conf_rows,
        )
        return table + "\n\n" + confusion


def run_fig10(seed: int = 10, test_reps: int = 15) -> Fig10Result:
    """Collect training + held-out traces in the house (Echo, first
    location) and evaluate the classifier."""
    scenario = build_scenario(
        "house", "echo", deployment=0, seed=seed,
        owner_count=1, with_floor_tracking=False,
    )
    device = scenario.devices[0]
    training: Dict[str, List[TraceFeatures]] = {}
    for route, reps in TRAINING_REPS.items():
        if route not in scenario.env.testbed.routes:
            continue
        label = ROUTE_CLASS.get(route, route)
        features = collect_route_features(scenario, device, route, reps)
        training.setdefault(label, []).extend(features)
    classifier = TraceClassifier()
    classifier.fit(training)

    testing: Dict[str, List[TraceFeatures]] = {}
    confusion: Dict[str, Dict[str, int]] = {}
    for route in training:
        testing[route] = collect_route_features(scenario, device, route, test_reps)
        row: Dict[str, int] = {}
        for features in testing[route]:
            label = classifier.classify(features)
            row[label] = row.get(label, 0) + 1
        confusion[route] = row
    return Fig10Result(
        training=training,
        testing=testing,
        confusion=confusion,
        classifier=classifier,
    )
