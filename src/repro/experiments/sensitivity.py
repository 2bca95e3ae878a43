"""Parameter sensitivity sweeps.

The guard's accuracy depends on a few tunables the paper fixes by
construction: the RSSI margin applied under the calibrated threshold,
the decision timeout, and the recognizer's idle gap.  These sweeps
chart the trade-offs so a deployer knows which way each knob bends
precision vs recall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis.reporting import render_table
from repro.core.config import VoiceGuardConfig
from repro.experiments.parallel import ExperimentEngine, ExperimentTask
from repro.experiments.runner import run_rssi_experiment


@dataclass
class SweepPoint:
    parameter: str
    value: float
    accuracy: float
    precision: float
    recall: float


@dataclass
class SensitivityResult:
    points: List[SweepPoint] = field(default_factory=list)

    def series(self, parameter: str) -> List[SweepPoint]:
        return [p for p in self.points if p.parameter == parameter]

    def render(self) -> str:
        """Render as paper-style text."""
        rows = [
            [p.parameter, f"{p.value:g}", f"{p.accuracy:.1%}",
             f"{p.precision:.1%}", f"{p.recall:.1%}"]
            for p in self.points
        ]
        return render_table(
            "Sensitivity: guard accuracy vs tunables (apartment / Echo; margin "
            "sweep at the marginal 2nd deployment)",
            ["parameter", "value", "accuracy", "precision", "recall"],
            rows,
        )


def run_sensitivity(
    rssi_margins: Sequence[float] = (0.0, 2.0, 6.0),
    decision_timeouts: Sequence[float] = (1.0, 5.0),
    seed: int = 37,
    scale: int = 30,
    workers: int = 1,
    use_cache: bool = False,
) -> SensitivityResult:
    """Sweep the RSSI margin and decision timeout.

    The margin sweep runs at the apartment's *second* deployment (the
    marginal cell): a generous margin loosens the threshold, first
    helping precision, then admitting near-room attacks (recall loss).
    A tiny decision timeout forces fail-closed verdicts before any
    phone can answer (precision collapse).  Every sweep point is an
    independent run and fans out over the experiment engine.
    """
    # (parameter, value, config, seed, deployment) per sweep point.
    points = [("rssi_margin", margin, VoiceGuardConfig(rssi_margin=margin), seed, 1)
              for margin in rssi_margins]
    points += [("decision_timeout", timeout,
                VoiceGuardConfig(decision_timeout=timeout, max_hold=max(25.0, timeout)),
                seed + 1, 0)
               for timeout in decision_timeouts]
    tasks = [
        ExperimentTask(
            fn=run_rssi_experiment,
            args=("apartment", "echo", deployment),
            kwargs=dict(seed=point_seed, legit_count=scale,
                        malicious_count=max(5, int(scale * 0.7)), config=config),
            label=f"sensitivity/{parameter}={value:g}",
        )
        for parameter, value, config, point_seed, deployment in points
    ]
    engine = ExperimentEngine(workers=workers, use_cache=use_cache)
    return SensitivityResult([
        SweepPoint(parameter, value,
                   cell.matrix.accuracy, cell.matrix.precision, cell.matrix.recall)
        for (parameter, value, *_), cell in zip(points, engine.run(tasks))
    ])
