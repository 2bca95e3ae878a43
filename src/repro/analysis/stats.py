"""Statistical utilities: bootstrap confidence intervals.

The paper reports point estimates from single 7-day runs; the
reproduction can do better and attach uncertainty.  Used by the table
benchmarks to report 95 % bootstrap intervals over the per-command
outcomes of each cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.sim.random import generator

BOOTSTRAP_RESAMPLES = 2000


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a bootstrap interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:
        return f"{self.estimate:.3f} [{self.low:.3f}, {self.high:.3f}]"

    @property
    def width(self) -> float:
        """Interval width (high - low)."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.low <= value <= self.high


def bootstrap_interval(
    outcomes: Sequence[float],
    confidence: float = 0.95,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap interval of the mean of ``outcomes``, over
    :data:`BOOTSTRAP_RESAMPLES` resamples.

    ``outcomes`` is typically a 0/1 vector (command correct / not).
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence!r}")
    values = np.asarray(outcomes, dtype=float)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    rng = generator(seed)
    estimate = float(np.mean(values))
    if values.size == 1:
        return ConfidenceInterval(estimate, estimate, estimate, confidence)
    indices = rng.integers(0, values.size, size=(BOOTSTRAP_RESAMPLES, values.size))
    stats = np.asarray([np.mean(values[row]) for row in indices])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(stats, [alpha, 1.0 - alpha])
    return ConfidenceInterval(estimate, float(low), float(high), confidence)


def accuracy_interval(
    correct_flags: Sequence[bool],
    confidence: float = 0.95,
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap interval for an accuracy-style proportion."""
    return bootstrap_interval(
        [1.0 if flag else 0.0 for flag in correct_flags],
        confidence=confidence,
        seed=seed,
    )
