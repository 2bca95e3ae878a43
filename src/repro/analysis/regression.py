"""Least-squares line fitting for RSSI traces.

The floor-level method (paper Section V-B2) converts each 40-sample
RSSI trace into the (slope, y-intercept) of its fitted line; those two
features drive the Up/Down/route classifier of Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class LinearFit:
    """Result of a least-squares line fit."""

    slope: float
    intercept: float
    r_squared: float


def linear_fit(times: Sequence[float], values: Sequence[float]) -> LinearFit:
    """Fit ``values ~ slope * times + intercept``.

    Raises :class:`ValueError` on fewer than two points or a degenerate
    (constant-time) input.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {v.shape}")
    if t.size < 2:
        raise ValueError("need at least two samples to fit a line")
    t_var = float(np.var(t))
    if t_var == 0.0:
        raise ValueError("all samples share one timestamp; cannot fit")
    slope = float(np.cov(t, v, bias=True)[0, 1] / t_var)
    intercept = float(np.mean(v) - slope * np.mean(t))
    residuals = v - (slope * t + intercept)
    total = float(np.sum((v - np.mean(v)) ** 2))
    r_squared = 1.0 if total == 0 else 1.0 - float(np.sum(residuals**2)) / total
    return LinearFit(slope=slope, intercept=intercept, r_squared=r_squared)
