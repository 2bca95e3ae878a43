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


def linear_fit(times: Sequence[float], values: Sequence[float]) -> LinearFit:
    """Fit ``values ~ slope * times + intercept``.

    The slope is ``np.cov(t, v, bias=True)[0, 1] / np.var(t)``, computed
    with the primitives those two use, so it is bit-for-bit theirs
    without their argument handling: ``sum() / n`` row means, the
    centred 2×N matrix, one ``np.dot`` and the product with ``1 / n``.

    Raises :class:`ValueError` on fewer than two points or a degenerate
    (constant-time) input.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {v.shape}")
    n = t.size
    if n < 2:
        raise ValueError("need at least two samples to fit a line")
    centred = np.array((t, v))
    means = centred.sum(axis=1) / n
    centred -= means[:, None]
    dt = centred[0]
    t_var = float((dt * dt).sum() / n)
    if t_var == 0.0:
        raise ValueError("all samples share one timestamp; cannot fit")
    slope = float(np.dot(centred, centred.T)[0, 1] * (1.0 / n) / t_var)
    intercept = float(means[1] - slope * means[0])
    return LinearFit(slope=slope, intercept=intercept)
