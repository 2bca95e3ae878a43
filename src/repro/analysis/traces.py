"""RSSI trace containers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.regression import LinearFit, linear_fit
from repro.radio.bluetooth import RssiSample


@dataclass
class RssiTrace:
    """A timed series of RSSI samples (relative to trace start)."""

    times: List[float]
    values: List[float]
    label: Optional[str] = None  # ground-truth route name, if known

    @staticmethod
    def from_samples(samples: Sequence[RssiSample], label: Optional[str] = None) -> "RssiTrace":
        """Build a trace from scanner samples, re-based to t=0."""
        if not samples:
            raise ValueError("cannot build a trace from zero samples")
        values, times = list(zip(*samples))[:2]
        t0 = times[0]
        return RssiTrace(times=[t - t0 for t in times], values=list(values), label=label)

    def __len__(self) -> int:
        return len(self.times)

    def fit(self) -> LinearFit:
        """Least-squares line fit over the trace."""
        return linear_fit(self.times, self.values)

    @property
    def span(self) -> float:
        """Seconds between the first and last sample."""
        return self.times[-1] - self.times[0] if self.times else 0.0
