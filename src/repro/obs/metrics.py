"""Metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are created once (usually at component construction) and
then recorded into on the hot path: ``counter.inc()`` is one attribute
add, ``histogram.record(v)`` one binary search over a fixed edge tuple.
Names are dot-namespaced by subsystem (``proxy.records_held``,
``decision.latency`` ...); :meth:`MetricsRegistry.scope` binds a prefix
so a component never repeats its namespace.

Snapshots are plain picklable dicts, so each task's snapshot survives the
process-pool boundary of :mod:`repro.experiments.parallel` and can be
merged across tasks with :func:`merge_snapshots`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError

# Default latency buckets (seconds): spans the guard's decision window.
DEFAULT_LATENCY_EDGES: Tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 7.5, 10.0, 15.0, 25.0,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that goes up and down (e.g. open flows, held records)."""

    __slots__ = ("name", "value", "high_water")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.high_water = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.high_water:
            self.high_water = value

    def inc(self, n: float = 1.0) -> None:
        self.set(self.value + n)

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram: cumulative-free, O(log buckets) recording.

    ``edges`` are the upper bounds of the finite buckets; one overflow
    bucket catches everything above the last edge.  ``counts[i]`` holds
    observations ``v`` with ``edges[i-1] < v <= edges[i]`` (first bucket:
    ``v <= edges[0]``).
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ConfigError(f"histogram {name!r} needs at least one bucket edge")
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ConfigError(f"histogram {name!r} edges must be strictly increasing")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)  # +1: overflow bucket
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def record(self, value: float) -> None:
        """Record one observation (hot path)."""
        value = float(value)
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Average observation; NaN when empty."""
        if self.count == 0:
            return float("nan")
        return self.total / self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count})"


class MetricsScope:
    """A registry view that prefixes every name with a subsystem."""

    __slots__ = ("_registry", "_prefix")

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix.rstrip(".") + "."

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._prefix + name)

    def gauge(self, name: str) -> Gauge:
        return self._registry.gauge(self._prefix + name)

    def histogram(self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES) -> Histogram:
        return self._registry.histogram(self._prefix + name, edges)


class MetricsRegistry:
    """Owns every instrument of one run, keyed by dotted name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument creation (get-or-create, setup path) -----------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, edges: Sequence[float] = DEFAULT_LATENCY_EDGES) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, edges)
        elif tuple(float(e) for e in edges) != instrument.edges:
            raise ConfigError(
                f"histogram {name!r} already registered with different edges"
            )
        return instrument

    def scope(self, prefix: str) -> MetricsScope:
        """A view that records under ``prefix.``."""
        return MetricsScope(self, prefix)

    # -- export ----------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """A plain-dict, picklable copy of every instrument's state."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {"value": g.value, "high_water": g.high_water}
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: {
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "count": h.count,
                    "total": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                }
                for n, h in sorted(self._histograms.items())
            },
        }


def merge_snapshots(snapshots: Iterable[Optional[dict]]) -> Dict[str, dict]:
    """Merge task snapshots: counters and histogram buckets add,
    gauges keep the maximum (their per-run meaning is a level, so the
    cross-task fold reports the worst case).  ``None`` entries (tasks
    without metrics) are skipped."""
    merged: Dict[str, dict] = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        if not snapshot:
            continue
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        for name, gauge in snapshot.get("gauges", {}).items():
            seen = merged["gauges"].get(name)
            if seen is None:
                merged["gauges"][name] = dict(gauge)
            else:
                seen["value"] = max(seen["value"], gauge["value"])
                seen["high_water"] = max(seen["high_water"], gauge["high_water"])
        for name, hist in snapshot.get("histograms", {}).items():
            seen = merged["histograms"].get(name)
            if seen is None:
                merged["histograms"][name] = {
                    "edges": list(hist["edges"]),
                    "counts": list(hist["counts"]),
                    "count": hist["count"],
                    "total": hist["total"],
                    "min": hist["min"],
                    "max": hist["max"],
                }
                continue
            if seen["edges"] != list(hist["edges"]):
                raise ConfigError(
                    f"cannot merge histogram {name!r}: bucket edges differ"
                )
            seen["counts"] = [a + b for a, b in zip(seen["counts"], hist["counts"])]
            seen["count"] += hist["count"]
            seen["total"] += hist["total"]
            mins = [m for m in (seen["min"], hist["min"]) if m is not None]
            maxs = [m for m in (seen["max"], hist["max"]) if m is not None]
            seen["min"] = min(mins) if mins else None
            seen["max"] = max(maxs) if maxs else None
    return merged


class QuantileSketch:
    """Streaming percentile sketch over non-negative values.

    DDSketch-style logarithmic buckets: a value ``v`` lands in bucket
    ``ceil(log_gamma(v))`` with ``gamma = (1 + alpha) / (1 - alpha)``,
    which bounds the *relative* error of any reported quantile by
    ``alpha`` while using a handful of integer counters — constant
    memory no matter how many observations stream through.

    Sketches are exactly mergeable (bucket counts add), and a reported
    quantile is a pure function of the integer counts, so folding
    per-chunk sketches in *any* order — the completion order of a
    process pool, a reshuffled shard list — reproduces the same
    population percentiles bit for bit.  That property is what lets the
    fleet engine report p99 decision latency over a million homes
    without ever holding per-home samples.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "count", "zero_count",
                 "buckets", "min", "max")

    # Values at or below this are counted as "zero" (the sketch is
    # logarithmic, so a true zero has no bucket).
    MIN_TRACKED = 1e-9

    def __init__(self, alpha: float = 0.01) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"sketch alpha must be in (0, 1), got {alpha!r}")
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self.zero_count = 0
        self.buckets: Dict[int, int] = {}
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float, n: int = 1) -> None:
        """Record ``n`` observations of ``value`` (hot path)."""
        value = float(value)
        if value < 0.0:
            raise ConfigError(f"sketch tracks non-negative values, got {value!r}")
        self.count += n
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value <= self.MIN_TRACKED:
            self.zero_count += n
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self.buckets[index] = self.buckets.get(index, 0) + n

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch in (exact: integer counts add)."""
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ConfigError(
                f"cannot merge sketches with different alpha "
                f"({self.alpha} vs {other.alpha})"
            )
        self.count += other.count
        self.zero_count += other.zero_count
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1), within ``alpha`` relative error."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError(f"quantile must be in [0, 1], got {q!r}")
        if self.count == 0:
            return float("nan")
        rank = max(1, math.ceil(q * self.count))
        if rank <= self.zero_count:
            return self.min if self.min == 0.0 else 0.0
        seen = self.zero_count
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                # Midpoint of the bucket's (gamma^(i-1), gamma^i] range,
                # clamped into the observed value range.
                value = 2.0 * self._gamma ** index / (self._gamma + 1.0)
                return min(max(value, self.min), self.max)
        return self.max

    def to_dict(self) -> dict:
        """A plain picklable/JSON-able copy (bucket items sorted)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "zero_count": self.zero_count,
            "buckets": sorted(self.buckets.items()),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuantileSketch":
        sketch = cls(alpha=payload["alpha"])
        sketch.count = int(payload["count"])
        sketch.zero_count = int(payload["zero_count"])
        sketch.buckets = {int(i): int(n) for i, n in payload["buckets"]}
        sketch.min = float("inf") if payload["min"] is None else float(payload["min"])
        sketch.max = float("-inf") if payload["max"] is None else float(payload["max"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch(alpha={self.alpha}, n={self.count})"


def sketch_ks_distance(a: QuantileSketch, b: QuantileSketch) -> float:
    """Two-sample Kolmogorov-Smirnov statistic between two sketches.

    Both sketches quantize values into the same logarithmic buckets
    (identical ``alpha`` required), so their empirical CDFs are exactly
    comparable at bucket boundaries: the supremum of the CDF gap over
    those boundaries *is* the KS statistic of the bucketized samples,
    within the sketches' ``alpha`` relative value error.  Returns NaN
    when either side is empty.
    """
    if abs(a.alpha - b.alpha) > 1e-12:
        raise ConfigError(
            f"cannot compare sketches with different alpha "
            f"({a.alpha} vs {b.alpha})"
        )
    if a.count == 0 or b.count == 0:
        return float("nan")
    cum_a = a.zero_count
    cum_b = b.zero_count
    distance = abs(cum_a / a.count - cum_b / b.count)
    for index in sorted(set(a.buckets) | set(b.buckets)):
        cum_a += a.buckets.get(index, 0)
        cum_b += b.buckets.get(index, 0)
        distance = max(distance, abs(cum_a / a.count - cum_b / b.count))
    return distance


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Two-sample KS rejection threshold for sample sizes ``n``, ``m``.

    Large-sample approximation: ``c(alpha) * sqrt((n + m) / (n * m))``
    with ``c(alpha) = sqrt(-ln(alpha / 2) / 2)`` (c ≈ 1.63 at 1%).
    """
    if n <= 0 or m <= 0:
        return float("nan")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha!r}")
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n + m) / (n * m))


def histogram_quantile(hist: dict, q: float) -> float:
    """Approximate quantile from a snapshot histogram (bucket upper
    bounds; the overflow bucket reports the recorded maximum)."""
    if not 0.0 <= q <= 1.0:
        raise ConfigError(f"quantile must be in [0, 1], got {q!r}")
    count = hist["count"]
    if count == 0:
        return float("nan")
    rank = q * count
    seen = 0
    edges: List[float] = list(hist["edges"])
    for index, bucket in enumerate(hist["counts"]):
        seen += bucket
        if seen >= rank and bucket:
            if index < len(edges):
                return edges[index]
            break
    return hist["max"] if hist["max"] is not None else float("nan")
