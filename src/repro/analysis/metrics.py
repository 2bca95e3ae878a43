"""Binary classification metrics in the paper's convention.

The paper treats *malicious* commands as the positive class: recall is
the fraction of attacks blocked, precision the fraction of blocked
commands that really were attacks, and the legitimate-command errors
show up as precision loss (Tables II-IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass
class ConfusionMatrix:
    """Counts of a binary classifier's outcomes."""

    true_positive: int = 0
    false_positive: int = 0
    true_negative: int = 0
    false_negative: int = 0

    def record(self, actual_positive: bool, predicted_positive: bool) -> None:
        """Add one (actual, predicted) outcome to the counts."""
        if actual_positive and predicted_positive:
            self.true_positive += 1
        elif actual_positive and not predicted_positive:
            self.false_negative += 1
        elif predicted_positive:
            self.false_positive += 1
        else:
            self.true_negative += 1

    # -- totals ------------------------------------------------------------
    @property
    def total(self) -> int:
        """Number of recorded outcomes."""
        return (self.true_positive + self.false_positive
                + self.true_negative + self.false_negative)

    @property
    def actual_positive(self) -> int:
        """Ground-truth positives (TP + FN)."""
        return self.true_positive + self.false_negative

    @property
    def actual_negative(self) -> int:
        """Ground-truth negatives (TN + FP)."""
        return self.true_negative + self.false_positive

    # -- rates ------------------------------------------------------------
    @property
    def accuracy(self) -> float:
        """Fraction of outcomes classified correctly."""
        if self.total == 0:
            return float("nan")
        return (self.true_positive + self.true_negative) / self.total

    @property
    def precision(self) -> float:
        """TP / (TP + FP); NaN with no positive predictions."""
        denominator = self.true_positive + self.false_positive
        if denominator == 0:
            return float("nan")
        return self.true_positive / denominator

    @property
    def recall(self) -> float:
        """TP / (TP + FN); NaN with no actual positives."""
        if self.actual_positive == 0:
            return float("nan")
        return self.true_positive / self.actual_positive

    def merged(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        """Element-wise sum with another matrix."""
        return ConfusionMatrix(
            self.true_positive + other.true_positive,
            self.false_positive + other.false_positive,
            self.true_negative + other.true_negative,
            self.false_negative + other.false_negative,
        )

    def render(self) -> str:
        """Text rendering in the style of the paper's Table I.

        Undefined rates (an empty matrix, or no positive predictions)
        render as an em dash, never as ``nan%``.
        """
        from repro.analysis.reporting import fmt_percent

        lines = [
            "                  Predicted",
            "                  Positive  Negative  Total",
            f"Actual Positive   {self.true_positive:>8}  {self.false_negative:>8}  {self.actual_positive:>5}",
            f"Actual Negative   {self.false_positive:>8}  {self.true_negative:>8}  {self.actual_negative:>5}",
            f"Accuracy: {fmt_percent(self.accuracy)}  "
            f"Precision: {fmt_percent(self.precision)}  "
            f"Recall: {fmt_percent(self.recall)}",
        ]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Availability under faults (the resilience experiments)
# ---------------------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation; NaN when empty.

    Deliberately dependency-free (no numpy import in the scoring path)
    and deterministic: sorted linear interpolation, the same convention
    numpy calls ``linear``.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    data = sorted(float(v) for v in values)
    if not data:
        return float("nan")
    if len(data) == 1:
        return data[0]
    rank = (len(data) - 1) * (q / 100.0)
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    fraction = rank - low
    return data[low] * (1.0 - fraction) + data[high] * fraction


@dataclass
class ResilienceSummary:
    """How the decision pipeline held up across one run's command queries.

    *Availability* is the fraction of command decisions that resolved
    with live or degraded evidence — anything but a bare TIMEOUT verdict,
    on which the guard fails closed and blocks the command.
    """

    decisions: int = 0
    live_grants: int = 0  # LEGITIMATE from a live report
    degraded_grants: int = 0  # LEGITIMATE from the proximity cache
    malicious_verdicts: int = 0
    timeouts: int = 0  # TIMEOUT verdicts (policy decided the outcome)
    retries: int = 0  # backoff re-pushes
    offline_requeries: int = 0  # next-best re-queries after a NACK
    offline_events: int = 0  # push NACKs (device unreachable)
    latency_p50: float = float("nan")
    latency_p95: float = float("nan")

    @property
    def availability(self) -> float:
        """Evidence-backed decisions / all decisions (NaN when none)."""
        if self.decisions == 0:
            return float("nan")
        return (self.decisions - self.timeouts) / self.decisions


def summarize_resilience(
    command_events: Sequence[object],
    resilience_counts: Optional[Dict[str, int]] = None,
) -> ResilienceSummary:
    """Fold a guard's command events (and optional typed-event counts,
    from :meth:`repro.core.events.GuardLog.resilience_counts`) into one
    :class:`ResilienceSummary`."""
    from repro.core.decision import Verdict

    counts = resilience_counts or {}
    summary = ResilienceSummary(
        retries=counts.get("push_retry", 0) + counts.get("offline_requery", 0),
        offline_requeries=counts.get("offline_requery", 0),
        offline_events=counts.get("device_offline", 0),
        degraded_grants=counts.get("degraded_grant", 0),
    )
    latencies: List[float] = []
    for event in command_events:
        verdict = getattr(event, "verdict", None)
        if verdict is None:
            continue
        summary.decisions += 1
        if verdict is Verdict.TIMEOUT:
            summary.timeouts += 1
        elif verdict is Verdict.MALICIOUS:
            summary.malicious_verdicts += 1
        elif verdict is Verdict.LEGITIMATE:
            summary.live_grants += 1
        latency = getattr(event, "decision_latency", None)
        if latency is not None:
            latencies.append(latency)
    # Degraded grants surface as LEGITIMATE verdicts; keep live vs
    # degraded apart so availability gains are attributable.
    summary.live_grants = max(0, summary.live_grants - summary.degraded_grants)
    summary.latency_p50 = percentile(latencies, 50.0)
    summary.latency_p95 = percentile(latencies, 95.0)
    return summary
