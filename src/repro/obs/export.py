"""Exporters: JSONL span dumps, waterfalls, and Fig. 4 phase timings.

Everything here consumes *only* the span forest — no guard internals —
so the per-command phase breakdown (recognition -> hold -> decision,
the paper's Figure 4 timeline) is reconstructed from spans alone, and
any future pipeline refactor that keeps the span contract keeps the
report.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.reporting import render_table
from repro.obs.tracer import Span, SpanTracer

PathLike = Union[str, pathlib.Path]

# Span names the instrumented pipeline emits (the export contract).
WINDOW_SPAN = "command.window"
CLASSIFY_SPAN = "recognition.classify"
HOLD_SPAN = "proxy.hold"
DECISION_SPAN = "decision.query"
PUSH_SPAN = "push.roundtrip"


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def span_to_dict(span: Span) -> dict:
    """A plain-JSON form of one span (stable key order)."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "attrs": {key: _jsonable(value) for key, value in sorted(span.attrs.items())},
        "events": [
            {"name": e.name, "time": e.time,
             "attrs": {k: _jsonable(v) for k, v in sorted(e.attrs.items())}}
            for e in span.events
        ],
    }


def _jsonable(value: object) -> object:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


def spans_to_jsonl(spans: Sequence[Span]) -> str:
    """One JSON object per line, in span-begin order."""
    return "\n".join(json.dumps(span_to_dict(s), sort_keys=True) for s in spans)


def write_spans_jsonl(tracer: SpanTracer, path: PathLike) -> pathlib.Path:
    """Dump a tracer's span forest as JSONL; returns the path."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    text = spans_to_jsonl(list(tracer.spans))
    target.write_text(text + ("\n" if text else ""), encoding="utf-8")
    return target


# ---------------------------------------------------------------------------
# Phase breakdown (the paper's Figure 4 timeline, from spans alone)
# ---------------------------------------------------------------------------

@dataclass
class PhaseBreakdown:
    """Per-command phase timings reconstructed from one span tree."""

    window_id: int
    classification: str
    recognition: Optional[float]  # window open -> classified
    hold: Optional[float]  # records parked -> released/discarded
    decision: Optional[float]  # decision query -> verdict
    push_rtt: Optional[float]  # fastest push round-trip that resolved
    verdict: str
    outcome: str  # released | discarded | open


def phase_breakdown(tracer: SpanTracer) -> List[PhaseBreakdown]:
    """Fold each ``command.window`` span tree into its phase timings."""
    rows: List[PhaseBreakdown] = []
    children: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    for root in tracer.spans:
        if root.name != WINDOW_SPAN:
            continue
        kids = children.get(root.span_id, [])
        classify = _first(kids, CLASSIFY_SPAN)
        hold = _first(kids, HOLD_SPAN)
        decision = _first(kids, DECISION_SPAN)
        push_rtt = None
        if decision is not None:
            rtts = [
                s.duration for s in children.get(decision.span_id, [])
                if s.name == PUSH_SPAN and s.duration is not None
                and s.attrs.get("status") == "report"
            ]
            if rtts:
                push_rtt = min(rtts)
        rows.append(PhaseBreakdown(
            window_id=int(root.attrs.get("window_id", 0)),
            classification=str(root.attrs.get("classification", "?")),
            recognition=classify.duration if classify is not None else None,
            hold=hold.duration if hold is not None else None,
            decision=decision.duration if decision is not None else None,
            push_rtt=push_rtt,
            verdict=str(decision.attrs.get("verdict", "-")) if decision is not None else "-",
            outcome=str(root.attrs.get("outcome", "open")),
        ))
    return rows


def _first(spans: Sequence[Span], name: str) -> Optional[Span]:
    for span in spans:
        if span.name == name:
            return span
    return None


def render_phase_table(rows: Sequence[PhaseBreakdown]) -> str:
    """The Figure 4 phase table: one row per recognized window."""
    table_rows = []
    for row in rows:
        table_rows.append([
            row.window_id,
            row.classification,
            _fmt_s(row.recognition),
            _fmt_s(row.hold),
            _fmt_s(row.decision),
            _fmt_s(row.push_rtt),
            row.verdict,
            row.outcome,
        ])
    return render_table(
        "Per-command phase breakdown (from spans)",
        ["window", "class", "recognition", "hold", "decision", "push rtt",
         "verdict", "outcome"],
        table_rows,
    )


def _fmt_s(value: Optional[float]) -> str:
    return f"{value:.3f}s" if value is not None else "—"


# ---------------------------------------------------------------------------
# Waterfall
# ---------------------------------------------------------------------------

def render_waterfall(tracer: SpanTracer, width: int = 48,
                     roots: Optional[Sequence[str]] = None) -> str:
    """ASCII waterfall: each root span tree on its own time axis.

    ``roots`` restricts rendering to root spans with those names (e.g.
    ``["command.window"]``); by default every root tree is drawn.
    """
    lines: List[str] = []
    children: Dict[int, List[Span]] = {}
    for span in tracer.spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)

    def draw(span: Span, depth: int, t0: float, scale: float) -> None:
        end = span.end if span.end is not None else span.start
        left = int(round((span.start - t0) * scale))
        length = max(1, int(round((end - span.start) * scale)))
        bar = " " * min(left, width) + "#" * min(length, max(1, width - left))
        duration = f"{span.duration:.3f}s" if span.duration is not None else "open"
        label = ("  " * depth + span.name).ljust(26)
        lines.append(f"{label} |{bar.ljust(width)}| {duration}")
        for event in span.events:
            at = f"+{event.time - span.start:.3f}s"
            lines.append("  " * (depth + 1) + f"· {event.name} {at}")
        for child in children.get(span.span_id, []):
            draw(child, depth + 1, t0, scale)

    for root in tracer.spans:
        if root.parent_id is not None:
            continue
        if roots is not None and root.name not in roots:
            continue
        tree_end = root.start
        stack = [root]
        while stack:
            span = stack.pop()
            tree_end = max(tree_end, span.end if span.end is not None else span.start)
            stack.extend(children.get(span.span_id, []))
        extent = max(tree_end - root.start, 1e-9)
        scale = width / extent
        header = ", ".join(f"{k}={v}" for k, v in sorted(root.attrs.items())
                           if k in ("window_id", "flow_id", "outcome", "device"))
        lines.append(f"-- {root.name} @ {root.start:.3f}s"
                     + (f"  ({header})" if header else ""))
        draw(root, 0, root.start, scale)
        lines.append("")
    return "\n".join(lines).rstrip("\n")
