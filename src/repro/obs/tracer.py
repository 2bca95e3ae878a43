"""Span tracer keyed to the simulated clock.

A :class:`Span` is one timed phase of the pipeline (``proxy.hold``,
``decision.query``, ...), with a parent link, typed attributes and
point-in-time :class:`SpanEvent` annotations.  Spans are *not* required
to nest lexically — the guard is callback-driven, so a span is usually
begun in one event handler and ended in another — hence the primary API
is :meth:`SpanTracer.begin` / :meth:`Span.end`; the :meth:`SpanTracer.span`
context manager is a convenience for lexically scoped phases.

Timestamps come exclusively from the simulated clock (anything with a
``.now`` attribute: :class:`repro.sim.simulator.Simulator` or
:class:`repro.sim.clock.SimClock`), so traces are deterministic: the
same seed produces the same span tree, byte for byte.

The disabled tracer (:data:`NULL_TRACER`) is a true no-op: ``begin``
returns the shared :data:`NULL_SPAN` whose every method does nothing,
no list is appended to, no clock is read, and nothing observable about
the simulation changes.  Components therefore instrument unconditionally
and let the null object absorb the calls.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry


class SpanEvent:
    """A point-in-time annotation inside a span (e.g. a push retry)."""

    __slots__ = ("name", "time", "attrs")

    def __init__(self, name: str, time: float, attrs: Dict[str, object]) -> None:
        self.name = name
        self.time = time
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpanEvent({self.name!r}, t={self.time:.6f}, {self.attrs!r})"


class Span:
    """One timed phase with parent link, attributes and events."""

    __slots__ = ("span_id", "name", "start", "end", "parent_id", "attrs",
                 "events", "_tracer")

    def __init__(self, tracer: "SpanTracer", span_id: int, name: str,
                 start: float, parent_id: Optional[int]) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = {}
        self.events: List[SpanEvent] = []

    # -- mutation -------------------------------------------------------
    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) typed attributes."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> "Span":
        """Record a point event at the current simulated time."""
        self.events.append(SpanEvent(name, self._tracer.now, attrs))
        return self

    def finish(self, **attrs: object) -> "Span":
        """End the span at the current simulated time (idempotent)."""
        if attrs:
            self.attrs.update(attrs)
        if self.end is None:
            self.end = self._tracer.now
        return self

    # -- queries --------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        """Seconds from start to end (None while open)."""
        if self.end is None:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "open"
        return f"Span#{self.span_id} {self.name!r} [{self.start:.6f}, {end}]"


class _NullSpan:
    """The shared do-nothing span handed out by the disabled tracer."""

    __slots__ = ()

    span_id = 0
    name = ""
    start = 0.0
    end = None
    parent_id = None
    attrs: Dict[str, object] = {}
    events: Tuple[()] = ()
    finished = False
    duration = None

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> "_NullSpan":
        return self

    def finish(self, **attrs: object) -> "_NullSpan":
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class SpanTracer:
    """Collects a deterministic span forest for one simulation run."""

    enabled = True

    def __init__(self, clock) -> None:
        if not hasattr(clock, "now"):
            raise ConfigError("tracer clock must expose a .now attribute")
        self._clock = clock
        self.spans: List[Span] = []
        self._last_id = 0

    @property
    def now(self) -> float:
        return self._clock.now

    # -- creation -------------------------------------------------------
    def _next_span_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def begin(self, name: str, parent: Optional[Span] = None, **attrs: object) -> Span:
        """Open a span at the current simulated time."""
        parent_id = None
        if parent is not None and parent is not NULL_SPAN:
            parent_id = parent.span_id
        span = Span(self, self._next_span_id(), name, self.now, parent_id)
        if attrs:
            span.attrs.update(attrs)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object) -> Iterator[Span]:
        """Lexically scoped span: ended on exit of the ``with`` block."""
        span = self.begin(name, parent=parent, **attrs)
        try:
            yield span
        finally:
            span.finish()

    # -- queries --------------------------------------------------------
    def roots(self) -> List[Span]:
        """Spans with no parent, in begin order."""
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span``, in begin order."""
        return [s for s in self.spans if s.parent_id == span.span_id]

    def named(self, name: str) -> List[Span]:
        """All spans called ``name``, in begin order."""
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)


class NullTracer:
    """The disabled tracer: every operation is a constant-time no-op."""

    enabled = False
    spans: Tuple[()] = ()

    def begin(self, name: str, parent: Optional[Span] = None,
              **attrs: object) -> _NullSpan:
        return NULL_SPAN

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             **attrs: object) -> Iterator[_NullSpan]:
        yield NULL_SPAN

    def roots(self) -> List[Span]:
        return []

    def children_of(self, span) -> List[Span]:
        return []

    def named(self, name: str) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0


NULL_TRACER = NullTracer()


class Observability:
    """One run's observability bundle: a tracer plus a metrics registry.

    The metrics registry is always live (recording is O(1), consumes no
    randomness and never touches the simulator, so it cannot perturb a
    run); the tracer is :data:`NULL_TRACER` unless ``tracing=True``.
    """

    def __init__(self, clock=None, tracing: bool = False) -> None:
        self.metrics = MetricsRegistry()
        if tracing:
            if clock is None:
                raise ConfigError("tracing requires a clock (Simulator or SimClock)")
            self.tracer: object = SpanTracer(clock)
        else:
            self.tracer = NULL_TRACER

    @property
    def tracing(self) -> bool:
        """Whether span collection is live."""
        return self.tracer.enabled
