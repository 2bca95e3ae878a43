"""The Decision Module: the legitimacy check of a held command.

The paper's Decision Module "is designed to have a flexible framework
that can utilize various methods to check the legitimacy of a voice
command" (Section IV-C); its current method is Bluetooth-RSSI
proximity, which :class:`RssiDecisionMethod` implements, including the
multi-user OR-rule and the floor-level veto.  A command no device
vouches for within :data:`DECISION_TIMEOUT` gets a TIMEOUT verdict, and
the guard drops it (fail-closed).

Resilience: the paper's chain (push -> app wake -> BLE scan -> report)
can drop at every hop, so the method optionally layers three recoveries
on top of the single-shot protocol — all disabled by default, leaving
the original one-push-per-device, flat-timeout behaviour untouched:

* **Retry with backoff** (``push_retries`` > 0): a device that stays
  silent is re-pushed on an exponential backoff schedule
  (:data:`RETRY_BASE` doubling up to :data:`RETRY_CAP`, jittered when an
  RNG is wired in).
* **Offline re-query**: when the messaging cloud NACKs a push (device
  unreachable), the next-best still-silent device is re-queried
  immediately instead of waiting out its backoff timer; once every
  registered device is known unreachable the query resolves at once
  rather than burning the full timeout.
* **Degraded mode** (``proximity_cache_ttl`` > 0): every report the
  guard ever receives refreshes a last-known-proximity cache; when live
  evidence cannot be obtained, a fresh positive entry (floor-checked at
  grant time) stands in for it.  Only *missing* evidence is backfilled —
  a live below-threshold report is never overridden.

Every recovery action is recorded as a typed
:class:`~repro.core.resilience.ResilienceEvent` so experiments can
report availability and accuracy under injected faults.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.registry import DeviceRegistry, RegisteredDevice
from repro.core.resilience import (
    ProximityCache,
    ResilienceEvent,
    ResilienceEventType,
    ResilienceRecorder,
)
from repro.home.push import PushService, RssiReport
from repro.obs.tracer import NULL_SPAN, Observability
from repro.radio.bluetooth import BluetoothBeacon
from repro.sim.simulator import Simulator

DECISION_TIMEOUT = 5.0  # no reply from any device -> TIMEOUT verdict
RETRY_BASE = 1.2  # first re-push backoff; doubles per attempt...
RETRY_CAP = 4.0  # ...but never exceeds this
# A command joins an in-flight query only while that query is younger
# than this, so a rider never inherits a verdict built mostly from
# another command's timeout budget.
BATCH_WINDOW = DECISION_TIMEOUT / 2.0


class Verdict(enum.Enum):
    """Decision about one held voice command."""

    LEGITIMATE = "legitimate"
    MALICIOUS = "malicious"
    TIMEOUT = "timeout"  # no device answered in time


@dataclass
class DecisionContext:
    """What the Decision Module knows about the pending command."""

    window_id: int
    speaker_ip: str
    requested_at: float
    span: object = NULL_SPAN  # the command's root span, for parent linking
    # When the hold becomes pointless (the handler's max-hold failsafe
    # fires then); the coordinator schedules the most urgent flow first.
    deadline: float = float("inf")


@dataclass
class DecisionResult:
    """Verdict plus the evidence behind it."""

    verdict: Verdict
    reports: List[RssiReport] = field(default_factory=list)
    satisfied_by: Optional[str] = None  # device that proved proximity
    floor_vetoed: List[str] = field(default_factory=list)
    degraded: bool = False  # granted from the proximity cache, not a live report
    retries: int = 0  # extra pushes sent for this query
    offline_devices: List[str] = field(default_factory=list)
    batched: bool = False  # settled by another pending command's query

    @property
    def legitimate(self) -> bool:
        """Whether the verdict allows the command."""
        return self.verdict is Verdict.LEGITIMATE


DecisionCallback = Callable[[DecisionResult], None]
FloorCheck = Callable[[str], bool]  # device name -> on speaker's floor?


class RssiDecisionMethod:
    """The paper's Bluetooth-RSSI proximity method (Figure 5).

    On a query, push an RSSI-measurement request to every registered
    device simultaneously; the command is legitimate as soon as one
    device reports RSSI above its threshold *and* passes the floor
    check.  If every device has answered below threshold the command is
    malicious; if nothing answers within :data:`DECISION_TIMEOUT`, the
    verdict is TIMEOUT.  See the module docstring for the optional
    retry/offline/degraded recoveries.
    """

    def __init__(
        self,
        sim: Simulator,
        push: PushService,
        registry: DeviceRegistry,
        beacon: BluetoothBeacon,
        floor_check: Optional[FloorCheck] = None,
        push_retries: int = 0,
        proximity_cache_ttl: float = 0.0,
        retry_rng: Optional[np.random.Generator] = None,
        on_event: Optional[ResilienceRecorder] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sim = sim
        self.push = push
        self.registry = registry
        self.beacon = beacon
        self.floor_check = floor_check
        self.push_retries = push_retries
        self.retry_rng = retry_rng
        self.on_event = on_event
        self.proximity_cache = ProximityCache(ttl=proximity_cache_ttl)
        obs = obs or Observability()
        self.tracer = obs.tracer
        metrics = obs.metrics.scope("decision")
        self._m_queries = metrics.counter("queries")
        self._m_retries = metrics.counter("retries_sent")
        self._m_degraded = metrics.counter("degraded_grants")
        self._m_offline = metrics.counter("devices_offline")
        self._m_latency = metrics.histogram("latency")
        self._m_verdicts = {
            verdict: metrics.counter(f"verdict.{verdict.value}") for verdict in Verdict
        }

    def decide(self, context: DecisionContext, callback: DecisionCallback) -> None:
        """Query all registered devices; legitimate on the first satisfying report."""
        entries = self.registry.entries()
        if not entries:
            # No registered users: everything is treated as malicious,
            # mirroring a guard that has not been enrolled yet.
            self._m_verdicts[Verdict.MALICIOUS].inc()
            callback(DecisionResult(verdict=Verdict.MALICIOUS))
            return
        self._m_queries.inc()
        state = _QueryState(expected=len(entries))
        state.span = self.tracer.begin(
            "decision.query", parent=context.span,
            window_id=context.window_id, devices=len(entries),
        )
        max_attempts = 1 + self.push_retries

        def build_result(verdict: Verdict, satisfied_by: Optional[str] = None,
                         degraded: bool = False) -> DecisionResult:
            return DecisionResult(
                verdict=verdict,
                reports=list(state.reports),
                satisfied_by=satisfied_by,
                floor_vetoed=list(state.floor_vetoed),
                degraded=degraded,
                retries=state.retries,
                offline_devices=sorted(state.offline),
            )

        def finish(result: DecisionResult) -> None:
            if state.done:
                return
            state.done = True
            state.deadline.cancel()
            for handle in state.retry_timers.values():
                handle.cancel()
            state.retry_timers.clear()
            self._m_latency.record(self.sim.now - context.requested_at)
            self._m_verdicts[result.verdict].inc()
            for span in state.push_spans.values():
                if not span.finished:
                    span.finish(status="abandoned")
            state.span.finish(verdict=result.verdict.value,
                              degraded=result.degraded, retries=state.retries)
            callback(result)

        def cache_eligible(name: str) -> bool:
            # Live evidence always wins: a device that answered (below
            # threshold, or we would have finished) cannot vouch from
            # the cache.  The floor veto applies at grant time.
            if name in state.answered:
                return False
            if self.floor_check is not None and not self.floor_check(name):
                return False
            return True

        def resolve_without_proof(timed_out: bool) -> None:
            """Deadline hit, or every silent device is known unreachable."""
            if state.done:
                return
            if timed_out:
                self._record(state, ResilienceEventType.DECISION_TIMEOUT, context)
            if self.proximity_cache.enabled:
                proof = self.proximity_cache.fresh_proof(self.sim.now, cache_eligible)
                if proof is not None:
                    self._m_degraded.inc()
                    self._record(state, ResilienceEventType.DEGRADED_GRANT,
                                 context, device=proof)
                    finish(build_result(Verdict.LEGITIMATE, satisfied_by=proof,
                                        degraded=True))
                    return
                self._record(state, ResilienceEventType.DEGRADED_MISS, context)
            verdict = Verdict.TIMEOUT if not state.reports else Verdict.MALICIOUS
            finish(build_result(verdict))

        def check_unreachable() -> None:
            # Early exit: nobody left who could still answer.
            silent = state.names - state.answered
            if silent and silent <= state.offline:
                resolve_without_proof(timed_out=False)

        def on_report(report: RssiReport) -> None:
            name = report.device_name
            push_span = state.push_spans.get(name)
            if push_span is not None and not push_span.finished:
                push_span.finish(status="report", rssi=report.sample.rssi)
            entry = self._entry_for(name)
            if entry is not None:
                # Even late or duplicate reports refresh the cache: they
                # are the freshest proximity evidence the guard has.
                self.proximity_cache.update(
                    name, report.reported_at,
                    report.sample.rssi >= entry.threshold,
                )
            if state.done or name in state.answered:
                return
            state.answered.add(name)
            timer = state.retry_timers.pop(name, None)
            if timer is not None:
                timer.cancel()
            state.reports.append(report)
            if entry is not None and self._satisfies(entry, report, state):
                finish(build_result(Verdict.LEGITIMATE, satisfied_by=name))
                return
            if len(state.answered) >= state.expected:
                finish(build_result(Verdict.MALICIOUS))
                return
            check_unreachable()

        def on_undeliverable(device) -> None:
            name = device.name
            push_span = state.push_spans.get(name)
            if push_span is not None and not push_span.finished:
                push_span.finish(status="offline")
            if state.done:
                return
            if name in state.answered or name in state.offline:
                return
            state.offline.add(name)
            self._m_offline.inc()
            self._record(state, ResilienceEventType.DEVICE_OFFLINE, context,
                         device=name, attempt=state.attempts.get(name, 0))
            timer = state.retry_timers.pop(name, None)
            if timer is not None:
                timer.cancel()
            candidate = self._next_best(state)
            if candidate is not None and state.attempts.get(candidate, 0) < max_attempts:
                self._record(state, ResilienceEventType.OFFLINE_REQUERY, context,
                             device=candidate,
                             attempt=state.attempts.get(candidate, 0) + 1)
                send(self.registry.get(candidate))
            check_unreachable()

        def on_retry_timer(name: str) -> None:
            state.retry_timers.pop(name, None)
            if state.done or name in state.answered or name in state.offline:
                return
            entry = self._entry_for(name)
            if entry is None:
                return  # unregistered mid-query
            self._record(state, ResilienceEventType.PUSH_RETRY, context,
                         device=name, attempt=state.attempts.get(name, 0) + 1)
            send(entry)

        def send(entry: RegisteredDevice) -> None:
            name = entry.name
            attempt = state.attempts.get(name, 0) + 1
            state.attempts[name] = attempt
            if attempt > 1:
                state.retries += 1
                self._m_retries.inc()
            previous = state.push_spans.get(name)
            if previous is not None and not previous.finished:
                previous.finish(status="superseded")
            state.push_spans[name] = self.tracer.begin(
                "push.roundtrip", parent=state.span, device=name, attempt=attempt,
            )
            old = state.retry_timers.pop(name, None)
            if old is not None:
                old.cancel()
            if attempt < max_attempts:
                delay = min(RETRY_CAP, RETRY_BASE * (2 ** (attempt - 1)))
                if self.retry_rng is not None:
                    # Decorrelate retry bursts across devices; the draw
                    # comes from a dedicated stream so enabling retries
                    # perturbs no other component's randomness.
                    delay *= 0.9 + 0.2 * float(self.retry_rng.random())
                state.retry_timers[name] = self.sim.schedule(delay, on_retry_timer, name)
            self.push.request_rssi(entry.device, self.beacon, on_report,
                                   on_undeliverable=on_undeliverable)

        state.deadline = self.sim.schedule(DECISION_TIMEOUT, resolve_without_proof, True)
        state.names = {entry.name for entry in entries}
        for entry in entries:
            send(entry)

    def _entry_for(self, device_name: str) -> Optional[RegisteredDevice]:
        if device_name in self.registry:
            return self.registry.get(device_name)
        return None

    def _next_best(self, state: "_QueryState") -> Optional[str]:
        """The most promising still-silent, reachable device.

        Rank by the proximity cache: a device that recently proved
        proximity is the best bet to prove it again; unknown-to-the-cache
        devices keep their registration order.
        """
        best_name: Optional[str] = None
        best_rank = (-1.0, -float("inf"))
        for position, entry in enumerate(self.registry.entries()):
            name = entry.name
            if name in state.answered or name in state.offline:
                continue
            cached = self.proximity_cache.entry(name)
            if cached is not None and cached[1]:
                rank = (1.0, cached[0])
            else:
                rank = (0.0, -float(position))
            if rank > best_rank:
                best_name, best_rank = name, rank
        return best_name

    def _satisfies(self, entry: RegisteredDevice, report: RssiReport, state: "_QueryState") -> bool:
        if report.sample.rssi < entry.threshold:
            return False
        if self.floor_check is not None and not self.floor_check(entry.name):
            # Above threshold but on the wrong floor: the leak case the
            # floor tracker exists to veto (Section V-B2).
            state.floor_vetoed.append(entry.name)
            return False
        return True

    def _record(
        self,
        state: "_QueryState",
        type_: ResilienceEventType,
        context: DecisionContext,
        device: str = "",
        attempt: int = 0,
    ) -> None:
        event = ResilienceEvent(
            type=type_,
            time=self.sim.now,
            window_id=context.window_id,
            device_name=device,
            attempt=attempt,
        )
        state.span.event(type_.value, device=device, attempt=attempt)
        if self.on_event is not None:
            self.on_event(event)


class _QueryState:
    __slots__ = ("expected", "names", "reports", "floor_vetoed", "done",
                 "deadline", "answered", "offline", "attempts", "retry_timers",
                 "retries", "span", "push_spans")

    def __init__(self, expected: int) -> None:
        self.expected = expected
        self.names: set = set()
        self.reports: List[RssiReport] = []
        self.floor_vetoed: List[str] = []
        self.done = False
        self.deadline = None
        self.answered: set = set()
        self.offline: set = set()
        self.attempts: Dict[str, int] = {}
        self.retry_timers: Dict[str, object] = {}
        self.retries = 0
        self.span = NULL_SPAN
        self.push_spans: Dict[str, object] = {}


class _PendingDecision:
    """One admitted-but-not-yet-dispatched legitimacy check."""

    __slots__ = ("context", "callback", "enqueued_at")

    def __init__(self, context: DecisionContext, callback: DecisionCallback,
                 enqueued_at: float) -> None:
        self.context = context
        self.callback = callback
        self.enqueued_at = enqueued_at


class _InflightQuery:
    """A dispatched query plus the pending commands riding on it."""

    __slots__ = ("context", "subscribers", "started_at")

    def __init__(self, context: DecisionContext, started_at: float) -> None:
        self.context = context
        self.subscribers: List[_PendingDecision] = []
        self.started_at = started_at


class DecisionCoordinator:
    """Admission control and batching in front of a decision method.

    With N speakers' commands pending concurrently, the naive pipeline
    launches N independent RSSI queries — N pushes per device for
    evidence that is identical across commands (the phone's proximity
    does not depend on which speaker heard the utterance).  The
    coordinator adds three behaviours, each provably inert while only
    one command is in flight:

    * **Batching** (``batching=True``): a command arriving while a
      query is already in flight subscribes to that query instead of
      launching its own; one phone report then settles every pending
      command at once.  Only queries younger than :data:`BATCH_WINDOW`
      are joined.
    * **Prioritized scheduling** (``max_inflight`` > 0): excess queries
      wait in an earliest-deadline-first queue — the flow closest to
      its max-hold failsafe is queried next — and dispatch as slots
      free up.  A queued command whose deadline passes resolves as
      TIMEOUT without ever burning a query slot.
    * **Queue observability**: ``decision.inflight`` /
      ``decision.queue_depth`` gauges (high-water marks included) and a
      ``decision.queue_wait`` histogram feed the loadtest's knee chart.
    """

    def __init__(
        self,
        method: RssiDecisionMethod,
        sim: Simulator,
        max_inflight: int = 0,
        batching: bool = False,
        obs: Optional[Observability] = None,
    ) -> None:
        self.method = method
        self.sim = sim
        self.max_inflight = max_inflight
        self.batching = batching
        self._seq = 0
        self._inflight: Dict[int, _InflightQuery] = {}
        self._waiting: List[Tuple[float, int, _PendingDecision]] = []
        metrics = (obs or Observability()).metrics.scope("decision")
        self._g_inflight = metrics.gauge("inflight")
        self._g_queue = metrics.gauge("queue_depth")
        self._m_batched = metrics.counter("batched_settlements")
        self._m_queued = metrics.counter("queued")
        self._m_expired = metrics.counter("expired_in_queue")
        self._m_queue_wait = metrics.histogram("queue_wait")

    @property
    def inflight_count(self) -> int:
        """Queries currently running in the underlying method."""
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        """Admitted commands waiting for a query slot."""
        return len(self._waiting)

    def decide(self, context: DecisionContext, callback: DecisionCallback) -> None:
        """Dispatch, subscribe to an in-flight query, or enqueue."""
        if self.batching:
            target = self._joinable_query()
            if target is not None:
                target.subscribers.append(
                    _PendingDecision(context, callback, self.sim.now))
                context.span.event(
                    "decision.batched",
                    primary_window=target.context.window_id,
                    riders=len(target.subscribers),
                )
                return
        if self.max_inflight and len(self._inflight) >= self.max_inflight:
            self._seq += 1
            heapq.heappush(
                self._waiting,
                (context.deadline, self._seq,
                 _PendingDecision(context, callback, self.sim.now)),
            )
            self._m_queued.inc()
            self._g_queue.set(float(len(self._waiting)))
            context.span.event("decision.queued", depth=len(self._waiting))
            return
        self._dispatch(context, callback)

    def _joinable_query(self) -> Optional[_InflightQuery]:
        """The oldest in-flight query still fresh enough to join."""
        best: Optional[Tuple[int, _InflightQuery]] = None
        horizon = self.sim.now - BATCH_WINDOW
        for seq, entry in self._inflight.items():
            if entry.started_at < horizon:
                continue
            if best is None or seq < best[0]:
                best = (seq, entry)
        return best[1] if best is not None else None

    def _dispatch(self, context: DecisionContext, callback: DecisionCallback) -> None:
        self._seq += 1
        seq = self._seq
        entry = _InflightQuery(context, self.sim.now)
        self._inflight[seq] = entry
        self._g_inflight.set(float(len(self._inflight)))

        def done(result: DecisionResult) -> None:
            self._inflight.pop(seq, None)
            self._g_inflight.set(float(len(self._inflight)))
            callback(result)
            for rider in entry.subscribers:
                self._m_batched.inc()
                rider.callback(replace(result, batched=True))
            self._drain()

        self.method.decide(context, done)

    def _drain(self) -> None:
        """Fill freed query slots, most urgent deadline first."""
        while self._waiting and (
            not self.max_inflight or len(self._inflight) < self.max_inflight
        ):
            deadline, _seq, pending = heapq.heappop(self._waiting)
            self._g_queue.set(float(len(self._waiting)))
            if deadline <= self.sim.now:
                # The handler's failsafe already resolved this window;
                # don't burn a slot proving what nobody is waiting for.
                self._m_expired.inc()
                pending.callback(DecisionResult(verdict=Verdict.TIMEOUT))
                continue
            self._m_queue_wait.record(self.sim.now - pending.enqueued_at)
            self._dispatch(pending.context, pending.callback)


class DecisionModule:
    """Holds the active method; the extensibility point of Section VII."""

    def __init__(self, method: DecisionCoordinator) -> None:
        self.method = method

    def decide(self, context: DecisionContext, callback: DecisionCallback) -> None:
        """Delegate to the active method."""
        self.method.decide(context, callback)
