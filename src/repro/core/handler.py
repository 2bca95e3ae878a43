"""The Traffic Handler sub-module (paper Section IV-B2).

Acts on the recognizer's classifications: a *command* window stays held
while the Decision Module is queried, then its records are released to
the cloud (legitimate) or discarded (malicious); *response*/*unknown*
windows are released immediately, keeping the user-visible delay of a
mis-suspected spike to a few packets' worth of time.

Discarded records leave the speaker's next forwarded record out of TLS
sequence, so the cloud closes the session — the command can never
execute, the paper's Figure 4 case III.

The guard fails closed: a TIMEOUT verdict, the max-hold failsafe and
the hold-budget overflow shed all discard the window's records.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.decision import DecisionContext, DecisionModule, DecisionResult, Verdict
from repro.core.events import TrafficClass
from repro.core.recognition import Window
from repro.net.proxy import ProxiedFlow, TransparentProxy
from repro.obs.tracer import Observability
from repro.sim.simulator import Simulator

# Safety bound: never hold a flow longer than this, whatever happens.
MAX_HOLD = 25.0


class TrafficHandler:
    """Resolves windows: release or discard their held records."""

    def __init__(
        self,
        sim: Simulator,
        proxy: TransparentProxy,
        decision: DecisionModule,
        obs: Optional[Observability] = None,
    ) -> None:
        self.sim = sim
        self.proxy = proxy
        self.decision = decision
        # Command windows whose records are parked, keyed by flow id in
        # arrival order: the overflow policy sheds the oldest pending
        # window on the flow whose hold the budget refused.
        self._pending_windows: Dict[int, List[Window]] = {}
        metrics = (obs or Observability()).metrics.scope("proxy")
        self._m_released = metrics.counter("commands_released")
        self._m_blocked = metrics.counter("commands_blocked")
        self._m_benign = metrics.counter("benign_released")
        self._m_failsafe = metrics.counter("failsafe_resolutions")
        self._m_overflow = metrics.counter("overflow_resolutions")
        self._m_hold = metrics.histogram("hold_duration")
        self._m_held_records = metrics.counter("records_resolved")

    # -- recognizer callback ------------------------------------------------
    def on_window_classified(self, window: Window, classification: TrafficClass) -> None:
        """Recognizer callback: release benign windows, query commands."""
        if classification is TrafficClass.COMMAND:
            self._query_decision(window)
        else:
            # Response or unknown spike: let it through immediately.
            self._m_benign.inc()
            self._resolve(window, release=True)

    # -- decision plumbing -----------------------------------------------------
    def _query_decision(self, window: Window) -> None:
        context = DecisionContext(
            window_id=window.window_id,
            speaker_ip=str(window.speaker_ip),
            requested_at=self.sim.now,
            span=window.span,
            deadline=self.sim.now + MAX_HOLD,
        )
        self._pending_windows.setdefault(window.flow.flow_id, []).append(window)

        def on_result(result: DecisionResult) -> None:
            if window.resolved:
                return  # the max-hold failsafe beat us to it
            if window.event is not None:
                window.event.verdict = result.verdict
                window.event.verdict_at = self.sim.now
                window.event.rssi_reports = list(result.reports)
            window.span.set(verdict=result.verdict.value)
            self._settle(window, result.verdict is Verdict.LEGITIMATE)

        def failsafe() -> None:
            # Never hold a flow past MAX_HOLD, whatever went wrong.  Not
            # a verdict: counted apart from released/blocked.
            if not window.resolved:
                self._m_failsafe.inc()
                window.span.event("handler.max_hold_failsafe")
                self._resolve(window, False)

        self.sim.post(MAX_HOLD, failsafe)
        self.decision.decide(context, on_result)

    # -- backpressure ---------------------------------------------------------
    def on_hold_overflow(self, flow: ProxiedFlow) -> None:
        """The hold budget refused a record on ``flow``: shed load.

        Discards the oldest pending command window on the flow, freeing
        its held bytes; the proxy drops the record it could not hold.
        The window's decision query keeps running; its eventual verdict
        finds the window already resolved and is ignored.
        """
        windows = self._pending_windows.get(flow.flow_id)
        if not windows:
            return
        window = windows[0]
        self._m_overflow.inc()
        window.span.event("handler.hold_overflow")
        self._settle(window, False)

    # -- actuation ------------------------------------------------------------
    def _unregister(self, window: Window) -> None:
        windows = self._pending_windows.get(window.flow.flow_id)
        if windows is None:
            return
        try:
            windows.remove(window)
        except ValueError:
            return
        if not windows:
            del self._pending_windows[window.flow.flow_id]

    def _settle(self, window: Window, release: bool) -> None:
        """Count a command window as released or blocked, then resolve it."""
        (self._m_released if release else self._m_blocked).inc()
        self._resolve(window, release)

    def _resolve(self, window: Window, release: bool) -> None:
        """Release or discard the window's held records and close it out."""
        self._unregister(window)
        if release:
            count = self.proxy.release_held(window.flow)
            window.released = True
            outcome = "released"
        else:
            count = self.proxy.discard_held(window.flow)
            window.discarded = True
            outcome = "discarded"
        self._m_held_records.inc(count)
        self._m_hold.record(self.sim.now - window.opened_at)
        window.hold_span.finish(records=count, outcome=outcome)
        window.span.finish(outcome=outcome)
        if window.event is not None:
            if release:
                window.event.released_at = self.sim.now
            else:
                window.event.discarded_at = self.sim.now
            window.event.held_records += count
