"""Adaptive connection-signature learning (paper Section VII).

The paper notes its packet-level signatures "have remained the same for
over two years" but that a firmware update could change them, and plans
to "revise the Traffic Processing Module so that it can adaptively
learn the packet-level signatures when they change".  This module
implements that plan:

* whenever a flow's server IP is *independently confirmed* as the AVS
  server by a DNS answer, the learner records the flow's opening
  length-prefix;
* once the same prefix has been observed on ``confirmations`` distinct
  DNS-confirmed connections, it is adopted as the active signature;
* the recognizer then uses the *learned* signature to re-identify the
  AVS server on connections that were not preceded by DNS.

Learning only ever uses DNS-confirmed flows, so an attacker cannot
poison the signature by opening look-alike connections to other
servers (they would also need to control the home's DNS answers, which
the threat model excludes).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.net.proxy import ProxiedFlow


@dataclass
class LearnedSignature:
    """A signature adopted by the learner."""

    lengths: Tuple[int, ...]
    adopted_at: float
    confirmations: int


class SignatureLearner:
    """Learns a server's connection signature from confirmed flows.

    Parameters
    ----------
    prefix_length:
        How many opening application-data lengths form a signature
        (the Echo Dot's measured signature is 16 packets long).
    confirmations:
        How many distinct DNS-confirmed connections must agree before a
        prefix is adopted.
    """

    def __init__(self, prefix_length: int = 16, confirmations: int = 3) -> None:
        if prefix_length < 4:
            raise ConfigError(f"prefix_length must be >= 4, got {prefix_length!r}")
        if confirmations < 1:
            raise ConfigError(f"confirmations must be >= 1, got {confirmations!r}")
        self.prefix_length = prefix_length
        self.confirmations = confirmations
        self.active: Optional[LearnedSignature] = None
        self.history: List[LearnedSignature] = []
        self._candidate_counts: Counter = Counter()
        # Flow id -> accumulating prefix, only for confirmed-server flows.
        self._prefixes: Dict[int, List[int]] = {}
        self._completed_flows: set = set()

    # -- observation ------------------------------------------------------
    def observe_confirmed_flow(self, flow: ProxiedFlow, packet: Packet, now: float) -> None:
        """Feed one client record of a DNS-confirmed AVS flow."""
        if flow.flow_id in self._completed_flows:
            return
        prefix = self._prefixes.setdefault(flow.flow_id, [])
        prefix.append(packet.payload_len)
        if len(prefix) < self.prefix_length:
            return
        self._completed_flows.add(flow.flow_id)
        candidate = tuple(prefix[: self.prefix_length])
        del self._prefixes[flow.flow_id]
        self._candidate_counts[candidate] += 1
        if self._candidate_counts[candidate] >= self.confirmations:
            self._adopt(candidate, now)

    def _adopt(self, candidate: Tuple[int, ...], now: float) -> None:
        if self.active is not None and self.active.lengths == candidate:
            return
        signature = LearnedSignature(
            lengths=candidate,
            adopted_at=now,
            confirmations=self._candidate_counts[candidate],
        )
        if self.active is not None:
            self.history.append(self.active)
        self.active = signature
        # Stale candidates should not block a later re-learn.
        self._candidate_counts = Counter({candidate: self._candidate_counts[candidate]})

    # -- matching ------------------------------------------------------------
    def matches(self, prefix: List[int]) -> bool:
        """Whether a complete prefix equals the learned signature."""
        if self.active is None:
            return False
        return tuple(prefix[: self.prefix_length]) == self.active.lengths
