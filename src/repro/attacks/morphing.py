"""Traffic-shaping adversaries that morph a speaker's flow shape.

The paper's recognizer fingerprints a speaker's *traffic* (record
lengths and timing), not its audio.  A network-level adversary — a
compromised router, a malicious VPN hop, or the speaker vendor itself —
can reshape that fingerprint without touching a single payload byte:

* pad TLS records up to a fixed cell size (``pad-fixed``),
* pad each record by a random amount (``pad-random``),
* perturb inter-record gaps (``jitter``),
* inject bursts of dummy records the cloud will ignore (``dummy-burst``).

Two deployment surfaces share one morpher implementation:

**Offline** (training / evaluation): :meth:`TrafficMorpher.morph_window`
rewrites a whole window of ``(offset, length)`` records.  This is what
:func:`repro.core.recognizers.morph_sample` applies to training corpora
for adversarial retraining, and what the robustness experiment applies
to evaluation windows.

**Online** (live tap): :class:`MorphingAdversary` installs itself as a
record shim on the guard's proxy (:meth:`TransparentProxy.
install_record_shim`) and presents *phantom* packets — same flow, same
metadata, morphed ``payload_len`` — to the guard's record policy.  The
real records keep their true lengths on the wire, so the cloud-side
semantics (and every other consumer of the flow) are untouched; only
the guard's observation is reshaped.  Timing morphers cannot run here
(a shim cannot bend the simulator clock), so they set ``online=False``
and only act offline.

Every morpher draws from a generator the *adversary* owns — never from
the guard's :class:`~repro.sim.random.RngHub` streams — so installing
one cannot perturb the guard's own randomness.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.core.registry import lookup
from repro.errors import ConfigError
from repro.net.packet import Packet
from repro.net.proxy import ForwarderDecision, ProxiedFlow, TransparentProxy
from repro.sim.random import generator, pick, uniform

# A window of observed records as (offset_seconds, payload_len) pairs,
# offsets non-decreasing from the window's first record.
Record = Tuple[float, int]


class TrafficMorpher:
    """Base morpher: the identity transform.

    Subclasses override :meth:`shape_record` (per-record, used by both
    surfaces) and/or :meth:`morph_window` (whole-window, offline only).
    The contract every morpher must keep — pinned by property tests:

    * the morphed window has at least as many records as the input, and
      the original records keep their relative order;
    * morphed offsets are non-decreasing (sim-clock monotonicity);
    * *padding* morphers never shrink a record.
    """

    name = "identity"
    #: Whether the morpher can run as a live proxy shim.  Timing
    #: morphers cannot (the shim observes records at true sim time).
    online = True

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        """Morph one record: ``(observed_length, trailing_dummy_lengths)``."""
        return length, []

    def morph_window(self, records: Sequence[Record],
                     rng: np.random.Generator) -> List[Record]:
        """Morph a whole window of ``(offset, length)`` records.

        The default applies :meth:`shape_record` to each record in
        order; injected dummies inherit the parent record's offset,
        which keeps offsets non-decreasing.
        """
        morphed: List[Record] = []
        for offset, length in records:
            observed, extras = self.shape_record(length, rng)
            morphed.append((offset, observed))
            for extra in extras:
                morphed.append((offset, extra))
        return morphed


class PadToFixedMorpher(TrafficMorpher):
    """Pad every record up to a fixed cell size (Tor-style cells).

    The strongest shape eraser: every marker byte-length the signature
    matcher keys on (phase markers, the 77→33 response pair, the
    command first-packet band) collapses onto one constant.
    """

    name = "pad-fixed"

    def __init__(self, cell: int = 1460) -> None:
        if cell < 1:
            raise ConfigError(f"pad cell must be positive, got {cell!r}")
        self.cell = cell

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        return max(length, self.cell), []


class RandomPadMorpher(TrafficMorpher):
    """Pad each record by a uniform random amount in ``[1, max_pad]``.

    Cheaper than fixed cells (less overhead) but noisier: lengths keep
    a blurred version of their original ordering.  The minimum pad of 1
    guarantees the morph is never the identity, so exact-length
    signatures always miss.
    """

    name = "pad-random"

    def __init__(self, max_pad: int = 600) -> None:
        if max_pad < 1:
            raise ConfigError(f"max_pad must be positive, got {max_pad!r}")
        self.max_pad = max_pad

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        return length + int(rng.integers(1, self.max_pad + 1)), []


class TimingJitterMorpher(TrafficMorpher):
    """Stretch inter-record gaps by random non-negative jitter.

    Lengths are untouched; only the rhythm changes.  Gaps never shrink,
    so offsets stay non-decreasing and record order is preserved.  A
    live shim cannot delay the guard's observations (records are tapped
    at true sim time), so this morpher is offline-only.
    """

    name = "jitter"
    online = False

    def __init__(self, max_jitter: float = 0.4) -> None:
        if max_jitter <= 0:
            raise ConfigError(f"max_jitter must be positive, got {max_jitter!r}")
        self.max_jitter = max_jitter

    def morph_window(self, records: Sequence[Record],
                     rng: np.random.Generator) -> List[Record]:
        morphed: List[Record] = []
        shift = 0.0
        previous: Optional[float] = None
        for offset, length in records:
            if previous is not None and offset > previous:
                shift += uniform(rng, 0.0, self.max_jitter)
            previous = offset
            morphed.append((offset + shift, length))
        return morphed


class DummyBurstMorpher(TrafficMorpher):
    """Inject short bursts of dummy records after real ones.

    Dummy lengths come from a pool chosen to dodge the signature
    alphabet (no phase markers, no 77/33, below the command band), so
    the damage is purely positional: real markers get pushed out of the
    prefix positions the matcher inspects.  The cloud ignores the
    dummies (they are observations only at the guard's tap).
    """

    name = "dummy-burst"

    #: Dummy record lengths: none collide with the Echo phase markers
    #: (138/75), the response pair (77→33), or the command first-packet
    #: band (250-650).
    POOL: Tuple[int, ...] = (97, 103, 149, 211)

    def __init__(self, burst: int = 2, probability: float = 0.8) -> None:
        if burst < 1:
            raise ConfigError(f"burst must be positive, got {burst!r}")
        if not 0.0 < probability <= 1.0:
            raise ConfigError(f"probability must be in (0, 1], got {probability!r}")
        self.burst = burst
        self.probability = probability

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        if float(rng.random()) >= self.probability:
            return length, []
        count = int(rng.integers(1, self.burst + 1))
        extras = [pick(rng, self.POOL) for _ in range(count)]
        return length, extras


# ---------------------------------------------------------------------------
# Morpher names
# ---------------------------------------------------------------------------

# Name → class, the same shape as repro.core.recognizers.RECOGNIZERS;
# experiments and the CLI select morphers by these names.
MORPHERS: Dict[str, Type[TrafficMorpher]] = {
    "pad-fixed": PadToFixedMorpher,
    "pad-random": RandomPadMorpher,
    "jitter": TimingJitterMorpher,
    "dummy-burst": DummyBurstMorpher,
}


def create_morpher(name: str) -> TrafficMorpher:
    """Instantiate a named morpher with its default knobs."""
    return lookup(MORPHERS, "traffic morpher", name)()


# ---------------------------------------------------------------------------
# Live adversary (proxy record shim)
# ---------------------------------------------------------------------------


def _phantom(packet: Packet, payload_len: int) -> Packet:
    """A copy of ``packet`` with a morphed length (observation only)."""
    return Packet(
        packet.src,
        packet.dst,
        packet.protocol,
        payload_len=payload_len,
        flags=packet.flags,
        seq=packet.seq,
        ack=packet.ack,
        tls_type=packet.tls_type,
        tls_record_seq=packet.tls_record_seq,
        meta=dict(packet.meta),
        send_time=packet.send_time,
    )


class MorphingAdversary:
    """An on-path traffic shaper installed at the guard's tap.

    Wraps an *online* :class:`TrafficMorpher` as a proxy record shim:
    for each tapped client record it presents a phantom packet with the
    morphed length to the rest of the policy chain and relays the
    chain's decision for the real record.  Injected dummy records are
    fed through the chain as pure observations (their decisions are
    discarded — nothing real is held or dropped for them).

    The adversary owns its generator (``generator(seed)``);
    it never touches the guard's named streams, so installing one
    leaves every guard-side draw byte-identical.
    """

    def __init__(self, morpher: TrafficMorpher, seed: int,
                 speaker_ips: Optional[Sequence] = None) -> None:
        if not morpher.online:
            raise ConfigError(
                f"morpher {morpher.name!r} is offline-only and cannot "
                "run as a live shim")
        self.morpher = morpher
        self.rng = generator(seed)
        self.speaker_ips: Optional[Set] = (
            set(speaker_ips) if speaker_ips is not None else None)
        self.records_shaped = 0
        self.phantoms_injected = 0

    def install(self, proxy: TransparentProxy) -> None:
        """Interpose on ``proxy``'s record-policy chain."""
        proxy.install_record_shim(self.shim)

    def shim(self, flow: ProxiedFlow, packet: Packet,
             forward: Callable[[ProxiedFlow, Packet], ForwarderDecision],
             ) -> ForwarderDecision:
        """The record shim: morph, observe, relay the decision."""
        if self.speaker_ips is not None and flow.client.ip not in self.speaker_ips:
            return forward(flow, packet)
        observed, extras = self.morpher.shape_record(packet.payload_len, self.rng)
        if observed == packet.payload_len:
            decision = forward(flow, packet)
        else:
            decision = forward(flow, _phantom(packet, observed))
        self.records_shaped += 1
        for extra in extras:
            forward(flow, _phantom(packet, extra))
            self.phantoms_injected += 1
        return decision
