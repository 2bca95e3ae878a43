"""Traffic-shaping adversaries that morph a speaker's flow shape.

The paper's recognizer fingerprints a speaker's *traffic* (record
lengths and timing), not its audio.  A network-level adversary — a
compromised router, a malicious VPN hop, or the speaker vendor itself —
can reshape that fingerprint without touching a single payload byte:

* pad TLS records up to a fixed cell size (``pad-fixed``),
* pad each record by a random amount (``pad-random``),
* perturb inter-record gaps (``jitter``),
* inject bursts of dummy records the cloud will ignore (``dummy-burst``).

:meth:`TrafficMorpher.morph_window` rewrites a whole window of
``(offset, length)`` records offline.  This is what
:func:`repro.core.recognizers.morph_sample` applies to training corpora
for adversarial retraining, and what ``repro recognition-robustness``
applies to evaluation windows.  Each morpher's strength is a class
constant, the setting that experiment measures.

Every morpher draws only from the generator its caller passes in, so
a morph consumes no other random stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.registry import lookup
from repro.sim.random import pick, uniform

# A window of observed records as (offset_seconds, payload_len) pairs,
# offsets non-decreasing from the window's first record.
Record = Tuple[float, int]


class TrafficMorpher:
    """Base morpher: the identity transform.

    Subclasses override :meth:`shape_record` (per-record) and/or
    :meth:`morph_window` (whole-window).  The contract every morpher
    must keep — pinned by property tests:

    * the morphed window has at least as many records as the input, and
      the original records keep their relative order;
    * morphed offsets are non-decreasing (sim-clock monotonicity);
    * *padding* morphers never shrink a record.
    """

    name = "identity"

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

    #: Cell size in bytes; records already longer keep their length.
    CELL = 1460

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        return max(length, self.CELL), []


class RandomPadMorpher(TrafficMorpher):
    """Pad each record by a uniform random amount in ``[1, MAX_PAD]``.

    Cheaper than fixed cells (less overhead) but noisier: lengths keep
    a blurred version of their original ordering.  The minimum pad of 1
    guarantees the morph is never the identity, so exact-length
    signatures always miss.
    """

    name = "pad-random"

    MAX_PAD = 600

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        return length + int(rng.integers(1, self.MAX_PAD + 1)), []


class TimingJitterMorpher(TrafficMorpher):
    """Stretch inter-record gaps by random non-negative jitter.

    Lengths are untouched; only the rhythm changes.  Gaps never shrink,
    so offsets stay non-decreasing and record order is preserved.
    """

    name = "jitter"

    #: Largest stretch of one gap, in seconds.
    MAX_JITTER = 0.4

    def morph_window(self, records: Sequence[Record],
                     rng: np.random.Generator) -> List[Record]:
        morphed: List[Record] = []
        shift = 0.0
        previous: Optional[float] = None
        for offset, length in records:
            if previous is not None and offset > previous:
                shift += uniform(rng, 0.0, self.MAX_JITTER)
            previous = offset
            morphed.append((offset + shift, length))
        return morphed


class DummyBurstMorpher(TrafficMorpher):
    """Inject short bursts of dummy records after real ones.

    Dummy lengths come from a pool chosen to dodge the signature
    alphabet (no phase markers, no 77/33, below the command band), so
    the damage is purely positional: real markers get pushed out of the
    prefix positions the matcher inspects.  The cloud would ignore the
    dummies.
    """

    name = "dummy-burst"

    #: Dummy record lengths: none collide with the Echo phase markers
    #: (138/75), the response pair (77→33), or the command first-packet
    #: band (250-650).
    POOL: Tuple[int, ...] = (97, 103, 149, 211)
    #: Most dummies after one record, and the chance a record gets any.
    BURST = 2
    PROBABILITY = 0.8

    def shape_record(self, length: int,
                     rng: np.random.Generator) -> Tuple[int, List[int]]:
        if float(rng.random()) >= self.PROBABILITY:
            return length, []
        count = int(rng.integers(1, self.BURST + 1))
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
    """Instantiate a named morpher."""
    return lookup(MORPHERS, "traffic morpher", name)()
