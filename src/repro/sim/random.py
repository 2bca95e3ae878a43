"""Named, seeded random streams.

Every stochastic component in the reproduction (propagation shadowing,
packet-length variation, push-notification latency, human mobility,
workload arrival times, ...) pulls from its own named stream derived
from a single experiment seed.  This keeps experiments reproducible and
— just as important — keeps subsystems statistically independent: adding
a draw to one component does not perturb any other component's sequence.

Scalar draws go through :func:`uniform`, :func:`pick` and
:func:`generator`.  Each spells one numpy call the way numpy computes
it, so it yields the same value and leaves the generator in the same
state, without the per-call argument handling that dominates a scalar
draw's cost.  ``tests/test_sim_random.py`` pins each identity.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence, TypeVar

import numpy as np

_T = TypeVar("_T")


def uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """``rng.uniform(low, high)``: numpy computes ``low + (high - low) *
    next_double``.  Unlike numpy it does not check its bounds; callers
    pass finite ``low <= high``."""
    return low + (high - low) * rng.random()


def pick(rng: np.random.Generator, seq: Sequence[_T]) -> _T:
    """``rng.choice(seq)`` for a non-empty sequence: numpy draws the
    index as ``integers(0, len(seq))``.  Returns the element itself,
    not a numpy scalar."""
    return seq[rng.integers(0, len(seq))]


def generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for an integer seed (or None):
    ``default_rng`` builds exactly this."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


class RngHub:
    """Factory of independent ``numpy.random.Generator`` streams.

    Streams are keyed by name; the same ``(seed, name)`` pair always
    yields the same sequence.  Repeated calls with the same name return
    the *same generator object*, so state advances across call sites.

    Example
    -------
    >>> hub = RngHub(seed=7)
    >>> a = hub.stream("radio.shadowing")
    >>> b = hub.stream("radio.shadowing")
    >>> a is b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The hub's root seed."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = generator(self._derive_seed(name))
        return stream

    def reseed(self, seed: int) -> None:
        """Re-key the hub in place: every already-created stream jumps to
        the state a fresh hub with ``seed`` would have created it in, and
        streams created afterwards derive from the new seed.

        The two cases are indistinguishable by construction — a stream's
        post-reseed state equals its would-be-fresh state — so *which*
        streams happen to exist at reseed time, and how far the world
        build advanced them, is unobservable.  That is the property the
        scenario pool leans on: a home restored with a fresh hub at its
        seed draws exactly what a cold build reseeded by
        :func:`repro.experiments.pool.rehome` draws, whatever bucket
        template it came from.

        Existing generator *objects* keep their identity (components hold
        references to them); only their internal state is replaced.
        """
        self._seed = int(seed)
        for name, stream in self._streams.items():
            fresh = generator(self._derive_seed(name))
            stream.bit_generator.state = fresh.bit_generator.state

    def fork(self, name: str) -> "RngHub":
        """A child hub whose streams are independent of this hub's.

        Used to give each of many repeated trials (e.g. each of the
        7 simulated days in Tables II-IV) its own deterministic world.
        """
        return RngHub(self._derive_seed(f"fork:{name}"))

    def _derive_seed(self, name: str) -> int:
        digest = hashlib.sha256(f"{self._seed}/{name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")


def bounded_lognormal(
    rng: np.random.Generator,
    mean: float,
    sigma: float,
    low: float,
    high: float,
) -> float:
    """Draw from a lognormal with target *arithmetic* mean, clipped to
    ``[low, high]``.

    Latency-like quantities (FCM delivery, BLE scan completion) are
    right-skewed with a hard floor; the paper's Figure 7 histogram has
    exactly this shape.  ``sigma`` is the shape parameter of the
    underlying normal; ``mu`` is solved so the distribution mean equals
    ``mean`` before clipping.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean!r}")
    if low > high:
        raise ValueError(f"low {low!r} exceeds high {high!r}")
    mu = np.log(mean) - 0.5 * sigma * sigma
    value = float(rng.lognormal(mean=mu, sigma=sigma))
    return float(min(max(value, low), high))
