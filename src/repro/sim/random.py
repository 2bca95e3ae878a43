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
draw's cost.  :func:`raw_integers` spells ``integers(0, n)`` draws
from raw 64-bit words (``bit_generator.random_raw``), the way numpy
computes them, for many draws and many generators in one array
computation; ``(word >> 11) * 2**-53`` is the word's ``random()``.
:func:`generators` seeds many generators at once the way
``default_rng`` seeds each.  ``tests/test_sim_random.py`` pins each
identity.

The batch helpers also check them where they run: on first use of
:func:`generators` or :func:`raw_integers`, a one-shot probe compares a
few seeds and bounds with ``default_rng`` and ``Generator.integers``.
Should this numpy draw differently, one stderr line names its version,
:func:`generators` builds ``default_rng``'s own generators, and
:func:`raw_integers` marks every draw as retried, so callers redraw
each home with numpy's own calls: slower, the same tables.
"""

from __future__ import annotations

import functools
import hashlib
import operator
import sys
from typing import Dict, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.errors import SimulationError

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


_HALF = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)
_TWO_32 = np.uint64(2**32)


def raw_integers(words: np.ndarray, bounds) -> Tuple[np.ndarray, np.ndarray]:
    """``[rng.integers(0, n) for n in bounds]`` from ``words =
    rng.bit_generator.random_raw(k)``, as ``(values, retried)``.

    numpy draws a bound ``1 <= n <= 2**32`` from one 32-bit half-word
    ``x`` as ``(x * n) >> 32`` (Lemire's multiply-shift).  PCG64 serves
    a word's low half, then keeps its high half for the next 32-bit
    draw, in the same ``integers`` call or a later one; ``random``,
    ``standard_normal`` and ``exponential`` never read that half.  A
    bound of 1 takes no half.  Halves are split with arithmetic, so
    the byte order does not matter.

    numpy rejects a half, and draws another, when ``(x * n) &
    0xFFFFFFFF < (2**32 - n) % n``: ``retried[i]`` marks such a draw
    (at most ``n / 2**32`` likely), and every draw on a numpy that
    fails the probe.  From there on the values are not numpy's, and the
    generator would have drawn more words.

    Several generators' draws go in one call, their words and bounds in
    turn, when each uses all the halves of its words: one that would
    leave a half over ends with a bound of 2, which numpy never rejects.
    """
    values, retried = _lemire(words, bounds)
    if not _numpy_spelled():
        retried[:] = True
    return values, retried


def _lemire(words: np.ndarray, bounds) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`raw_integers` as this module spells it, unprobed."""
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.size and not (bounds.min() >= 1 and bounds.max() <= 2**32):
        raise SimulationError("an integers bound must be in [1, 2**32]")
    drawn = bounds > 1
    count = int(np.count_nonzero(drawn))
    if count > 2 * words.size:
        raise SimulationError(f"{count} half-words drawn from {words.size} words")
    halves = np.empty(2 * words.size, dtype=np.uint64)
    np.bitwise_and(words, _LOW, out=halves[0::2])
    np.right_shift(words, _HALF, out=halves[1::2])
    x = np.zeros(bounds.size, dtype=np.uint64)
    x[drawn] = halves[:count]
    del halves
    # In place where it can be: a fleet block decodes ~10**5 picks.
    bounds = bounds.view(np.uint64)
    x *= bounds
    values = (x >> _HALF).view(np.int64)
    x &= _LOW
    threshold = _TWO_32 - bounds
    threshold %= bounds
    return values, x < threshold


def generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)`` for an integer seed (or None):
    ``default_rng`` builds exactly this."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), as
# explicit uint32 so every numpy version computes the same words.
_M32 = 0xFFFFFFFF
_XSHIFT = np.uint32(16)
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int):
    """The ``(xor, multiplier)`` pair of each of ``count`` successive
    hashes: each hash xors the running constant in, advances it by
    ``mult``, then multiplies by the advanced constant."""
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = init * mult & _M32
        mults.append(init)
    return (np.array(xors, dtype=np.uint32)[:, None],
            np.array(mults, dtype=np.uint32)[:, None])


# A seed below 2**64 is at most two entropy words, fewer than the
# pool's four, so mixing runs 4 + 4 * 3 hashes (INIT_A, MULT_A); the
# output hash (INIT_B, MULT_B) runs once per state word, and PCG64
# asks for four uint64, eight uint32.
_POOL = 4
_MIX_XOR, _MIX_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_OUT_XOR, _OUT_MULT = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _seed_array(seeds: Sequence[int]) -> np.ndarray:
    """``seeds`` as uint64, or :class:`SimulationError` for any seed
    ``SeedSequence`` would not take as one integer below 2**64."""
    try:
        ints = [operator.index(seed) for seed in seeds]
    except TypeError as exc:
        raise SimulationError(f"a seed must be an integer: {exc}") from None
    if ints and not (min(ints) >= 0 and max(ints) < 2**64):
        bad = next(seed for seed in ints if not 0 <= seed < 2**64)
        raise SimulationError(f"a seed must be in [0, 2**64), got {bad!r}")
    return np.array(ints, dtype=np.uint64)


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for each seed,
    one row per seed: the hash run on every seed at once."""
    pool = np.zeros((_POOL, seeds.size), dtype=np.uint32)
    pool[0] = (seeds & np.uint64(_M32)).astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    # A one-word seed hashes a zero where a second word would be, so
    # seeds below 2**32 need no case of their own.
    pool = _hashmix(pool, _MIX_XOR[:_POOL], _MIX_MULT[:_POOL])
    hashed = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        mixed = _hashmix(pool[src], _MIX_XOR[hashed:hashed + 3],
                         _MIX_MULT[hashed:hashed + 3])
        hashed += 3
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * mixed
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MULT)
    # Pairs of words read little-endian, as generate_state reads them.
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _PcgWords:
    """A seed sequence that only hands ``PCG64`` its four precomputed
    words.  A generator seeded from it cannot spawn, and on NumPy 2,
    which pickles a generator's seed sequence, pickling one raises."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise SimulationError("batch-seeded words only seed PCG64")
        return self._words


@functools.lru_cache(maxsize=None)
def _pcg_seed_type() -> type:
    """:class:`_PcgWords` as the numpy ``ISeedSequence`` subclass that
    ``PCG64`` requires of its seed.  Built on first use, not at import:
    that would load ``numpy.random`` in processes that never draw, such
    as a pooled fleet's parent."""
    from numpy.random.bit_generator import ISeedSequence

    return type("PcgSeed", (_PcgWords, ISeedSequence), {})


class GeneratorBatch:
    """The generators of :func:`generators`, each built on first index."""

    __slots__ = ("_words", "_seed_type")

    def __init__(self, words: np.ndarray) -> None:
        self._words = words
        self._seed_type = _pcg_seed_type()

    def __len__(self) -> int:
        return len(self._words)

    def __getitem__(self, index: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(self._seed_type(self._words[index])))


def generators(seeds: Sequence[int]) -> Sequence[np.random.Generator]:
    """``[np.random.default_rng(seed) for seed in seeds]``, seeded as one
    array computation: numpy's SeedSequence hash run on every seed at
    once.  Each generator has ``default_rng(seed)``'s state and draws.

    The generators' ``seed_seq`` is not a ``SeedSequence``: use them for
    draws, and :func:`generator` for a stream that is stored, pickled or
    spawned.
    """
    seeds = _seed_array(seeds)
    if not _numpy_spelled():
        return [generator(seed) for seed in seeds.tolist()]
    return GeneratorBatch(_pcg64_words(seeds))


# Probe seeds (one word, two words, the largest) and bounds (two, one,
# which draws nothing, small and near 2**32), none of which numpy
# rejects; then one ``random()`` from the word after them.
_PROBE_SEEDS = (0, 2**32 + 7, 2**64 - 1)
_PROBE_BOUNDS = (2, 1, 3, 60, 2**32 - 1)

# The probe's verdict on this process's numpy, once it has run.
_SPELLED: Optional[bool] = None


def _probe() -> bool:
    """Whether this numpy seeds, draws ``integers(0, n)`` and draws
    ``random()`` the way this module spells them, on the probe's seeds
    and bounds."""
    batch = GeneratorBatch(_pcg64_words(_seed_array(_PROBE_SEEDS)))
    for ours, seed in zip(batch, _PROBE_SEEDS):
        numpys = np.random.default_rng(seed)
        if ours.bit_generator.state != numpys.bit_generator.state:
            return False
        words = ours.bit_generator.random_raw(3)
        values, retried = _lemire(words[:2], _PROBE_BOUNDS)
        if retried.any() or values.tolist() != numpys.integers(0, _PROBE_BOUNDS).tolist():
            return False
        if (words[2] >> np.uint64(11)) * 2.0**-53 != numpys.random():
            return False
    return True


def _numpy_spelled() -> bool:
    """:func:`_probe`'s verdict, probed once per process; a failed
    probe prints one line on stderr."""
    global _SPELLED
    if _SPELLED is None:
        _SPELLED = _probe()
        if not _SPELLED:
            print(f"warning: numpy {np.__version__} seeds or draws integers unlike "
                  "repro.sim.random's spelling; batch draws fall back to numpy's own "
                  "calls (slower, the same tables)", file=sys.stderr)
    return _SPELLED


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
