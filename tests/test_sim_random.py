"""Each scalar-draw helper in :mod:`repro.sim.random` is the numpy call
it spells: the same value, and the same generator state afterwards.
Each batch-seeded generator is the ``default_rng`` of its seed.

Every guard, fleet and report digest rests on these identities.  Should
a NumPy upgrade break one, the test named after it fails here instead
of the digests failing without a reason.  Draws are interleaved with
scalar ``integers`` calls: PCG64 buffers the spare 32-bit half of a
64-bit output, and a spelling that skipped or consumed that half would
diverge only after such a call.

:func:`~repro.sim.random.raw_integers` is checked against sized and
scalar ``integers`` calls; where numpy rejects a half-word and draws
again is read off numpy's own generator state, not recomputed.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.random import generator, generators, pick, raw_integers, uniform

SEEDS = st.integers(min_value=0, max_value=2**64 - 1)
# Upper bounds of the interleaved ``integers`` draws: 1 draws nothing,
# ranges below 2**32 take the buffered 32-bit path, larger ones 64 bits.
INTERLEAVE = st.lists(st.sampled_from([1, 2, 3, 7, 60, 2**31, 2**40]), max_size=4)
FINITE = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def twins(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def interleave(ours: np.random.Generator, numpys: np.random.Generator, highs) -> None:
    for high in highs:
        assert ours.integers(0, high) == numpys.integers(0, high)


def same_state(ours: np.random.Generator, numpys: np.random.Generator) -> bool:
    return ours.bit_generator.state == numpys.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.tuples(FINITE, FINITE, INTERLEAVE), min_size=1, max_size=6))
def test_uniform_is_generator_uniform(seed, draws):
    ours, numpys = twins(seed)
    for a, b, highs in draws:
        low, high = min(a, b), max(a, b)
        assert uniform(ours, low, high) == float(numpys.uniform(low, high))
        assert same_state(ours, numpys)
        interleave(ours, numpys, highs)


@settings(max_examples=100, deadline=None)
@given(SEEDS, FINITE, INTERLEAVE)
def test_uniform_on_an_empty_interval(seed, low, highs):
    ours, numpys = twins(seed)
    interleave(ours, numpys, highs)
    assert uniform(ours, low, low) == float(numpys.uniform(low, low)) == low
    assert same_state(ours, numpys)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.floats(min_value=1.0, max_value=1e300), st.floats(min_value=0.0, max_value=1.0))
def test_uniform_on_negative_and_wide_bounds(seed, width, part):
    ours, numpys = twins(seed)
    for low, high in ((-width, -width * part), (-width, width), (-1e307, 1e307)):
        assert uniform(ours, low, high) == float(numpys.uniform(low, high))
        assert same_state(ours, numpys)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.tuples(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60), st.booleans(), INTERLEAVE),
    min_size=1, max_size=6))
def test_pick_is_generator_choice(seed, draws):
    ours, numpys = twins(seed)
    for items, as_tuple, highs in draws:
        seq = tuple(items) if as_tuple else items
        assert pick(ours, seq) == numpys.choice(seq)
        assert same_state(ours, numpys)
        interleave(ours, numpys, highs)


@settings(max_examples=300, deadline=None)
@given(SEEDS, INTERLEAVE)
def test_generator_is_default_rng(seed, highs):
    ours, numpys = generator(seed), np.random.default_rng(seed)
    assert type(ours) is type(numpys)
    assert same_state(ours, numpys)
    interleave(ours, numpys, highs)
    assert ours.random() == numpys.random()
    assert same_state(ours, numpys)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=12), INTERLEAVE)
def test_three_scalar_integers_are_the_broadcast_draw(seed, slots, highs):
    # PopulationModel.home draws deployment, plan-scale slot and extra
    # owners one by one where it once drew them as one vector.
    ours, numpys = twins(seed)
    interleave(ours, numpys, highs)
    scalars = [ours.integers(0, 2), ours.integers(0, slots), ours.integers(0, 3)]
    assert scalars == numpys.integers(0, (2, slots, 3)).tolist()
    assert same_state(ours, numpys)


@settings(max_examples=200, deadline=None)
@given(SEEDS, FINITE, FINITE, st.integers(min_value=0, max_value=64), INTERLEAVE)
def test_vector_uniform_is_generator_uniform(seed, a, b, n, highs):
    ours, numpys = twins(seed)
    interleave(ours, numpys, highs)
    low, high = min(a, b), max(a, b)
    assert np.array_equal(low + (high - low) * ours.random(n), numpys.uniform(low, high, size=n))
    assert same_state(ours, numpys)


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=0.0, max_value=1e6),
       INTERLEAVE)
def test_normal_is_loc_plus_scale_standard_normal(seed, loc, scale, highs):
    # The speech pace jitter, the fleet threshold margin and the RSSI
    # sample noise spell ``normal`` this way.
    ours, numpys = twins(seed)
    interleave(ours, numpys, highs)
    assert loc + scale * ours.standard_normal() == float(numpys.normal(loc, scale))
    assert same_state(ours, numpys)


# A seeding batch's edges: one seed, a block of fast homes either side
# of its size, and a full batch.
BATCH_SIZES = st.sampled_from([1, 63, 64, 65, 1024])
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def fill_seeds(size: int, fill: int, below_2_32: bool):
    high = 2**32 if below_2_32 else 2**64
    return [int(seed) for seed in np.random.default_rng(fill).integers(
        0, high, size, dtype=np.uint64)]


@settings(max_examples=60, deadline=None)
@given(BATCH_SIZES, st.integers(min_value=0, max_value=2**32 - 1), st.booleans(),
       st.lists(st.tuples(SEEDS, st.integers(min_value=0, max_value=1023), INTERLEAVE),
                min_size=1, max_size=4))
def test_generators_are_default_rng(size, fill, below_2_32, placed):
    # Mostly drawn seeds, a few placed by hypothesis; every generator is
    # compared in state, the placed ones in interleaved draws too.
    seeds = fill_seeds(size, fill, below_2_32)
    for seed, at, _ in placed:
        seeds[at % size] = seed
    batch = generators(seeds)
    assert len(batch) == size
    for seed, ours in zip(seeds, batch):
        assert same_state(ours, np.random.default_rng(seed))
    for _, at, highs in placed:
        ours, numpys = batch[at % size], np.random.default_rng(seeds[at % size])
        interleave(ours, numpys, highs)
        assert ours.random() == numpys.random()
        assert np.array_equal(ours.integers(0, 2**40, 5), numpys.integers(0, 2**40, 5))
        assert same_state(ours, numpys)


@pytest.mark.parametrize("seeds", [[seed] for seed in EDGE_SEEDS] + [EDGE_SEEDS],
                         ids=[str(seed) for seed in EDGE_SEEDS] + ["together"])
def test_generators_at_the_word_edges(seeds):
    for seed, ours in zip(seeds, generators(seeds)):
        numpys = np.random.default_rng(seed)
        assert same_state(ours, numpys)
        assert ours.random() == numpys.random()


def test_generators_take_numpy_integers_and_no_seeds():
    seeds = [np.uint64(2**64 - 1), np.int64(7), np.uint32(2**32 - 1)]
    for seed, ours in zip(seeds, generators(seeds)):
        assert same_state(ours, np.random.default_rng(int(seed)))
    assert len(generators([])) == 0


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "3", None],
                         ids=["negative", "2**64", "float", "str", "None"])
def test_generators_reject_a_seed_seedsequence_would_not_take(bad):
    with pytest.raises(SimulationError, match="seed"):
        generators([5, bad])


@pytest.mark.parametrize("size", [1, 64])
def test_batch_words_seed_pcg64_only(size):
    # The batch's seed_seq stands in for a SeedSequence only as far as
    # PCG64's constructor asks.
    seed_seq = generators(range(size))[0].bit_generator.seed_seq
    assert not isinstance(seed_seq, np.random.SeedSequence)
    with pytest.raises(SimulationError):
        seed_seq.generate_state(8)


# Bounds of the raw-word integers: 1 takes no half-word, 2**31 + 1 and
# 3 * 2**30 + 1 reject about half and a quarter of all half-words.
RAW_BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 7, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1]),
    st.integers(min_value=1, max_value=2**32 - 1))


def words_for(bounds) -> int:
    """The raw words ``raw_integers`` reads for ``bounds``."""
    return (sum(1 for bound in bounds if bound > 1) + 1) // 2


def numpy_retries(seed: int, bounds):
    """Each ``integers(0, n)`` numpy draws for ``bounds`` in turn from
    ``default_rng(seed)``, and whether it took more than one half-word,
    read off the generator's state (words served, spare half kept)."""
    rng, probe = np.random.default_rng(seed), np.random.default_rng(seed)
    words = halves = 0
    values, retried = [], []
    for bound in bounds:
        values.append(int(rng.integers(0, bound)))
        state = rng.bit_generator.state
        while probe.bit_generator.state["state"] != state["state"]:
            probe.bit_generator.random_raw()
            words += 1
        used = 2 * words - state["has_uint32"] - halves
        halves += used
        assert used >= 1 if bound > 1 else used == 0
        retried.append(used > 1)
    return values, retried


def first(flags) -> int:
    return next((i for i, flag in enumerate(flags) if flag), len(flags))


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.tuples(RAW_BOUNDS, st.sampled_from([0, 1, 2, 5, 8, 13])),
                       min_size=1, max_size=4))
def test_raw_integers_are_generator_integers(seed, calls):
    # Consecutive sized calls share PCG64's buffered half-word.
    bounds = [bound for bound, size in calls for _ in range(size)]
    ours, numpys = twins(seed)
    values, retried = raw_integers(ours.bit_generator.random_raw(words_for(bounds)), bounds)
    expected = [int(value) for bound, size in calls
                for value in numpys.integers(0, bound, size)]
    scalars, numpy_retried = numpy_retries(seed, bounds)
    assert scalars == expected
    at = first(numpy_retried)
    assert first(retried.tolist()) == at
    assert values.tolist()[:at] == expected[:at]
    assert values.dtype == np.int64
    if at == len(bounds):
        assert ours.standard_normal() == numpys.standard_normal()


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=12))
def test_raw_head_is_the_synthesis_draws(seed, slots):
    # PopulationModel's head: six uniforms, then deployment, plan-scale
    # slot and extra owners, one bound-2 pad when they leave half a word
    # over; a one-slot draw takes no half-word, so the head is 7 words.
    bounds = (2, slots, 3) + ((2,) if slots > 1 else ())
    ours, numpys = twins(seed)
    words = ours.bit_generator.random_raw(6 + words_for(bounds))
    assert words.size == (7 if slots == 1 else 8)
    assert ((words[:6] >> np.uint64(11)) * 2.0**-53).tolist() == numpys.random(6).tolist()
    values, retried = raw_integers(words[6:], bounds)
    expected = [numpys.integers(0, 2), numpys.integers(0, slots), numpys.integers(0, 3)]
    # Twelve raw 32-bit draws stand in for random(6): six words, no half kept.
    numpy_retried = numpy_retries(seed, [2**32] * 12 + [2, slots, 3])[1][12:]
    assert retried[:3].tolist() == numpy_retried and not retried[3:].any()
    if not any(numpy_retried):
        assert values[:3].tolist() == expected
        assert ours.standard_normal() == numpys.standard_normal()
        assert ours.poisson(5.0) == numpys.poisson(5.0)


def test_raw_integers_at_the_bounds():
    words = np.array([0xFFFFFFFF_00000000, 0x00000002_FFFFFFFF], dtype=np.uint64)
    values, retried = raw_integers(words, [2**32, 1, 2**32, 2**32 - 1, 2**31 + 1])
    assert values.tolist() == [0, 0, 2**32 - 1, 2**32 - 2, 1]
    assert retried.tolist() == [False, False, False, False, True]
    values, retried = raw_integers(words[:0], [])
    assert values.size == retried.size == 0


@pytest.mark.parametrize("bounds", [[0], [2**32 + 1], [-1, 3], [3] * 5],
                         ids=["zero", "2**32+1", "negative", "too-few-words"])
def test_raw_integers_reject_what_numpy_would_not_draw(bounds):
    with pytest.raises(SimulationError):
        raw_integers(np.zeros(2, dtype=np.uint64), bounds)
