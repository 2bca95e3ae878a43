"""Each scalar-draw helper in :mod:`repro.sim.random` is the numpy call
it spells: the same value, and the same generator state afterwards.
Each batch-seeded generator is the ``default_rng`` of its seed.

Every guard, fleet and report digest rests on these identities.  Should
a NumPy upgrade break one, the test named after it fails here instead
of the digests failing without a reason.  Draws are interleaved with
scalar ``integers`` calls: PCG64 buffers the spare 32-bit half of a
64-bit output, and a spelling that skipped or consumed that half would
diverge only after such a call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.random import generator, generators, pick, uniform

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
