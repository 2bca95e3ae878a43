"""Each scalar-draw helper in :mod:`repro.sim.random` is the numpy call
it spells: the same value, and the same generator state afterwards.

Every guard, fleet and report digest rests on these identities.  Should
a NumPy upgrade break one, the test named after it fails here instead
of the digests failing without a reason.  Draws are interleaved with
scalar ``integers`` calls: PCG64 buffers the spare 32-bit half of a
64-bit output, and a spelling that skipped or consumed that half would
diverge only after such a call.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import generator, pick, uniform

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
