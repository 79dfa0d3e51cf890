"""The numpy-level Philox stream against numpy's own generator, draw for draw."""
import numpy as np
import pytest

from rotorwalk import (
    InvalidParameter,
    build_lattice_ball,
    build_path,
    random_config,
    shuffled_mechanism,
)
from rotorwalk import rng
from rotorwalk.rng import _blocks, _integers, _permutations, _words, philox_generator

from oracles import reference_shuffled_mechanism

EDGE_SEEDS = (0, 1, (1 << 64) - 1, 1 << 64, (1 << 128) - 1)
EDGE_STREAMS = (0, 1, 1 << 64, (1 << 128) - 1)


def _key(seed):
    return _words(seed)[0][None]


@pytest.mark.parametrize("stream", EDGE_STREAMS)
@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_blocks_equal_random_raw(seed, stream):
    key, counter = _words(seed, stream)
    want = np.random.Philox(counter=counter, key=key).random_raw(4 * 9 + 3)
    got = _blocks(key[None], counter, 0, 10)[0]
    assert np.array_equal(got[: want.size], want)  # 39 draws: not a whole number of blocks
    assert np.array_equal(_blocks(key[None], counter, 3, 2)[0], got[12:20])


def test_blocks_of_several_keys_are_each_keys_own():
    keys = np.array([_words(s)[0] for s in EDGE_SEEDS])
    got = _blocks(keys, _words(0)[1], 1, 3)
    for row, seed in zip(got, EDGE_SEEDS):
        assert np.array_equal(row, _blocks(_key(seed), _words(0)[1], 1, 3)[0])


@pytest.mark.parametrize("high", [
    [1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 1, 4],
    [1, 1, 1],
    [2] * 7,
    # Lemire rejects about half the draws at 2^31 + 1, and some at 2^32 - 1
    [(1 << 31) + 1, 3, (1 << 32) - 1, 1, 1 << 32, (1 << 31) + 1] * 6,
])
def test_integers_equal_generator_integers(high):
    high = np.array(high, dtype=np.int64)
    keys = np.array([_words(s)[0] for s in range(40)])
    got = _integers(keys, high)
    for seed in range(40):
        assert np.array_equal(got[seed], philox_generator(seed).integers(0, high)), seed
        assert np.array_equal(_integers(_key(seed), high)[0], got[seed])


def _reference_permutations(seed, deg):
    gen = philox_generator(seed)
    return np.concatenate([gen.permutation(int(d)) for d in deg] + [np.zeros(0, np.int64)])


def test_permutations_of_random_degree_sequences():
    draw = np.random.default_rng(20)
    for _ in range(40):
        deg = draw.integers(1, 71, size=int(draw.integers(0, 50)))
        seed = int(draw.integers(0, 1 << 62))
        assert np.array_equal(_permutations(_words(seed)[0], deg), _reference_permutations(seed, deg))


def test_permutations_continue_a_pending_half_draw():
    """Seed 0's three permutation(4) use an odd count of uint32 draws: the run of
    degree-5 rows starts on the high half of a uint64."""
    gen = philox_generator(0)
    for _ in range(3):
        gen.permutation(4)
    assert gen.bit_generator.state["has_uint32"] == 1
    deg = np.array([4, 4, 4, 5, 5, 2])
    assert np.array_equal(_permutations(_words(0)[0], deg), _reference_permutations(0, deg))


def test_permutations_draw_past_the_first_estimate(monkeypatch):
    """Seed 184100's permutation(3) rejects eight draws in a row, more than the
    first stream covers, so the draws are extended once (found by search)."""
    calls = []
    uint32 = rng._uint32
    monkeypatch.setattr(rng, "_uint32", lambda *args: calls.append(args) or uint32(*args))
    got = _permutations(_words(184100)[0], np.array([3]))
    assert len(calls) == 2
    assert np.array_equal(got, _reference_permutations(184100, [3]))


def test_permutations_of_degrees_with_and_without_tables():
    """Degree 6 has at least six rows and a table; the single rows of 40 and 9
    are scanned draw by draw, between table rows and after them."""
    deg = np.array([6] * 10 + [40, 6, 6, 9, 1, 6])
    for seed in range(5):
        assert np.array_equal(_permutations(_words(seed)[0], deg), _reference_permutations(seed, deg))


@pytest.mark.parametrize("seed", [-1, 1 << 128])
def test_seeds_outside_128_bits_are_rejected(seed):
    g = build_path(4)
    with pytest.raises(InvalidParameter, match=r"^seed must be in \[0, 2\^128\), got "):
        shuffled_mechanism(g, seed)
    with pytest.raises(InvalidParameter, match=r"^seed must be in \[0, 2\^128\), got "):
        random_config(g, seed)


def test_largest_seed_is_accepted():
    g, seed = build_lattice_ball(2, 3), (1 << 128) - 1
    live = ~g.is_sink
    want = philox_generator(seed).integers(0, g.degrees[live])
    assert np.array_equal(random_config(g, seed).pos[live], want)
    assert np.array_equal(shuffled_mechanism(g, seed).flat, reference_shuffled_mechanism(g, seed).flat)
