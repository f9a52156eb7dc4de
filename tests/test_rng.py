"""rng.philox_keys and rng.map_streams against numpy's SeedSequence and rng.stream; rng.check_seed."""

import math

import numpy as np
import pytest

from triplespin import rng

SEEDS = [0, 1, 7, 2**31 - 1, 2**32 + 5, 123456789012, 2**64 - 1]
TOP = 2**32 - 1
KEYS = {
    "one-part": [[0], [1], [2], [181], [TOP]],
    "two-part": [[0, 0], [0, 1], [1, 0], [180, 2], [TOP, 0], [0, TOP], [TOP, TOP]],
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", KEYS.values(), ids=KEYS.keys())
def test_batched_keys_equal_seed_sequence(seed, keys):
    want = [np.random.SeedSequence(seed, spawn_key=tuple(k)).generate_state(2, np.uint64) for k in keys]
    got = rng.philox_keys(seed, keys)
    assert got.dtype == np.uint64 and got.shape == (len(keys), 2)
    assert np.array_equal(got, np.array(want))


def test_no_key_parts_give_the_seed_alone():
    want = np.random.SeedSequence(2**64 - 1).generate_state(2, np.uint64)
    assert np.array_equal(rng.philox_keys(2**64 - 1, np.zeros((3, 0), dtype=int)), np.tile(want, (3, 1)))
    assert rng.philox_keys(5, np.zeros((0, 2), dtype=int)).shape == (0, 2)


def _draws(gen, p, shots, block):
    """A binomial draw, then `shots` uniforms in blocks of `block` on the same stream."""
    counts = [int(gen.binomial(4_000_000, p))]
    for start in range(0, shots, block):
        counts.append(int(np.count_nonzero(gen.random(min(block, shots - start)) < p)))
    return counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", KEYS.values(), ids=KEYS.keys())
def test_mapped_draws_equal_those_of_stream(seed, keys):
    probs = np.linspace(0.0, 1.0, len(keys)).tolist()
    got = rng.map_streams(seed, keys, lambda gen, i: _draws(gen, probs[i], 1001, 300))
    want = [_draws(rng.stream(seed, *k), p, 1001, 300) for k, p in zip(keys, probs)]
    assert got == want


def test_each_draw_starts_its_stream_afresh():
    # a draw that leaves a half-used 32-bit word and buffer behind must not leak into the next key
    keys = [[3, 1], [3, 1]]

    def draw(gen, i):
        return gen.integers(0, 2**32, 3, dtype=np.uint32).tolist(), gen.random()

    got = rng.map_streams(9, keys, draw)
    assert got[0] == got[1] == draw(rng.stream(9, 3, 1), 0)


@pytest.mark.parametrize(
    "keys",
    [[[-1, 0]], [[0, 2**32]], [[2**64]], [[0.5, 1.0]], [0, 1], [[[0]]]],
    ids=["negative", "past-32-bits", "past-64-bits", "float", "one-dim", "three-dim"],
)
def test_keys_outside_one_word_raise(keys):
    with pytest.raises(ValueError):
        rng.philox_keys(0, keys)
    with pytest.raises(ValueError):
        rng.map_streams(0, keys, lambda gen, i: None)


def test_seed_outside_64_bits_raises():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            rng.philox_keys(seed, [[0, 0]])


@pytest.mark.parametrize(
    "seed", [2.7, math.inf, math.nan, 3.0, "2.7"], ids=["float", "inf", "nan", "integral-float", "float-string"]
)
def test_check_seed_refuses_what_is_no_integer(seed):
    # truncating 2.7 to 2 would give two distinct seeds one stream
    with pytest.raises(ValueError):
        rng.check_seed(seed)


@pytest.mark.parametrize("seed, want", [("12", 12), (2**64 - 1, 2**64 - 1), (np.uint64(2**64 - 1), 2**64 - 1)])
def test_check_seed_takes_integers_and_integer_strings(seed, want):
    got = rng.check_seed(seed)
    assert got == want and type(got) is int
