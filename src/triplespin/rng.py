"""Reproducible random streams keyed by (seed, *indices).

Every stochastic routine in the package draws from a stream created here, so
a run is fully determined by its seed plus the integer indices of the work
item (sweep point, axis, restart, ...). Streams for distinct keys are
statistically independent, which makes parallel evaluation order-independent.

A stream is a Philox generator, whose whole state is a 128-bit key and a
counter. map_streams runs a caller's draw on the streams of many keys at
once: philox_keys derives all their Philox keys in one vectorized pass of
SeedSequence's hash, and one generator is reseated per key, so each draw sees
exactly the stream that stream(seed, *key) returns.
"""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 1 << 64

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError unless an integer or its string in [0, 2**64).

    Distinct seeds outside it, or floats truncated to ints, would share streams.
    """
    if not isinstance(seed, (str, int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a counter-based generator for the given seed and stream key."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _hash(x: np.ndarray, h: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words x in each of the _POOL pool lanes, and the constant after them.

    Lane i (row i of the (_POOL, m) result) hashes x, an (m,) word or the
    (_POOL, m) lanes themselves, under the i-th of the hash constants h,
    h * mult, ... that SeedSequence steps through one lane after another.
    """
    steps = [h]
    for _ in range(_POOL):
        steps.append(steps[-1] * mult & _MASK32)
    constants = np.array(steps, dtype=np.uint32)[:, None]
    x = (x ^ constants[:-1]) * constants[1:]
    return x ^ x >> 16, steps[-1]


def philox_keys(seed: int, keys) -> np.ndarray:
    """The (m, 2) uint64 Philox keys that stream(seed, *row) uses, for each row of (m, j) keys.

    Runs SeedSequence's entropy mixing and generate_state(2, np.uint64) over
    all rows at once in uint32 arithmetic, the four pool words of every row
    as one (4, m) array. A seed below 2**64 is at most two
    32-bit words, padded to the four-word pool when a key is given, so the
    pool before the key words is SeedSequence(seed).pool for every row; each
    key entry then mixes in as one word, so it must lie in [0, 2**32).
    """
    keys = np.asarray(keys)
    shaped = keys.ndim == 2 and keys.dtype.kind in "iu"
    if not shaped or (keys.size and (keys.min() < 0 or keys.max() > _MASK32)):
        raise ValueError(
            f"stream keys must be an (m, j) array of integers in [0, 2**32), got {keys.dtype} {keys.shape}"
        )
    pool = np.array(np.random.SeedSequence(check_seed(seed)).pool, dtype=np.uint32)[:, None].repeat(len(keys), axis=1)
    # the pool's own hashing took 4 + 4 * 3 steps of the constant
    h = _INIT_A * pow(_MULT_A, _POOL * _POOL, 1 << 32) & _MASK32
    for word in keys.T.astype(np.uint32):
        x, h = _hash(word, h, _MULT_A)
        y = pool * np.uint32(_MIX_L) - x * np.uint32(_MIX_R)
        pool = y ^ y >> 16
    words = _hash(pool, _INIT_B, _MULT_B)[0].astype(np.uint64)
    return np.stack([words[0] | words[1] << np.uint64(32), words[2] | words[3] << np.uint64(32)], axis=1)


def map_streams(seed: int, keys, draw) -> list:
    """[draw(stream(seed, *keys[i]), i) for each row i of the (m, j) keys], keys derived at once.

    One generator is reseated for every key (philox_keys; counter 0, empty
    buffer), so draw must not keep it past its own call.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    out = []
    for i, key in enumerate(philox_keys(seed, keys)):
        state["state"]["key"] = key
        bitgen.state = state
        out.append(draw(gen, i))
    return out
