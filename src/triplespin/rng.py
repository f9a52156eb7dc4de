"""Reproducible random streams keyed by (seed, *indices).

Every stochastic routine in the package draws from a stream created here, so
a run is fully determined by its seed plus the integer indices of the work
item (sweep point, axis, restart, ...). Streams for distinct keys are
statistically independent, which makes parallel evaluation order-independent.
"""

from __future__ import annotations

import numpy as np

SEED_LIMIT = 1 << 64


def check_seed(seed: int) -> int:
    """The seed as an int; ValueError outside [0, 2**64), where distinct seeds would share streams."""
    seed = int(seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return a counter-based generator for the given seed and stream key."""
    ss = np.random.SeedSequence(entropy=check_seed(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
