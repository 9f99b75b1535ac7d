"""Counter-based uniform random streams built on the SplitMix64 finalizer.

Every draw is a pure function of (seed, counter), so any slice of a stream
can be generated independently, in any order and in any chunking, with
bitwise identical results on every platform.  Noisy circuit propagation and
event sampling both lean on this: their outputs must not depend on the
evaluation schedule.
"""

from __future__ import annotations

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
# counter_normals reads counters 2i and 2i + 1 for index i
_NORMAL_STEP = np.uint64((2 * int(GOLDEN)) & _MASK)


def mix64(z: np.ndarray) -> np.ndarray:
    """Stafford variant-13 finalizer: full-avalanche 64-bit mixing."""
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def substream(seed: int, label: int) -> int:
    """Derive an independent child seed for the labeled stream."""
    key = np.array([seed & _MASK], dtype=np.uint64)
    lab = np.array([label & _MASK], dtype=np.uint64)
    return int(mix64(key + (lab + np.uint64(1)) * GOLDEN)[0])


def counter_uniform(seed: int | np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1], one per counter value, stable across platforms.

    ``seed`` may be a uint64 array that broadcasts against ``counter``: each
    (seed, counter) pair then gets the draw it would get on its own.
    """
    base = seed if isinstance(seed, np.ndarray) else np.uint64(seed & _MASK)
    raw = mix64(base + (counter.astype(np.uint64) + np.uint64(1)) * GOLDEN)
    # 53-bit mantissa; shift into (0, 1] so log() stays finite downstream
    return ((raw >> np.uint64(11)) + np.uint64(1)) * (2.0**-53)


def counter_normals(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Standard normal draw per index via Box-Muller on counter pairs.

    An array of uint64 seeds broadcasts against ``indices`` like
    counter_uniform's, e.g. seeds[:, None] for one row per seed.
    """
    pair = indices.astype(np.uint64) * np.uint64(2)
    if np.ndim(seed) > pair.ndim:  # so the stacked axis stays in front of the seed's
        pair = pair.reshape((1,) * (np.ndim(seed) - pair.ndim) + pair.shape)
    # both halves of each Box-Muller pair in one pass over the counters
    u1, u2 = counter_uniform(seed, np.stack([pair, pair + np.uint64(1)]))
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def offset_seeds(seeds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Seeds whose normal at index i is the given seed's at index i + offset.

    counter_uniform hashes seed + (counter + 1) * GOLDEN in wrapping uint64
    arithmetic, so moving every index by k moves the hashed sum by
    2 k GOLDEN, which the seed can carry:
    counter_normals(offset_seeds(s, k), i) == counter_normals(s, i + k).
    """
    return seeds + np.asarray(offsets, dtype=np.uint64) * _NORMAL_STEP
