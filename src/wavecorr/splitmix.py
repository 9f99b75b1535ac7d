"""Counter-based uniform random streams built on the SplitMix64 finalizer.

Every draw is a pure function of (seed, counter), so any slice of a stream
can be generated independently, in any order and in any chunking, with
bitwise identical results on every platform.  Noisy circuit propagation and
event sampling both lean on this: their outputs must not depend on the
evaluation schedule.

One private step holds the mixing sequence, the finalizer written mix64
below, and runs it in place on uint64 buffers.  counter_uniform hashes
whatever counter array it is given.  counter_words fills a uint64 buffer
with the hashed words of one contiguous counter run without building the
run: it adds a precomputed table of i * GOLDEN to one wrapping scalar and
mixes in place, so a long stream is hashed without a fresh temporary per
operation.

keyed_substream names a stream by the SHA-256 digest of its key.  SHA-256
comes from CPython's builtin module (_sha2 from 3.12, _sha256 before), so
a circuit run never imports hashlib and the OpenSSL library behind it
(~3.5 MB resident).  OpenSSL loads only in a run that draws from the
loaded die, whose numpy.random imports hashlib, and on a build without the
builtin hashes, where this module falls back to hashlib.sha256.  The
digest is the same on every path.
"""

from __future__ import annotations

from functools import cache

import numpy as np

try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256  # a build without the builtin hashes

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_SHIFT1, _SHIFT2, _SHIFT3 = np.uint64(30), np.uint64(27), np.uint64(31)
_GOLDEN_INT, _MIX1_INT, _MIX2_INT = int(GOLDEN), int(_MIX1), int(_MIX2)
_MANTISSA_SHIFT = np.uint64(11)
# counter_words hashes a counter run in chunks of this length
_RUN = 1 << 16
# counter_normals reads counters 2i and 2i + 1 for index i
_NORMAL_STEP = np.uint64((2 * int(GOLDEN)) & _MASK)


@cache
def _steps() -> np.ndarray:
    """i * GOLDEN for i < _RUN, a 512 KiB table built on first use.

    Built lazily and in place, so a process that never draws a counter run
    neither holds the table nor frees a temporary of its size.
    """
    steps = np.arange(_RUN, dtype=np.uint64)
    steps *= GOLDEN
    steps.flags.writeable = False
    return steps


def _mix64_into(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Stafford variant-13 finalizer applied to ``z`` in place.

    ``scratch`` is a uint64 buffer of z's shape whose contents are clobbered.
    """
    for shift, mult in ((_SHIFT1, _MIX1), (_SHIFT2, _MIX2)):
        np.right_shift(z, shift, out=scratch)
        z ^= scratch
        z *= mult
    np.right_shift(z, _SHIFT3, out=scratch)
    z ^= scratch
    return z


def _unit_into(raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1] from mixed words; ``raw`` is clobbered.

    ``out`` should not overlap ``raw``: the values would be the same, but
    numpy copies the whole input of a casting ufunc whose output overlaps
    it.  The mixing scratch, viewed as float64, is free by then.
    """
    # 53-bit mantissa; shift into (0, 1] so log() stays finite downstream.
    # The shifted word is at most 2^53, so its int64 view converts exactly.
    raw >>= _MANTISSA_SHIFT
    raw += np.uint64(1)
    return np.multiply(raw.view(np.int64), 2.0**-53, out=out)


def substream(seed: int, label: int) -> int:
    """Derive an independent child seed for the labeled stream.

    mix64 of seed + (label + 1) * GOLDEN modulo 2^64, on Python ints: one
    call hashes one word, which numpy would do through several 1-entry arrays.
    """
    z = (seed + (label + 1) * _GOLDEN_INT) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1_INT) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2_INT) & _MASK
    return z ^ (z >> 31)


def keyed_substream(seed: int, key: str) -> int:
    """Child seed of the stream named by ``key``, such as "chsh|ZI*IZ".

    The label is the first 8 bytes of the key's sha256 digest, big-endian, so
    the child depends on the name alone, not on the order names are met in.
    """
    digest = sha256(key.encode()).digest()
    return substream(seed, int.from_bytes(digest[:8], "big"))


def counter_uniform(seed: int | np.ndarray, counter: np.ndarray) -> np.ndarray:
    """Uniforms in (0, 1], one per counter value, stable across platforms.

    ``seed`` may be a uint64 array that broadcasts against ``counter``: each
    (seed, counter) pair then gets the draw it would get on its own.
    """
    base = seed if isinstance(seed, np.ndarray) else np.uint64(seed & _MASK)
    z = np.asarray(base + (counter.astype(np.uint64) + np.uint64(1)) * GOLDEN)
    scratch = np.empty_like(z)
    _mix64_into(z, scratch)
    return _unit_into(z, scratch.view(np.float64))


def counter_words(out: np.ndarray, seed: int, first: int, scratch: np.ndarray) -> np.ndarray:
    """Fill uint64 ``out`` with mix64(seed + (first + i + 1) * GOLDEN), i < out.size.

    These are the words counter_uniform converts to floats.  The counter run
    is never built: the last term of seed + (first + 1) * GOLDEN + i * GOLDEN
    comes from a precomputed table, in ``_RUN``-sized chunks.  ``scratch`` is
    a uint64 array of at least min(out.size, _RUN) entries, which the caller
    reuses across calls to save its allocation; its contents are clobbered.
    """
    base = (seed + (first + 1) * _GOLDEN_INT) & _MASK
    for b in range(0, out.size, _RUN):
        zb = out[b : b + _RUN]
        np.add(_steps()[: zb.size], np.uint64((base + b * _GOLDEN_INT) & _MASK), out=zb)
        _mix64_into(zb, scratch[: zb.size])
    return out


def counter_normals(seed: int | np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Standard normal draw per index via Box-Muller on counter pairs.

    An array of uint64 seeds broadcasts against ``indices`` like
    counter_uniform's, e.g. a row of seeds against a column of indices; the
    seeds may not have more axes than the indices.
    """
    pair = indices.astype(np.uint64) * np.uint64(2)
    # both halves of each Box-Muller pair in one pass over the counters, then
    # sqrt(-2 log u1) cos(2 pi u2) in place: the same operations, in order
    u1, u2 = counter_uniform(seed, np.stack([pair, pair + np.uint64(1)]))
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    u2 *= 2.0 * np.pi
    np.cos(u2, out=u2)
    u1 *= u2
    return u1


def offset_seeds(seeds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Seeds whose normal at index i is the given seed's at index i + offset.

    counter_uniform hashes seed + (counter + 1) * GOLDEN in wrapping uint64
    arithmetic, so moving every index by k moves the hashed sum by
    2 k GOLDEN, which the seed can carry:
    counter_normals(offset_seeds(s, k), i) == counter_normals(s, i + k).
    """
    return seeds + np.asarray(offsets, dtype=np.uint64) * _NORMAL_STEP
