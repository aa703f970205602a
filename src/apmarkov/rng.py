"""Reproducible random streams.

All randomness flows from a single 64-bit seed.  Substreams (one per replica,
per particle system, per step, ...) use a counter-based Philox4x64 generator
keyed by a SplitMix64 mix of the seed and the substream indexes, so that

* the same (seed, indexes) always reproduces the same stream, bit for bit,
* streams are independent of the order in which they are created, and
* the derivation is a documented closed formula, portable across languages.

Key derivation for indexes (i1, ..., ik):

    key = seed
    for i in (i1, ..., ik):  key = splitmix64(key + GOLDEN * (i + 1))

with GOLDEN = 0x9E3779B97F4A7C15 and splitmix64 the standard finalizer
(Steele/Lea/Flood mixing constants).  Normal and uniform variates are drawn
from numpy's Generator on top of the Philox stream.

A uniform read at only a few (r, k) entries is a closed function evaluated
only there (counter-based, Salmon et al. SC 2011): the k-th SplitMix64 output
from substream (seed, r)'s key, u = ((substream_key(seed, r, k) >> 12) + 1/2)
2^-52, exact in float64 and within [2^-53, 1 - 2^-53], never 0 or 1.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream_key", "make_generator", "rekey", "set_key", "counter_uniform"]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_ZEROS = np.zeros(4, dtype=np.uint64)


def _splitmix64(z):  # z < 2^64: an int, or a uint64 array left unchanged
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def substream_key(seed, *indexes):
    """64-bit Philox key for the substream of ``seed`` at ``indexes``; a
    uint64 array, elementwise, where seed or an index is a uint64 array."""
    key = seed & _MASK
    for i in indexes:
        key = _splitmix64((key + _GOLDEN * ((i & _MASK) + 1)) & _MASK)
    return key


def make_generator(seed: int, *indexes: int) -> np.random.Generator:
    """Generator for the (seed, indexes) substream."""
    return np.random.Generator(np.random.Philox(key=substream_key(seed, *indexes)))


def counter_uniform(keys: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """((substream_key(key, step) >> 12) + 1/2) 2^-52 for uint64 keys, each
    the key of a substream (seed, r), and integer steps."""
    bits = substream_key(keys, steps.astype(np.uint64)) >> 12
    return (bits.astype(float) + 0.5) * 2.0 ** -52


def rekey(gen: np.random.Generator, seed: int, *indexes: int) -> None:
    """Reset a Philox-backed ``gen`` to the start of substream (seed, indexes)."""
    set_key(gen, substream_key(seed, *indexes))


def set_key(gen: np.random.Generator, key) -> None:
    """Reset a Philox-backed ``gen`` to the start of the substream whose key
    is ``key``: counter 0, key (key, 0), empty buffer.  Its draws then equal
    those of a generator made for that substream bit for bit, without
    building a new bit generator (which reads OS entropy for a seed it then
    discards)."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array([key, 0], dtype=np.uint64)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
