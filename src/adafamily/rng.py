"""Counter-based pseudorandom generator (splitmix64).

Every random decision in this library (dataset sampling, shuffling,
parameter init) is driven by this generator instead of platform RNGs, so
runs are bitwise reproducible from integer keys alone.  The i-th output
depends only on ``(key, i)``:

    out_i = mix64(key + (i + 1) * GOLDEN)   (all arithmetic mod 2**64)

where ``mix64`` is the splitmix64 finalizer.  The constants are fixed:

    GOLDEN = 0x9E3779B97F4A7C15
    MIX1   = 0xBF58476D1CE4E5B9   (xor-shift 30, multiply)
    MIX2   = 0x94D049BB133111EB   (xor-shift 27, multiply; final shift 31)

This matches the sequential splitmix64 stream seeded with ``key``, but the
counter form allows vectorized generation and random access.  See
docs/determinism.md for the full contract.
"""

from __future__ import annotations

import math

import numpy as np

GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1

_U53_SCALE = 2.0 ** -53


def mix64(x: int) -> int:
    """Splitmix64 finalizer on a single 64-bit integer."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * MIX1) & _MASK
    z = ((z ^ (z >> 27)) * MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching the scalar definition
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def is_seed(x) -> bool:
    """Whether ``x`` can key a stream: an integer, not a bool, in [0, 2**64)."""
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < 2**64


def random_u64(key: int, n: int) -> np.ndarray:
    """Outputs ``0 .. n-1`` of the stream for ``key``, as uint64."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    counters = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(key & _MASK) + counters * np.uint64(GOLDEN)
    return _mix64_array(z)


def uniforms(key: int, n: int) -> np.ndarray:
    """n doubles in [0, 1), from the top 53 bits of each output."""
    bits = random_u64(key, n)
    return (bits >> np.uint64(11)).astype(np.float64) * _U53_SCALE


def normals(key: int, n: int) -> np.ndarray:
    """n standard normal doubles via the Box-Muller transform.

    Consumes the first 2*ceil(n/2) outputs of the stream for ``key``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    half = (n + 1) // 2
    bits = random_u64(key, 2 * half)
    # u1 in (0, 1] so log(u1) is finite; u2 in [0, 1)
    u1 = ((bits[:half] >> np.uint64(11)).astype(np.float64) + 1.0) * _U53_SCALE
    u2 = (bits[half:] >> np.uint64(11)).astype(np.float64) * _U53_SCALE
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:n]


def permutation(key: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n) from the stream for ``key``.

    Sorts n stream outputs; a stable sort makes the result well defined even
    under (astronomically unlikely) 64-bit ties.
    """
    return np.argsort(random_u64(key, n), kind="stable")


def derive_key(key: int, *tags: int) -> int:
    """Fold integer tags into a key, yielding an independent child key.

    Used to give each (seed, epoch) or (seed, class) combination its own
    stream: derive_key(k, a, b) != derive_key(k, b, a) in general.
    """
    z = key & _MASK
    for tag in tags:
        z = mix64((z + GOLDEN) & _MASK)
        z = mix64(z ^ (tag & _MASK))
    return z
