"""Deterministic seeded hashing primitives shared by the whole engine.

Two functions carry every bit of randomness in the system:

``murmur3_32``      32-bit MurmurHash3 (the x86_32 variant) over arbitrary
                    bytes.  Bit-compatible with the classic C implementation
                    (and with scikit-learn's ``murmurhash3_32``), verified by
                    frozen test vectors.  Label ids and token ids are hashed
                    as little-endian 8-byte integers.
``derive_seed``     splittable 64-bit seed derivation built on the splitmix64
                    finalizer.  Derives per-chunk (and per-epoch) seeds from a
                    single base seed without the correlation pitfalls of
                    ``base + k`` arithmetic.

Both are pure and endian-pinned, so any two processes (or machines) given the
same base seed reproduce identical bucket assignments, feature maps, and
shuffle orders.
"""
from __future__ import annotations

import numbers

import numpy as np

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# murmur3 x86_32 round constants
_C1 = 0xCC9E2D51
_C2 = 0x1B873593

# the same constants as uint32 scalars for the vectorized rounds, built once
_U32 = {n: np.uint32(n) for n in (5, 8, 13, 15, 16, 17, 19)}
_U32_C1 = np.uint32(_C1)
_U32_C2 = np.uint32(_C2)
_U32_N = np.uint32(0xE6546B64)
_U32_F1 = np.uint32(0x85EBCA6B)
_U32_F2 = np.uint32(0xC2B2AE35)
# a key's 8 little-endian bytes, and the same bytes as two 32-bit words
_LE_U64 = np.dtype("<u8")
_LE_U32 = np.dtype("<u4")

# splitmix64 constants
_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """32-bit MurmurHash3 of *data* with a 32-bit *seed*, as unsigned int."""
    h = seed & _MASK32
    length = len(data)
    nblocks = length // 4

    for i in range(0, nblocks * 4, 4):
        k = int.from_bytes(data[i : i + 4], "little")
        k = (k * _C1) & _MASK32
        k = ((k << 15) | (k >> 17)) & _MASK32  # ROTL32(k, 15)
        k = (k * _C2) & _MASK32
        h ^= k
        h = ((h << 13) | (h >> 19)) & _MASK32  # ROTL32(h, 13)
        h = (h * 5 + 0xE6546B64) & _MASK32

    k = 0
    tail = data[nblocks * 4 :]
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * _C1) & _MASK32
        k = ((k << 15) | (k >> 17)) & _MASK32
        k = (k * _C2) & _MASK32
        h ^= k

    h ^= length
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _MASK32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _MASK32
    h ^= h >> 16
    return h


def murmur3_32_u64(keys: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized ``murmur3_32`` over an array of uint64 keys.

    Each key is hashed as its little-endian 8-byte encoding, exactly matching
    ``murmur3_32(key.to_bytes(8, "little"), seed)``.  Returns uint32, in the
    shape of *keys*; a 0-d key gives a ``np.uint32``.  Only the low 32 bits of
    *seed* are used.

    The keys are read as little-endian 32-bit words, low word first, whatever
    their byte order or strides.  The key mix does not depend on the state, so
    every word takes it at once, into a fresh array; *keys* is never written.
    The state starts at the seed, so xoring the seed into the mixed low words
    makes the first round's state; the rounds then run in place.
    """
    keys = np.asarray(keys, dtype=_LE_U64)
    k = np.multiply(keys.ravel().view(_LE_U32), _U32_C1)
    t = np.left_shift(k, _U32[15])  # ROTL32(k, 15)
    np.right_shift(k, _U32[17], out=k)
    np.bitwise_or(k, t, out=k)
    np.multiply(k, _U32_C2, out=k)

    h = np.bitwise_xor(k[0::2], np.uint32(seed & _MASK32))
    t = t[: h.size]
    _state_round(h, t)
    np.bitwise_xor(h, k[1::2], out=h)
    _state_round(h, t)

    # empty tail; finalize with length 8
    np.bitwise_xor(h, _U32[8], out=h)
    for shift, mult in ((16, _U32_F1), (13, _U32_F2)):
        np.right_shift(h, _U32[shift], out=t)
        np.bitwise_xor(h, t, out=h)
        np.multiply(h, mult, out=h)
    np.right_shift(h, _U32[16], out=t)
    np.bitwise_xor(h, t, out=h)
    return h.reshape(keys.shape) if keys.ndim else h[0]


def _state_round(h: np.ndarray, t: np.ndarray) -> None:
    """``h = ROTL32(h, 13) * 5 + 0xE6546B64`` in place; ``t`` is scratch of ``h``'s size."""
    np.left_shift(h, _U32[13], out=t)
    np.right_shift(h, _U32[19], out=h)
    np.bitwise_or(h, t, out=h)
    np.multiply(h, _U32[5], out=h)
    np.add(h, _U32_N, out=h)


def _splitmix64(z: int) -> int:
    """splitmix64 finalizer: a bijective 64-bit mix."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *parts: int) -> int:
    """Derive a 64-bit seed from *base_seed* and integer *parts*.

    Advances a splitmix64 stream once per part and absorbs the part by XOR
    before mixing, so ``derive_seed(s, 0)`` and ``derive_seed(s, 1)`` share no
    structure.  Deterministic; test vectors are frozen in the test suite.
    """
    h = base_seed & _MASK64
    for p in parts:
        h = (h + _GOLDEN64) & _MASK64
        h = _splitmix64(h ^ (p & _MASK64))
    return h


# derive_seed reads only a seed's low 64 bits, so any seed outside would alias one inside
SEED_RANGE = (0, _MASK64)


def check_ints(config: object, **ranges: tuple[int, int | None]) -> None:
    """Raise ``ValueError`` unless each named field of ``config`` is an int in ``[low, high]``.

    Bools and non-integral numbers such as ``2000.0`` are not ints here; a
    ``high`` of None leaves the field unbounded above.
    """
    for name, (low, high) in ranges.items():
        value = getattr(config, name)
        if (
            isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < low
            or (high is not None and value > high)
        ):
            bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
