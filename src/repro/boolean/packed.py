"""Bit-packed truth tables: one ``uint64`` bit-plane per output bit.

The classic logic-synthesis representation (ABC-style): a truth table
over ``n`` inputs with ``k`` output bits becomes ``k`` planes of
``ceil(2**n / 64)`` machine words, so cofactor extraction and
error-distance accumulation turn into word-wide bitwise ops plus
popcounts.

Layout is fully deterministic and platform-independent: plane ``j``
word ``w`` bit ``i`` (little-endian within the word) holds output bit
``j`` of entry ``64 * w + i``; pad bits beyond the table length are
always zero, so two packed planes are equal iff they are byte-equal.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = [
    "WORD_BITS",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "popcount_words",
    "hamming",
    "cofactor",
    "restrict",
    "WeightPlanes",
]

WORD_BITS = 64

# Little-endian uint64 view dtype: makes the packed layout identical on
# big-endian hosts (numpy interprets the bytes, not the native order).
_WORD_DTYPE = np.dtype("<u8")

try:  # numpy >= 2.0
    _bitwise_count = np.bitwise_count
except AttributeError:  # pragma: no cover - exercised only on old numpy
    _POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

    def _bitwise_count(words: np.ndarray) -> np.ndarray:
        u8 = np.ascontiguousarray(words, dtype=_WORD_DTYPE).view(np.uint8)
        per_byte = _POPCOUNT8[u8].reshape(words.shape + (8,))
        return per_byte.sum(axis=-1, dtype=np.uint64)


def n_words(length: int) -> int:
    """Words needed to hold ``length`` bits (at least one)."""
    if length < 1:
        raise ValueError("packed planes need at least one entry")
    return (length + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into little-endian words.

    ``(..., length)`` → ``(..., n_words(length))`` ``uint64``; pad bits
    beyond ``length`` are zero.  Any nonzero input counts as a one.
    """
    arr = np.asarray(bits)
    if arr.ndim == 0:
        raise ValueError("pack_bits needs at least one axis")
    length = arr.shape[-1]
    words = n_words(length)
    packed = np.packbits(arr != 0, axis=-1, bitorder="little")
    pad = words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(arr.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    return np.ascontiguousarray(packed).view(_WORD_DTYPE)


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    """Inverse of :func:`pack_bits`: ``(..., W)`` words → ``(..., length)``."""
    arr = np.ascontiguousarray(words, dtype=_WORD_DTYPE)
    if arr.ndim == 0:
        raise ValueError("unpack_bits needs at least one axis")
    if arr.shape[-1] != n_words(length):
        raise ValueError(
            f"expected {n_words(length)} words for {length} bits, "
            f"got {arr.shape[-1]}"
        )
    u8 = arr.view(np.uint8)
    bits = np.unpackbits(u8, axis=-1, bitorder="little")
    return bits[..., :length]


def popcount_words(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts (vectorised popcount)."""
    return _bitwise_count(np.asarray(words, dtype=np.uint64))


def popcount(words: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Total set bits in ``words`` (optionally along one axis)."""
    counts = popcount_words(words)
    if axis is None:
        return int(counts.sum(dtype=np.int64))
    return counts.sum(axis=axis, dtype=np.int64)


def hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Number of differing bits between two packed planes."""
    return popcount(np.bitwise_xor(np.asarray(a, np.uint64), np.asarray(b, np.uint64)))


# Periodic compress masks: _PERIOD_MASKS[j] keeps, in every
# ``2**(j+1)``-bit period, the low ``2**j`` bits — i.e. the positions
# whose index bit ``j`` is zero.  _PERIOD_MASKS[6] is the low word half.
def _period_mask(j: int) -> np.uint64:
    block = (1 << (1 << j)) - 1
    period = 1 << (j + 1)
    mask = 0
    for start in range(0, WORD_BITS, period):
        mask |= block << start
    return np.uint64(mask & 0xFFFFFFFFFFFFFFFF)


_PERIOD_MASKS = [_period_mask(j) for j in range(7)]


def cofactor(words: np.ndarray, length: int, var: int, value: int) -> np.ndarray:
    """Packed cofactor: restrict a plane to ``input bit var == value``.

    ``words`` is one packed plane of a table over ``n`` inputs
    (``length == 2**n``); the result is the packed plane of the
    ``2**(n-1)``-entry cofactor.  For ``var >= 6`` this is pure word
    block selection; below that, a butterfly compress over the periodic
    masks — no unpacking in either case.
    """
    arr = np.ascontiguousarray(words, dtype=np.uint64)
    n = length.bit_length() - 1
    if length != 1 << n or n < 1:
        raise ValueError("cofactor needs a power-of-two table length >= 2")
    if not 0 <= var < n:
        raise ValueError(f"variable {var} out of range for {n} inputs")
    if value not in (0, 1):
        raise ValueError("cofactor value must be 0 or 1")
    if arr.shape != (n_words(length),):
        raise ValueError("words/length mismatch")
    if var >= 6:
        stride = 1 << (var - 6)
        return np.ascontiguousarray(arr.reshape(-1, 2, stride)[:, value, :].ravel())
    x = arr.copy()
    if value:
        x >>= np.uint64(1 << var)
    x &= _PERIOD_MASKS[var]
    for j in range(var, 6):
        x = (x | (x >> np.uint64(1 << j))) & _PERIOD_MASKS[j + 1]
    if x.shape[0] == 1:  # result fits a single word's low half
        return x
    return np.ascontiguousarray(x[0::2] | (x[1::2] << np.uint64(32)))


def restrict(words: np.ndarray, length: int, assignment: Dict[int, int]) -> np.ndarray:
    """Iterated :func:`cofactor` over ``{var: value}`` assignments.

    Variables are eliminated highest-first so the remaining indices
    never shift under the caller's feet.
    """
    out = np.ascontiguousarray(words, dtype=np.uint64)
    for var in sorted(assignment, reverse=True):
        out = cofactor(out, length, var, assignment[var])
        length //= 2
    return out


class WeightPlanes:
    """Bit-plane decomposition of a non-negative integer weight vector.

    ``WeightPlanes(w)`` stores plane ``b`` as the packed 0/1 vector of
    bit ``b`` of every weight, so a *weighted popcount* over any packed
    mask — ``sum(w[i] for set bits i of mask)`` — becomes one popcount
    per plane folded with Python-int (arbitrary-precision) arithmetic:

        masked_sum(mask) = sum_b 2**b * popcount(planes[b] & mask)

    This is the per-output-bit weighted-popcount primitive behind the
    OptForPart exactness gate
    (:func:`repro.core.opt_for_part._exact_tier`): the gate needs
    the *exact* integer total ``sum_i cost_i * w_i`` for weight vectors
    scaled out of a general (non-constant) input distribution, and the
    plane fold accumulates it without ever rounding — every partial is
    an exact int, however large.
    """

    __slots__ = ("length", "planes")

    def __init__(self, weights: np.ndarray) -> None:
        w = np.asarray(weights)
        if w.ndim != 1:
            raise ValueError("WeightPlanes expects a flat weight vector")
        if w.size == 0:
            raise ValueError("WeightPlanes needs at least one weight")
        if not np.issubdtype(w.dtype, np.integer):
            raise ValueError("WeightPlanes needs integer weights")
        if int(w.min()) < 0:
            raise ValueError("WeightPlanes needs non-negative weights")
        bits = int(w.max()).bit_length()
        if bits:
            shifts = np.arange(bits, dtype=w.dtype)
            plane_bits = ((w[None, :] >> shifts[:, None]) & 1).astype(np.uint8)
            planes = pack_bits(plane_bits)
        else:  # all-zero weights: a single zero plane keeps shapes sane
            planes = np.zeros((1, n_words(w.size)), dtype=_WORD_DTYPE)
        planes.setflags(write=False)
        self.length = int(w.size)
        self.planes = planes

    def masked_sum(self, mask_words: np.ndarray) -> int:
        """Exact ``sum(w[i] for set bits i of mask)`` as a Python int."""
        mask = np.asarray(mask_words, dtype=np.uint64)
        if mask.shape != (self.planes.shape[-1],):
            raise ValueError("mask/plane word-count mismatch")
        counts = popcount(np.bitwise_and(self.planes, mask[None, :]), axis=-1)
        total = 0
        for bit, count in enumerate(counts):
            total += int(count) << bit
        return total

    def total(self) -> int:
        """Exact sum of all weights (``masked_sum`` of the full mask)."""
        full = np.full(self.planes.shape[-1], ~np.uint64(0), dtype=np.uint64)
        return self.masked_sum(full)
