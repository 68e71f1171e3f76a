"""Bit-packed 0/1 vectors: one ``uint64`` bit-plane per vector.

The classic logic-synthesis representation (ABC-style): ``k`` 0/1
vectors of length ``L`` become ``k`` planes of ``ceil(L / 64)`` machine
words, so masked sums turn into word-wide bitwise ops plus popcounts.
:class:`WeightPlanes` uses it for the exact weighted sums behind the
OptForPart exactness gate.

Layout is fully deterministic and platform-independent: plane ``j``
word ``w`` bit ``i`` (little-endian within the word) holds entry
``64 * w + i`` of vector ``j``; pad bits beyond the vector length are
always zero, so two packed planes are equal iff they are byte-equal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "WORD_BITS",
    "pack_bits",
    "popcount",
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


def popcount(words: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Total set bits in ``words`` (optionally along one axis)."""
    counts = _bitwise_count(np.asarray(words, dtype=np.uint64))
    if axis is None:
        return int(counts.sum(dtype=np.int64))
    return counts.sum(axis=axis, dtype=np.int64)


class WeightPlanes:
    """Bit-plane decomposition of a non-negative integer weight vector.

    ``WeightPlanes(w)`` stores plane ``b`` as the packed 0/1 vector of
    bit ``b`` of every weight, so a *weighted popcount* over any packed
    mask — ``sum(w[i] for set bits i of mask)`` — becomes one popcount
    per plane folded with Python-int (arbitrary-precision) arithmetic:

        masked_sum(mask) = sum_b 2**b * popcount(planes[b] & mask)

    This is the per-output-bit weighted-popcount primitive behind the
    OptForPart exactness gate
    (:func:`repro.core.opt_for_part._gate`): the gate needs
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
