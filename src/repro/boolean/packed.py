"""Bit-packed truth tables: one ``uint64`` bit-plane per output bit.

The classic logic-synthesis representation (ABC-style): a truth table
over ``n`` inputs with ``k`` output bits becomes ``k`` planes of
``ceil(2**n / 64)`` machine words, so cofactor extraction and
error-distance accumulation turn into word-wide bitwise ops plus
popcounts, and the storage cost drops from 8 bytes per entry
(``int64``) to ``k`` *bits* per entry — a ``64 / k`` shrink (8x for
byte-wide outputs, 5.3x for the default 12-bit Table-II functions).

Layout is fully deterministic and platform-independent: plane ``j``
word ``w`` bit ``i`` (little-endian within the word) holds output bit
``j`` of entry ``64 * w + i``; pad bits beyond the table length are
always zero, so two packed tables are equal iff their planes are
byte-equal — which is what lets the shared-memory ``TableArena`` and
the ``opt.memo`` digest keys address packed pages by content.

The module mirrors :mod:`repro.boolean.truth_table` in spirit: pure
functions plus a small immutable container with a ``_trusted``
constructor for internal callers that have already validated their
inputs.
"""

from __future__ import annotations

import hashlib
import struct
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
    "PackedTable",
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


class PackedTable:
    """An immutable multi-output truth table in bit-plane form.

    ``planes`` has shape ``(n_outputs, n_words(length))``; plane ``j``
    is output bit ``j`` of every entry, packed little-endian.  Pad bits
    are guaranteed zero, so :meth:`digest` content-addresses the table.
    """

    __slots__ = ("length", "n_outputs", "planes")

    def __init__(self, table: np.ndarray, n_outputs: int) -> None:
        table = np.asarray(table)
        if table.ndim != 1:
            raise ValueError("PackedTable expects a flat entry array")
        if n_outputs < 1:
            raise ValueError("n_outputs must be >= 1")
        if table.size and (table.min() < 0 or int(table.max()) >> n_outputs):
            raise ValueError(
                f"table entries do not fit in {n_outputs} output bits"
            )
        shifts = np.arange(n_outputs, dtype=table.dtype if table.size else np.int64)
        bits = ((table[None, :] >> shifts[:, None]) & 1).astype(np.uint8)
        planes = pack_bits(bits)
        planes.setflags(write=False)
        object.__setattr__(self, "length", int(table.shape[0]))
        object.__setattr__(self, "n_outputs", int(n_outputs))
        object.__setattr__(self, "planes", planes)

    def __setattr__(self, name, value):  # immutability, mirroring _trusted use
        raise AttributeError("PackedTable is immutable")

    @classmethod
    def from_table(cls, table: np.ndarray, n_outputs: int) -> "PackedTable":
        """Pack a flat ``int`` entry array (validating the bit width)."""
        return cls(table, n_outputs)

    @classmethod
    def _trusted(
        cls, length: int, n_outputs: int, planes: np.ndarray
    ) -> "PackedTable":
        """Adopt already-packed planes without re-validating.

        Mirrors the ``_trusted`` constructors in
        :mod:`repro.boolean.decomposition`: internal callers (the
        shared-memory arena) that produced the planes themselves skip
        the pack/validate pass.  ``planes``
        must be ``(n_outputs, n_words(length))`` ``uint64`` with zero
        pad bits.
        """
        instance = object.__new__(cls)
        planes = np.ascontiguousarray(planes, dtype=_WORD_DTYPE)
        planes.setflags(write=False)
        object.__setattr__(instance, "length", int(length))
        object.__setattr__(instance, "n_outputs", int(n_outputs))
        object.__setattr__(instance, "planes", planes)
        return instance

    @property
    def nbytes(self) -> int:
        return self.planes.nbytes

    def to_table(self, dtype=np.int64) -> np.ndarray:
        """Unpack back to the flat entry array (round-trip inverse)."""
        bits = unpack_bits(self.planes, self.length).astype(dtype)
        shifts = np.arange(self.n_outputs, dtype=dtype)[:, None]
        return (bits << shifts).sum(axis=0, dtype=dtype)

    def component(self, k: int) -> np.ndarray:
        """Output bit ``k`` as an unpacked 0/1 ``uint8`` vector."""
        return unpack_bits(self.planes[k], self.length)

    def packed_component(self, k: int) -> np.ndarray:
        """Output bit ``k`` as its packed word plane."""
        return self.planes[k]

    def component_error_counts(self, other: "PackedTable") -> np.ndarray:
        """Per-output-bit Hamming distances (word-XOR + popcount)."""
        if (self.length, self.n_outputs) != (other.length, other.n_outputs):
            raise ValueError("shape mismatch")
        return popcount(np.bitwise_xor(self.planes, other.planes), axis=-1)

    def med(self, other: "PackedTable", p: Optional[np.ndarray] = None) -> float:
        """Exact mean error distance for single-output tables.

        A single output bit's error distance is ``|a - b| = a XOR b``
        per entry, so under a uniform (or any constant) input
        distribution the MED is one popcount.  Multi-output tables
        have carry interactions that a per-plane popcount cannot see,
        so this deliberately refuses them — use
        :meth:`component_error_counts` per plane instead.
        """
        if self.n_outputs != 1 or other.n_outputs != 1:
            raise ValueError("med is exact only for single-output tables")
        count = hamming(self.planes[0], other.planes[0])
        if p is None:
            return count / self.length
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (self.length,) or (p.size and not np.all(p == p.flat[0])):
            raise ValueError("packed med needs a constant weight vector")
        return float(p.flat[0]) * count

    def digest(self) -> str:
        """Content address: sha1 over layout header + plane bytes."""
        h = hashlib.sha1()
        h.update(b"repro-packed-v1")
        h.update(struct.pack("<qq", self.length, self.n_outputs))
        h.update(np.ascontiguousarray(self.planes).tobytes())
        return h.hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedTable):
            return NotImplemented
        return (
            self.length == other.length
            and self.n_outputs == other.n_outputs
            and np.array_equal(self.planes, other.planes)
        )

    def __hash__(self) -> int:
        return hash((self.length, self.n_outputs, self.planes.tobytes()))

    def __repr__(self) -> str:
        return (
            f"PackedTable(length={self.length}, n_outputs={self.n_outputs}, "
            f"words={self.planes.shape[-1]})"
        )
