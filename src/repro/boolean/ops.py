"""Low-level bit-manipulation utilities shared across the package.

All functions in this module operate on numpy integer arrays that encode
Boolean input/output words.  Bit ``i`` (0-indexed, weight ``2**i``) of a
word corresponds to the paper's variable :math:`x_{i+1}` / output bit
:math:`y_{i+1}`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "all_inputs",
    "bit_of",
    "bits_to_words",
    "cofactor",
    "cofactor_index",
    "extract_bits",
    "deposit_bits",
    "parity",
    "popcount",
    "set_bit",
    "words_to_bits",
]


def all_inputs(n_inputs: int) -> np.ndarray:
    """Return the array ``[0, 1, ..., 2**n_inputs - 1]`` of input words.

    The dtype is ``int64`` so that downstream arithmetic (error
    distances, weighted sums) does not overflow for any supported input
    width.
    """
    if n_inputs < 0:
        raise ValueError(f"n_inputs must be non-negative, got {n_inputs}")
    if n_inputs > 26:
        raise ValueError(
            f"n_inputs={n_inputs} would allocate 2**{n_inputs} entries; "
            "widths above 26 are not supported by the dense representation"
        )
    return np.arange(1 << n_inputs, dtype=np.int64)


def bit_of(words: np.ndarray, position: int) -> np.ndarray:
    """Extract bit ``position`` of every word as a ``uint8`` 0/1 array."""
    return ((np.asarray(words) >> position) & 1).astype(np.uint8)


def set_bit(words: np.ndarray, position: int, values: np.ndarray) -> np.ndarray:
    """Return a copy of ``words`` with bit ``position`` replaced by ``values``.

    ``values`` must broadcast against ``words`` and contain only 0/1.
    """
    words = np.asarray(words, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    mask = ~np.int64(1 << position)
    return (words & mask) | (values << position)


def extract_bits(words: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Gather the listed bit positions of each word into a packed index.

    ``positions[i]`` supplies bit ``i`` of the result, i.e. the first
    listed position becomes the least significant bit of the packed
    value.  This is the software analogue of the x86 ``pext``
    instruction and is how a full input word is split into the row/column
    coordinates of a 2D truth table.
    """
    words = np.asarray(words, dtype=np.int64)
    out = np.zeros_like(words)
    for i, pos in enumerate(positions):
        out |= ((words >> pos) & 1) << i
    return out


def deposit_bits(packed: np.ndarray, positions: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`extract_bits`: scatter packed bits to positions.

    Bit ``i`` of ``packed`` is placed at bit ``positions[i]`` of the
    result; all other bits are zero.
    """
    packed = np.asarray(packed, dtype=np.int64)
    out = np.zeros_like(packed)
    for i, pos in enumerate(positions):
        out |= ((packed >> i) & 1) << pos
    return out


def cofactor_index(n_inputs: int, fixed: Mapping[int, int]) -> tuple:
    """Basic index restricting a ``(2,) * n_inputs`` grid to ``fixed`` bits.

    Bit ``i`` lives on axis ``n_inputs - 1 - i``; ``fixed`` maps bit
    positions to their 0/1 values.  Indexing the grid with the result
    is a view over the remaining bits, in their original order.
    """
    index = [slice(None)] * n_inputs
    for bit, value in fixed.items():
        bit = int(bit)
        if not 0 <= bit < n_inputs:
            raise ValueError(f"bit {bit} out of range for {n_inputs} inputs")
        if not isinstance(index[n_inputs - 1 - bit], slice):
            raise ValueError(f"bit {bit} fixed twice")
        if value not in (0, 1):
            raise ValueError(f"bit {bit} fixed to {value!r}, expected 0 or 1")
        index[n_inputs - 1 - bit] = int(value)
    return tuple(index)


def cofactor(
    values: np.ndarray, n_inputs: int, fixed: Mapping[int, int]
) -> np.ndarray:
    """Restrict a per-input vector to the inputs with ``fixed`` bits set.

    ``values[x]`` belongs to input word ``x`` over ``n_inputs`` bits;
    ``fixed`` maps bit positions to their 0/1 values.  The result is a
    contiguous copy over the ``2**(n - len(fixed))`` reduced words, the
    remaining bits re-packed densely in their original order: entry
    ``r`` is ``values[deposit_bits(r, kept) | fixed word]``.  Viewing
    the vector as a ``(2,) * n`` array (bit ``i`` on axis ``n-1-i``)
    makes this a basic slice (:func:`cofactor_index`) instead of a
    scatter plus a gather.
    """
    values = np.asarray(values)
    if values.shape != (1 << n_inputs,):
        raise ValueError(
            f"vector has shape {values.shape}, expected ({1 << n_inputs},)"
        )
    grid = values.reshape((2,) * n_inputs)
    return grid[cofactor_index(n_inputs, fixed)].flatten()


def words_to_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack words into a ``(len(words), n_bits)`` 0/1 matrix (LSB first)."""
    words = np.asarray(words, dtype=np.int64)
    shifts = np.arange(n_bits, dtype=np.int64)
    return ((words[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(rows, n_bits)`` 0/1 matrix into words (column 0 = LSB)."""
    bits = np.asarray(bits, dtype=np.int64)
    weights = np.int64(1) << np.arange(bits.shape[1], dtype=np.int64)
    return bits @ weights


def popcount(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Count set bits of each word (up to ``n_bits`` positions)."""
    return words_to_bits(words, n_bits).sum(axis=1).astype(np.int64)


def parity(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Return the XOR of the low ``n_bits`` bits of each word."""
    return (popcount(words, n_bits) & 1).astype(np.uint8)


def validate_positions(positions: Iterable[int], n_inputs: int) -> tuple:
    """Validate a collection of distinct bit positions within range.

    Returns the positions as a tuple (in the given order).  Raises
    ``ValueError`` on duplicates or out-of-range entries.
    """
    pos = tuple(int(p) for p in positions)
    if len(set(pos)) != len(pos):
        raise ValueError(f"duplicate bit positions in {pos}")
    for p in pos:
        if not 0 <= p < n_inputs:
            raise ValueError(f"bit position {p} out of range for {n_inputs} inputs")
    return pos
