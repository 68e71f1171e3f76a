"""2D truth-table construction for a variable partition.

Theorem 1 of the paper (Ashenhurst) is stated on a 2D truth table whose
rows are indexed by the free set ``A`` and columns by the bound set
``B``.  This module reshapes per-input vectors (function bits, input
probabilities, per-input costs) into that layout and back.  Both
directions are one strided copy through the transpose view of
:meth:`Partition.table_axes` -- the same view the OptForPart kernel
gathers its cost tables through -- so no index array is built or kept.
"""

from __future__ import annotations

import numpy as np

from .function import BooleanFunction
from .partition import Partition

__all__ = [
    "to_matrix",
    "from_matrix",
    "component_matrix",
    "TwoDimensionalTable",
]


def to_matrix(values: np.ndarray, partition: Partition, n_inputs: int) -> np.ndarray:
    """Reshape a per-input vector into the partition's 2D layout.

    Entry ``(r, c)`` of the result is ``values[x]`` for the unique input
    word ``x`` whose free bits spell ``r`` and bound bits spell ``c``.
    One strided copy through :meth:`Partition.table_axes`; the result
    never shares memory with ``values``.
    """
    values = np.asarray(values)
    if values.shape != (1 << n_inputs,):
        raise ValueError(
            f"values has shape {values.shape}, expected ({1 << n_inputs},)"
        )
    partition.validate_for(n_inputs)
    grid = values.reshape((2,) * n_inputs)
    matrix = np.empty((partition.n_rows, partition.n_cols), dtype=values.dtype)
    axes = partition.table_axes(n_inputs)
    np.copyto(matrix.reshape(grid.shape), grid.transpose(axes))
    return matrix


def from_matrix(
    matrix: np.ndarray, partition: Partition, n_inputs: int
) -> np.ndarray:
    """Inverse of :func:`to_matrix`: flatten a 2D table back per input."""
    matrix = np.asarray(matrix)
    expected = (partition.n_rows, partition.n_cols)
    if matrix.shape != expected:
        raise ValueError(f"matrix has shape {matrix.shape}, expected {expected}")
    partition.validate_for(n_inputs)
    values = np.empty(1 << n_inputs, dtype=matrix.dtype)
    grid = values.reshape((2,) * n_inputs)
    axes = partition.table_axes(n_inputs)
    np.copyto(grid.transpose(axes), matrix.reshape(grid.shape))
    return values


def component_matrix(
    function: BooleanFunction, k: int, partition: Partition
) -> np.ndarray:
    """2D truth table of output bit ``k`` under ``partition``."""
    return to_matrix(function.component(k), partition, function.n_inputs)


class TwoDimensionalTable:
    """A 2D truth table of a single-output function under a partition.

    Wraps the raw matrix with the row-classification queries used by
    exact decomposition (Theorem 1) and by tests that mirror the
    paper's Examples 1 and 2.
    """

    def __init__(self, bits: np.ndarray, partition: Partition, n_inputs: int):
        bits = np.asarray(bits)
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("2D truth tables hold single-output (0/1) functions")
        self.partition = partition
        self.n_inputs = n_inputs
        self.matrix = to_matrix(bits.astype(np.uint8), partition, n_inputs)

    @classmethod
    def of_component(
        cls, function: BooleanFunction, k: int, partition: Partition
    ) -> "TwoDimensionalTable":
        return cls(function.component(k), partition, function.n_inputs)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.matrix.shape[1]

    def row(self, r: int) -> np.ndarray:
        return self.matrix[r]

    def distinct_rows(self) -> np.ndarray:
        """Unique row patterns in order of first appearance."""
        _, first = np.unique(self.matrix, axis=0, return_index=True)
        return self.matrix[np.sort(first)]

    def column_multiplicity(self) -> int:
        """Number of distinct rows — the classical decomposition metric.

        A function is disjointly decomposable with a *single-output*
        ``φ`` exactly when the distinct rows fit into
        ``{0, 1, V, ~V}`` (Theorem 1), which implies a column
        multiplicity of at most 4 (and at most 2 distinct non-constant
        patterns up to complement).
        """
        return len(self.distinct_rows())

    def flatten(self) -> np.ndarray:
        """Back to a per-input bit vector."""
        return from_matrix(self.matrix, self.partition, self.n_inputs)
