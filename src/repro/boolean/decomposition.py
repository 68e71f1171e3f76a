"""Disjoint and non-disjoint decomposition representations.

These classes are the *data model* shared by the optimisation
algorithms (``repro.core``) and the hardware generators
(``repro.hardware``): a decomposition fully determines the contents of
the bound/free tables and the routing-box configuration of the paper's
architectures.

Row types follow the paper's numbering (Theorem 1):

====  =========================
type  row pattern
====  =========================
1     all zeros
2     all ones
3     the pattern vector ``V``
4     the complement of ``V``
====  =========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Optional, Tuple

import numpy as np

from . import ops
from .function import BooleanFunction
from .partition import Partition, all_partitions
from .truth_table import from_matrix, to_matrix

__all__ = [
    "RowType",
    "Decomposition",
    "DisjointDecomposition",
    "BoundOnlyDecomposition",
    "NonDisjointDecomposition",
    "MultiSharedDecomposition",
    "find_exact_decomposition",
    "enumerate_exact_decompositions",
    "apply_types",
]


class RowType(IntEnum):
    """Row classification of the 2D truth table (paper's types 1-4)."""

    ALL_ZERO = 1
    ALL_ONE = 2
    PATTERN = 3
    COMPLEMENT = 4


def apply_types(types: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """Expand (V, T) into the full 2D matrix they encode.

    ``types`` has one entry per row, ``pattern`` one per column; the
    result is the matrix whose row ``r`` is the pattern named by
    ``types[r]``.
    """
    types = np.asarray(types, dtype=np.int8)
    pattern = np.asarray(pattern, dtype=np.uint8)
    rows = len(types)
    cols = len(pattern)
    matrix = np.empty((rows, cols), dtype=np.uint8)
    matrix[types == RowType.ALL_ZERO] = 0
    matrix[types == RowType.ALL_ONE] = 1
    matrix[types == RowType.PATTERN] = pattern
    matrix[types == RowType.COMPLEMENT] = 1 - pattern
    return matrix


def _cofactor_table(
    cofactor: np.ndarray, phi: np.ndarray, free_tables: Tuple[np.ndarray, ...]
) -> np.ndarray:
    """The ``(rows x cols)`` table ``F_j(φ(c), r)`` with ``j = cofactor[c]``.

    ``phi`` is the merged bound table and ``cofactor`` the shared-bit
    value of each bound-set column; the shared bits sit in the bound
    set, so each column reads one free table.
    """
    bank = np.stack(free_tables)  # (2**s, rows, 2)
    rows = np.arange(bank.shape[1])[:, None]
    return bank[cofactor, rows, phi]


class Decomposition:
    """Common interface of all decomposition flavours."""

    #: architecture mode implemented by this decomposition
    mode: str = "normal"

    def evaluate(self, n_inputs: int) -> np.ndarray:
        """Per-input 0/1 bits of the decomposed function."""
        raise NotImplementedError

    def lut_entries(self) -> int:
        """Total LUT bits needed to store the decomposition."""
        raise NotImplementedError


@dataclass(frozen=True)
class DisjointDecomposition(Decomposition):
    """``f(X) = F(φ(B), A)`` with explicit (ω, V, T).

    Attributes
    ----------
    partition:
        The variable partition ``ω = (A, B)``.
    pattern:
        The pattern vector ``V`` — one bit per bound-set assignment;
        this is exactly the bound-table image (``φ``).
    types:
        The type vector ``T`` — one :class:`RowType` per free-set
        assignment; together with ``V`` it determines the free table.
    """

    partition: Partition
    pattern: np.ndarray
    types: np.ndarray
    mode: str = field(default="normal")

    def __post_init__(self) -> None:
        pattern = np.asarray(self.pattern, dtype=np.uint8)
        types = np.asarray(self.types, dtype=np.int8)
        if pattern.shape != (self.partition.n_cols,):
            raise ValueError(
                f"pattern vector has length {pattern.shape}, expected "
                f"{self.partition.n_cols}"
            )
        if types.shape != (self.partition.n_rows,):
            raise ValueError(
                f"type vector has length {types.shape}, expected "
                f"{self.partition.n_rows}"
            )
        if np.any((pattern != 0) & (pattern != 1)):
            raise ValueError("pattern vector must be 0/1")
        if np.any((types < 1) | (types > 4)):
            raise ValueError("type vector entries must be in {1, 2, 3, 4}")
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "types", types)

    @classmethod
    def _trusted(
        cls,
        partition: Partition,
        pattern: np.ndarray,
        types: np.ndarray,
        mode: str = "normal",
    ) -> "DisjointDecomposition":
        """Construct without re-validating ``(V, T)``.

        Reserved for the OptForPart kernel, whose half-steps produce
        valid uint8/int8 vectors by construction; ``__post_init__``'s
        checks are pure overhead on that hot path.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "partition", partition)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "mode", mode)
        return self

    # ------------------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """The 2D truth table encoded by (V, T)."""
        return apply_types(self.types, self.pattern)

    def evaluate(self, n_inputs: int) -> np.ndarray:
        # the (rows x cols) table F(φ(c), r), scattered back per input
        return from_matrix(self.matrix(), self.partition, n_inputs)

    # ------------------------------------------------------------------
    def bound_table(self) -> np.ndarray:
        """Contents of the bound table: ``φ`` over all ``2**b`` columns."""
        return self.pattern.copy()

    def free_table(self) -> np.ndarray:
        """Contents of the free table as ``F[row, φ]`` (shape ``(2**|A|, 2)``).

        Type 1 rows ignore φ and output 0, type 2 rows output 1, type 3
        rows forward φ, type 4 rows invert it.
        """
        rows = self.partition.n_rows
        table = np.empty((rows, 2), dtype=np.uint8)
        t = self.types
        table[t == RowType.ALL_ZERO] = (0, 0)
        table[t == RowType.ALL_ONE] = (1, 1)
        table[t == RowType.PATTERN] = (0, 1)
        table[t == RowType.COMPLEMENT] = (1, 0)
        return table

    def lut_entries(self) -> int:
        """``2**b`` bound entries plus ``2**(n-b+1)`` free entries."""
        return self.partition.n_cols + 2 * self.partition.n_rows

    @property
    def uses_free_table(self) -> bool:
        """False when every row is type 3 (the BTO-eligible case)."""
        return bool(np.any(self.types != RowType.PATTERN))

    def __repr__(self) -> str:
        return (
            f"DisjointDecomposition(partition={self.partition}, "
            f"mode={self.mode!r})"
        )


class BoundOnlyDecomposition(DisjointDecomposition):
    """A decomposition operating in the BTO mode: ``f(X) = φ(B)``.

    Structurally it is a disjoint decomposition whose type vector is
    all type-3 rows, so the free table can be gated off entirely.
    """

    def __init__(self, partition: Partition, pattern: np.ndarray):
        types = np.full(partition.n_rows, RowType.PATTERN, dtype=np.int8)
        super().__init__(partition, pattern, types, mode="bto")

    def lut_entries(self) -> int:
        """Only the bound table is stored/active."""
        return self.partition.n_cols

    def __repr__(self) -> str:
        return f"BoundOnlyDecomposition(partition={self.partition})"


@dataclass(frozen=True)
class NonDisjointDecomposition(Decomposition):
    """``f(X) = F(φ(B), A, x_s)`` with one shared bound variable.

    Per Eq. (1) of the paper this is realised as two conditional
    disjoint decompositions over ``X \\ {x_s}``:
    ``f = x̄_s F0(φ0(𝔹), A) + x_s F1(φ1(𝔹), A)`` where ``𝔹 = B \\ {x_s}``.

    ``pattern0/types0`` describe the cofactor ``x_s = 0`` and
    ``pattern1/types1`` the cofactor ``x_s = 1``; each pattern vector is
    indexed by the reduced bound set ``𝔹`` (in sorted variable order)
    and each type vector by the free set ``A``.
    """

    partition: Partition
    shared: int
    pattern0: np.ndarray
    types0: np.ndarray
    pattern1: np.ndarray
    types1: np.ndarray
    mode: str = field(default="nd")

    def __post_init__(self) -> None:
        if self.shared not in self.partition.bound:
            raise ValueError(
                f"shared variable {self.shared} is not in the bound set "
                f"{self.partition.bound}"
            )
        if self.partition.n_bound < 2:
            raise ValueError(
                "sharing the only bound variable leaves no bound table; "
                "|B| must be >= 2"
            )
        reduced_cols = self.partition.n_cols // 2
        rows = self.partition.n_rows
        for name, vec, size in (
            ("pattern0", self.pattern0, reduced_cols),
            ("pattern1", self.pattern1, reduced_cols),
        ):
            vec = np.asarray(vec, dtype=np.uint8)
            if vec.shape != (size,):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({size},)")
            object.__setattr__(self, name, vec)
        for name, vec in (("types0", self.types0), ("types1", self.types1)):
            vec = np.asarray(vec, dtype=np.int8)
            if vec.shape != (rows,):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({rows},)")
            object.__setattr__(self, name, vec)

    # ------------------------------------------------------------------
    @property
    def reduced_bound(self) -> Tuple[int, ...]:
        """The bound set without the shared variable, ``𝔹``."""
        return tuple(v for v in self.partition.bound if v != self.shared)

    def halves(self) -> Tuple[DisjointDecomposition, DisjointDecomposition]:
        """The two conditional disjoint decompositions (on ``X \\ {x_s}``).

        The returned partitions are expressed in the *reduced* variable
        numbering where ``x_s`` has been deleted and higher variables
        shifted down by one — the numbering of
        :meth:`BooleanFunction.cofactor`.
        """

        def shift(v: int) -> int:
            return v - 1 if v > self.shared else v

        reduced = Partition(
            tuple(shift(v) for v in self.partition.free),
            tuple(shift(v) for v in self.reduced_bound),
        )
        return (
            DisjointDecomposition(reduced, self.pattern0, self.types0),
            DisjointDecomposition(reduced, self.pattern1, self.types1),
        )

    def evaluate(self, n_inputs: int) -> np.ndarray:
        table = _cofactor_table(
            self._column_cofactor(), self.bound_table(), self.free_tables()
        )
        return from_matrix(table, self.partition, n_inputs)

    def _column_cofactor(self) -> np.ndarray:
        """``x_s`` in each bound-set column (sorted bound order)."""
        shared_pos = self.partition.bound.index(self.shared)
        return ops.bit_of(ops.all_inputs(self.partition.n_bound), shared_pos)

    # ------------------------------------------------------------------
    def bound_table(self) -> np.ndarray:
        """Merged bound table ``φ(B) = x̄_s φ0(𝔹) + x_s φ1(𝔹)``.

        Indexed by the full bound set ``B`` (sorted order), matching the
        single physical bound table of the BTO-Normal-ND architecture.
        """
        cols = ops.all_inputs(self.partition.n_bound)
        reduced_pos = [
            self.partition.bound.index(v) for v in self.reduced_bound
        ]
        sel = self._column_cofactor()
        reduced_idx = ops.extract_bits(cols, reduced_pos)
        return np.where(
            sel, self.pattern1[reduced_idx], self.pattern0[reduced_idx]
        ).astype(np.uint8)

    def free_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Contents of Free Table 0 and Free Table 1 (``F[row, φ]``)."""
        half0, half1 = self.halves()
        return half0.free_table(), half1.free_table()

    def lut_entries(self) -> int:
        """``2**b`` bound entries plus two free tables."""
        return self.partition.n_cols + 4 * self.partition.n_rows

    def __repr__(self) -> str:
        return (
            f"NonDisjointDecomposition(partition={self.partition}, "
            f"shared=x{self.shared + 1})"
        )


@dataclass(frozen=True)
class MultiSharedDecomposition(Decomposition):
    """Generalised non-disjoint decomposition with ``s`` shared bits.

    The paper limits the shared set ``C`` to a single variable "so that
    the hardware cost is not increased too much" (§IV-B1); this class
    implements the natural generalisation ``f(X) = F(φ(B), A, C)`` with
    ``C ⊆ B`` of any size: one conditional disjoint decomposition per
    assignment of ``C`` (``2**s`` pattern/type vector pairs), realised
    in hardware by ``2**s`` free tables behind a mux tree on ``C``.

    ``patterns[j]`` / ``types[j]`` describe the cofactor where the
    shared bits (in sorted variable order) spell the binary value
    ``j``.  The single-shared-bit case is exactly the paper's
    :class:`NonDisjointDecomposition`.
    """

    partition: Partition
    shared: Tuple[int, ...]
    patterns: Tuple[np.ndarray, ...]
    types: Tuple[np.ndarray, ...]
    mode: str = field(default="nd-multi")

    def __post_init__(self) -> None:
        shared = tuple(sorted(int(v) for v in self.shared))
        if not shared:
            raise ValueError("at least one shared variable is required")
        missing = set(shared) - set(self.partition.bound)
        if missing:
            raise ValueError(
                f"shared variables {sorted(missing)} are not in the bound set"
            )
        if len(shared) >= self.partition.n_bound:
            raise ValueError(
                "sharing every bound variable leaves no bound table; "
                "|C| must be < |B|"
            )
        object.__setattr__(self, "shared", shared)
        count = 1 << len(shared)
        reduced_cols = self.partition.n_cols >> len(shared)
        rows = self.partition.n_rows
        if len(self.patterns) != count or len(self.types) != count:
            raise ValueError(
                f"need {count} pattern/type vector pairs for "
                f"{len(shared)} shared bits"
            )
        patterns = []
        types = []
        for j in range(count):
            pattern = np.asarray(self.patterns[j], dtype=np.uint8)
            tvec = np.asarray(self.types[j], dtype=np.int8)
            if pattern.shape != (reduced_cols,):
                raise ValueError(
                    f"pattern {j} has shape {pattern.shape}, expected "
                    f"({reduced_cols},)"
                )
            if tvec.shape != (rows,):
                raise ValueError(
                    f"type vector {j} has shape {tvec.shape}, expected ({rows},)"
                )
            patterns.append(pattern)
            types.append(tvec)
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "types", tuple(types))

    # ------------------------------------------------------------------
    @property
    def n_shared(self) -> int:
        return len(self.shared)

    @property
    def reduced_bound(self) -> Tuple[int, ...]:
        return tuple(v for v in self.partition.bound if v not in self.shared)

    def halves(self) -> Tuple[DisjointDecomposition, ...]:
        """The conditional disjoint decompositions, reduced numbering."""
        shared = set(self.shared)

        def shift(v: int) -> int:
            return v - sum(1 for s in self.shared if s < v)

        reduced = Partition(
            tuple(shift(v) for v in self.partition.free),
            tuple(shift(v) for v in self.reduced_bound),
        )
        return tuple(
            DisjointDecomposition(reduced, self.patterns[j], self.types[j])
            for j in range(1 << self.n_shared)
        )

    def evaluate(self, n_inputs: int) -> np.ndarray:
        table = _cofactor_table(
            self._column_cofactor(), self.bound_table(), self.free_tables()
        )
        return from_matrix(table, self.partition, n_inputs)

    def _column_cofactor(self) -> np.ndarray:
        """The shared bits' value ``j`` in each bound-set column."""
        positions = [self.partition.bound.index(v) for v in self.shared]
        return ops.extract_bits(ops.all_inputs(self.partition.n_bound), positions)

    def bound_table(self) -> np.ndarray:
        """Merged bound table over the full bound set (sorted order)."""
        cols = ops.all_inputs(self.partition.n_bound)
        select = self._column_cofactor()
        reduced_idx = ops.extract_bits(
            cols, [self.partition.bound.index(v) for v in self.reduced_bound]
        )
        pattern_bank = np.stack(self.patterns)
        return pattern_bank[select, reduced_idx].astype(np.uint8)

    def free_tables(self) -> Tuple[np.ndarray, ...]:
        return tuple(h.free_table() for h in self.halves())

    def lut_entries(self) -> int:
        """Bound table plus ``2**s`` free tables."""
        return self.partition.n_cols + (1 << self.n_shared) * 2 * self.partition.n_rows

    def __repr__(self) -> str:
        shared = ",".join(f"x{v + 1}" for v in self.shared)
        return (
            f"MultiSharedDecomposition(partition={self.partition}, "
            f"shared={{{shared}}})"
        )


# ----------------------------------------------------------------------
# Exact (error-free) decomposition — Theorem 1
# ----------------------------------------------------------------------
def find_exact_decomposition(
    bits: np.ndarray, partition: Partition, n_inputs: int
) -> Optional[DisjointDecomposition]:
    """Ashenhurst's condition: classify each row as 0s/1s/V/~V.

    Returns an exact :class:`DisjointDecomposition` when one exists for
    this partition, else ``None``.  The pattern vector is taken from the
    first non-constant row (so constant functions decompose with an
    all-zero pattern).
    """
    matrix = to_matrix(np.asarray(bits, dtype=np.uint8), partition, n_inputs)
    row_sums = matrix.sum(axis=1)
    n_cols = matrix.shape[1]
    types = np.zeros(matrix.shape[0], dtype=np.int8)
    pattern: Optional[np.ndarray] = None
    for r in range(matrix.shape[0]):
        if row_sums[r] == 0:
            types[r] = RowType.ALL_ZERO
        elif row_sums[r] == n_cols:
            types[r] = RowType.ALL_ONE
        elif pattern is None:
            pattern = matrix[r].copy()
            types[r] = RowType.PATTERN
        elif np.array_equal(matrix[r], pattern):
            types[r] = RowType.PATTERN
        elif np.array_equal(matrix[r], 1 - pattern):
            types[r] = RowType.COMPLEMENT
        else:
            return None
    if pattern is None:
        pattern = np.zeros(n_cols, dtype=np.uint8)
    return DisjointDecomposition(partition, pattern, types)


def enumerate_exact_decompositions(
    function: BooleanFunction, k: int, bound_size: int
) -> Iterator[Tuple[Partition, DisjointDecomposition]]:
    """Yield every exact decomposition of output bit ``k``.

    Exhaustive over partitions — intended for small functions (tests,
    exploration tools).
    """
    bits = function.component(k)
    for partition in all_partitions(function.n_inputs, bound_size):
        found = find_exact_decomposition(bits, partition, function.n_inputs)
        if found is not None:
            yield partition, found
