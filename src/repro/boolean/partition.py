"""Variable partitions ``ω = (A, B)`` for disjoint decomposition.

A partition splits the ``n`` input variables into a *free set* ``A``
(indexing the rows of the 2D truth table) and a *bound set* ``B``
(indexing the columns).  The paper fixes ``|B| = b`` and explores the
partition space via *neighbour* moves that swap a single free variable
with a single bound variable (Section III-C: two partitions are
neighbours when their free sets differ in exactly one element).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from . import ops

__all__ = ["Partition", "random_partition", "all_partitions", "partition_count"]


@dataclass(frozen=True)
class Partition:
    """A disjoint split of input variables into free and bound sets.

    Attributes
    ----------
    free:
        Sorted tuple of 0-indexed variable positions in the free set
        ``A`` (they index the rows of the 2D truth table).
    bound:
        Sorted tuple of 0-indexed variable positions in the bound set
        ``B`` (they index the columns and feed the bound table).
    """

    free: Tuple[int, ...]
    bound: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "free", tuple(sorted(int(v) for v in self.free)))
        object.__setattr__(self, "bound", tuple(sorted(int(v) for v in self.bound)))
        overlap = set(self.free) & set(self.bound)
        if overlap:
            raise ValueError(f"free and bound sets overlap on {sorted(overlap)}")
        if not self.bound:
            raise ValueError("bound set must not be empty")
        if not self.free:
            raise ValueError("free set must not be empty")

    @classmethod
    def _trusted(
        cls, free: Tuple[int, ...], bound: Tuple[int, ...]
    ) -> "Partition":
        """Construct from already-sorted, disjoint int tuples.

        Reserved for :meth:`neighbours`, which derives both tuples from
        a validated partition; skipping ``__post_init__`` matters there
        because SA expands ``n_free * n_bound`` neighbours per move.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "bound", bound)
        return self

    def __hash__(self) -> int:
        # partitions key every hot cache; hash the field tuples once
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.free, self.bound))
            object.__setattr__(self, "_hash", cached)
        return cached

    # ------------------------------------------------------------------
    @property
    def n_inputs(self) -> int:
        """Total number of variables covered by the partition."""
        return len(self.free) + len(self.bound)

    @property
    def n_free(self) -> int:
        return len(self.free)

    @property
    def n_bound(self) -> int:
        return len(self.bound)

    @property
    def n_rows(self) -> int:
        """Number of rows of the induced 2D truth table, ``2**|A|``."""
        return 1 << self.n_free

    @property
    def n_cols(self) -> int:
        """Number of columns of the induced 2D truth table, ``2**|B|``."""
        return 1 << self.n_bound

    def validate_for(self, n_inputs: int) -> None:
        """Check that the partition exactly covers ``n_inputs`` variables."""
        expected = set(range(n_inputs))
        actual = set(self.free) | set(self.bound)
        if actual != expected:
            raise ValueError(
                f"partition covers variables {sorted(actual)}, "
                f"expected exactly {sorted(expected)}"
            )

    # ------------------------------------------------------------------
    def row_col_of(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map input words to (row, column) coordinates of the 2D table."""
        return (
            ops.extract_bits(words, self.free),
            ops.extract_bits(words, self.bound),
        )

    def word_of(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`row_col_of`."""
        return ops.deposit_bits(rows, self.free) | ops.deposit_bits(cols, self.bound)

    def scatter_index(self, n_inputs: int) -> np.ndarray:
        """Permutation ``idx`` with ``matrix.flat[idx[x]] = value[x]``.

        ``idx[x] = row(x) * n_cols + col(x)`` — used to reshape any
        per-input vector into the partition's 2D truth-table layout.
        """
        self.validate_for(n_inputs)
        xs = ops.all_inputs(n_inputs)
        rows, cols = self.row_col_of(xs)
        return rows * self.n_cols + cols

    # ------------------------------------------------------------------
    def neighbours(self) -> List["Partition"]:
        """All partitions whose free set differs in exactly one element.

        Each neighbour swaps one free variable with one bound variable,
        preserving the bound-set size ``b`` required by the hardware.
        The list order is part of the contract: :meth:`sample_neighbours`
        draws indices into it.
        """
        result = []
        for a in self.free:
            for b in self.bound:
                free = tuple(sorted(set(self.free) - {a} | {b}))
                bound = tuple(sorted(set(self.bound) - {b} | {a}))
                result.append(Partition._trusted(free, bound))
        return result

    def sample_neighbours(
        self, count: int, rng: np.random.Generator
    ) -> List["Partition"]:
        """Sample ``count`` distinct neighbours uniformly (``GenNeib``).

        Neighbour ``i`` of :meth:`neighbours` swaps the ``i``-th entry
        of the (free x bound) product; drawing indices into that
        product takes the same generator draw — and yields the same
        partitions — as enumerating every swap, while only
        constructing the ``count`` chosen neighbours.
        """
        n_bound = len(self.bound)
        total = len(self.free) * n_bound
        if count >= total:
            return self.neighbours()
        picks = rng.choice(total, size=count, replace=False)
        result = []
        for pick in picks:
            a = self.free[int(pick) // n_bound]
            b = self.bound[int(pick) % n_bound]
            result.append(
                Partition._trusted(
                    tuple(sorted(set(self.free) - {a} | {b})),
                    tuple(sorted(set(self.bound) - {b} | {a})),
                )
            )
        return result

    def is_neighbour_of(self, other: "Partition") -> bool:
        """True when the free sets differ in exactly one element."""
        if self.n_free != other.n_free or self.n_bound != other.n_bound:
            return False
        return len(set(self.free) - set(other.free)) == 1

    def with_shared_first(self, shared: int) -> "Partition":
        """Check ``shared`` is a bound variable and return self.

        Used by the non-disjoint mode: the routing box can always place
        the shared bit at the last bound position, so the logical
        partition does not change; this helper just validates membership.
        """
        if shared not in self.bound:
            raise ValueError(f"shared variable {shared} is not in the bound set")
        return self

    def __str__(self) -> str:
        free = ",".join(f"x{v + 1}" for v in self.free)
        bound = ",".join(f"x{v + 1}" for v in self.bound)
        return f"A={{{free}}} B={{{bound}}}"


def random_partition(
    n_inputs: int, bound_size: int, rng: np.random.Generator
) -> Partition:
    """Draw a uniform random partition with ``|B| = bound_size``."""
    if not 1 <= bound_size < n_inputs:
        raise ValueError(
            f"bound_size must be in [1, {n_inputs - 1}], got {bound_size}"
        )
    variables = rng.permutation(n_inputs)
    bound = tuple(int(v) for v in variables[:bound_size])
    free = tuple(int(v) for v in variables[bound_size:])
    return Partition(free, bound)


def all_partitions(n_inputs: int, bound_size: int) -> Iterator[Partition]:
    """Enumerate every partition with the given bound-set size.

    Only practical for small ``n``; used by tests and exhaustive
    baselines.
    """
    variables = range(n_inputs)
    for bound in itertools.combinations(variables, bound_size):
        free = tuple(v for v in variables if v not in bound)
        yield Partition(free, bound)


def partition_count(n_inputs: int, bound_size: int) -> int:
    """Number of partitions with ``|B| = bound_size`` (``C(n, b)``)."""
    return math.comb(n_inputs, bound_size)
