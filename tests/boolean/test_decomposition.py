"""Unit tests for decomposition representations and Theorem 1.

Includes the paper's Example 1 (Fig. 1(a)).
"""

import numpy as np
import pytest

from repro.boolean import (
    BooleanFunction,
    BoundOnlyDecomposition,
    DisjointDecomposition,
    NonDisjointDecomposition,
    Partition,
    RowType,
    apply_types,
    enumerate_exact_decompositions,
    find_exact_decomposition,
    to_matrix,
)

from ..conftest import random_bits


def example1_function() -> BooleanFunction:
    """The paper's Example 1: A = {x1, x2}, B = {x3, x4}.

    V = (0, 1, 1, 0) (i.e. φ = x3 xor x4) and T = (3, 4, 2, 1): row
    (x1, x2) = (0,0) is φ, (1,0) is ~φ, (0,1) is all-ones, (1,1) is
    all-zeros.
    """
    partition = Partition((0, 1), (2, 3))
    pattern = np.array([0, 1, 1, 0], dtype=np.uint8)
    types = np.array(
        [RowType.PATTERN, RowType.COMPLEMENT, RowType.ALL_ONE, RowType.ALL_ZERO],
        dtype=np.int8,
    )
    decomposition = DisjointDecomposition(partition, pattern, types)
    return BooleanFunction(4, 1, decomposition.evaluate(4), name="example1")


class TestApplyTypes:
    def test_all_four_types(self):
        pattern = np.array([0, 1, 1], dtype=np.uint8)
        types = np.array([1, 2, 3, 4], dtype=np.int8)
        matrix = apply_types(types, pattern)
        assert matrix.tolist() == [
            [0, 0, 0],
            [1, 1, 1],
            [0, 1, 1],
            [1, 0, 0],
        ]


class TestDisjointDecomposition:
    def test_validation(self):
        p = Partition((1,), (0,))
        with pytest.raises(ValueError, match="pattern"):
            DisjointDecomposition(p, np.array([0, 1, 0]), np.array([3, 3]))
        with pytest.raises(ValueError, match="type"):
            DisjointDecomposition(p, np.array([0, 1]), np.array([3]))
        with pytest.raises(ValueError, match="0/1"):
            DisjointDecomposition(p, np.array([0, 2]), np.array([3, 3]))
        with pytest.raises(ValueError, match="type vector entries"):
            DisjointDecomposition(p, np.array([0, 1]), np.array([0, 5]))

    def test_matrix_matches_evaluate(self, rng):
        p = Partition((0, 2), (1, 3))
        pattern = rng.integers(0, 2, size=4).astype(np.uint8)
        types = rng.integers(1, 5, size=4).astype(np.int8)
        dec = DisjointDecomposition(p, pattern, types)
        bits = dec.evaluate(4)
        assert to_matrix(bits, p, 4).tolist() == dec.matrix().tolist()

    def test_free_table_semantics(self):
        p = Partition((1,), (0,))
        dec = DisjointDecomposition(
            p, np.array([0, 1]), np.array([RowType.PATTERN, RowType.COMPLEMENT])
        )
        table = dec.free_table()
        assert table[0].tolist() == [0, 1]  # pattern row forwards phi
        assert table[1].tolist() == [1, 0]  # complement row inverts

    def test_lut_entries(self):
        p = Partition((3, 4), (0, 1, 2))
        dec = DisjointDecomposition(
            p, np.zeros(8, dtype=np.uint8), np.full(4, 3, dtype=np.int8)
        )
        assert dec.lut_entries() == 8 + 2 * 4

    def test_uses_free_table(self):
        p = Partition((1,), (0,))
        all3 = DisjointDecomposition(p, np.array([0, 1]), np.array([3, 3]))
        assert not all3.uses_free_table
        mixed = DisjointDecomposition(p, np.array([0, 1]), np.array([3, 1]))
        assert mixed.uses_free_table


class TestBoundOnly:
    def test_equals_phi(self):
        p = Partition((2, 3), (0, 1))
        pattern = np.array([1, 0, 0, 1], dtype=np.uint8)
        dec = BoundOnlyDecomposition(p, pattern)
        bits = dec.evaluate(4)
        # output ignores free bits entirely
        for x in range(16):
            assert bits[x] == pattern[x & 3]

    def test_mode_and_entries(self):
        p = Partition((2, 3), (0, 1))
        dec = BoundOnlyDecomposition(p, np.zeros(4, dtype=np.uint8))
        assert dec.mode == "bto"
        assert dec.lut_entries() == 4


class TestExample1:
    def test_function_is_decomposable(self):
        f = example1_function()
        partition = Partition((0, 1), (2, 3))
        found = find_exact_decomposition(f.component(0), partition, 4)
        assert found is not None
        assert found.evaluate(4).tolist() == f.component(0).tolist()

    def test_recovered_types_match(self):
        f = example1_function()
        partition = Partition((0, 1), (2, 3))
        found = find_exact_decomposition(f.component(0), partition, 4)
        # pattern is identified up to the first non-constant row, which
        # here is row 0 = V itself
        assert found.pattern.tolist() == [0, 1, 1, 0]
        assert found.types.tolist() == [3, 4, 2, 1]

    def test_phi_is_xor(self):
        f = example1_function()
        partition = Partition((0, 1), (2, 3))
        found = find_exact_decomposition(f.component(0), partition, 4)
        xs = np.arange(4)
        xor = (xs & 1) ^ (xs >> 1)
        assert found.bound_table().tolist() == xor.tolist()


class TestFindExactDecomposition:
    def test_random_vt_functions_decompose(self, rng):
        for _ in range(10):
            p = Partition((0, 3, 4), (1, 2))
            pattern = rng.integers(0, 2, size=4).astype(np.uint8)
            types = rng.integers(1, 5, size=8).astype(np.int8)
            bits = DisjointDecomposition(p, pattern, types).evaluate(5)
            found = find_exact_decomposition(bits, p, 5)
            assert found is not None
            assert found.evaluate(5).tolist() == bits.tolist()

    def test_random_function_usually_not_decomposable(self, rng):
        # a random 8-input function almost surely fails Theorem 1
        bits = random_bits(8, rng)
        p = Partition((4, 5, 6, 7), (0, 1, 2, 3))
        assert find_exact_decomposition(bits, p, 8) is None

    def test_constant_function_decomposes(self):
        p = Partition((1,), (0,))
        found = find_exact_decomposition(np.zeros(4, dtype=np.uint8), p, 2)
        assert found is not None
        assert found.evaluate(2).tolist() == [0, 0, 0, 0]

    def test_enumerate(self, rng):
        f = example1_function()
        results = list(enumerate_exact_decompositions(f, 0, 2))
        partitions = [p for p, _ in results]
        assert Partition((0, 1), (2, 3)) in partitions
        for partition, dec in results:
            assert dec.evaluate(4).tolist() == f.component(0).tolist()


class TestNonDisjoint:
    def _make(self, rng):
        partition = Partition((3, 4), (0, 1, 2))
        shared = 1
        pattern0 = rng.integers(0, 2, size=4).astype(np.uint8)
        pattern1 = rng.integers(0, 2, size=4).astype(np.uint8)
        types0 = rng.integers(1, 5, size=4).astype(np.int8)
        types1 = rng.integers(1, 5, size=4).astype(np.int8)
        return NonDisjointDecomposition(
            partition, shared, pattern0, types0, pattern1, types1
        )

    def test_validation(self):
        partition = Partition((3, 4), (0, 1, 2))
        with pytest.raises(ValueError, match="shared"):
            NonDisjointDecomposition(
                partition,
                3,
                np.zeros(4, dtype=np.uint8),
                np.full(4, 3, dtype=np.int8),
                np.zeros(4, dtype=np.uint8),
                np.full(4, 3, dtype=np.int8),
            )

    def test_single_bound_variable_rejected(self):
        """|B| = 1 leaves no reduced bound table once x_s is shared."""
        with pytest.raises(ValueError, match="no bound table"):
            NonDisjointDecomposition(
                Partition((0, 1), (2,)),
                2,
                np.zeros(1, dtype=np.uint8),
                np.full(4, 3, dtype=np.int8),
                np.zeros(1, dtype=np.uint8),
                np.full(4, 3, dtype=np.int8),
            )

    def test_eq1_cofactor_identity(self, rng):
        """Eq. (1): f|xs=j equals the j-th conditional decomposition."""
        dec = self._make(rng)
        f = BooleanFunction(5, 1, dec.evaluate(5))
        half0, half1 = dec.halves()
        assert f.cofactor(1, 0).table.tolist() == half0.evaluate(4).tolist()
        assert f.cofactor(1, 1).table.tolist() == half1.evaluate(4).tolist()

    def test_merged_bound_table(self, rng):
        dec = self._make(rng)
        merged = dec.bound_table()
        # column index packs sorted bound set (x1, x2, x3); shared is x2
        for col in range(8):
            xs = (col >> 1) & 1
            reduced = (col & 1) | (((col >> 2) & 1) << 1)
            expected = (dec.pattern1 if xs else dec.pattern0)[reduced]
            assert merged[col] == expected

    def test_lut_entries(self, rng):
        dec = self._make(rng)
        assert dec.lut_entries() == 8 + 4 * 4

    def test_reduced_bound(self, rng):
        assert self._make(rng).reduced_bound == (0, 2)

    def test_mode(self, rng):
        assert self._make(rng).mode == "nd"
