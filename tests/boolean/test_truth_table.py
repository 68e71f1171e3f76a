"""Unit tests for 2D truth-table reshaping."""

import numpy as np
import pytest

from repro.boolean import (
    BooleanFunction,
    DisjointDecomposition,
    MultiSharedDecomposition,
    NonDisjointDecomposition,
    Partition,
    TwoDimensionalTable,
    component_matrix,
    from_matrix,
    ops,
    random_partition,
    to_matrix,
)

from ..conftest import random_function


class TestToFromMatrix:
    def test_roundtrip(self, rng):
        p = Partition((0, 3), (1, 2))
        values = rng.normal(size=16)
        matrix = to_matrix(values, p, 4)
        assert matrix.shape == (4, 4)
        back = from_matrix(matrix, p, 4)
        assert np.allclose(back, values)

    def test_entry_semantics(self):
        # f(x) = x with A={x3,x4} rows, B={x1,x2} cols
        p = Partition((2, 3), (0, 1))
        matrix = to_matrix(np.arange(16), p, 4)
        # row r, col c corresponds to word (r << 2) | c
        for r in range(4):
            for c in range(4):
                assert matrix[r, c] == (r << 2) | c

    def test_shape_validation(self):
        p = Partition((1,), (0,))
        with pytest.raises(ValueError):
            to_matrix(np.zeros(3), p, 2)
        with pytest.raises(ValueError):
            from_matrix(np.zeros((2, 3)), p, 2)


class TestComponentMatrix:
    def test_matches_manual(self, rng):
        f = random_function(4, 2, rng)
        p = Partition((1, 2), (0, 3))
        matrix = component_matrix(f, 1, p)
        flat = from_matrix(matrix, p, 4)
        assert flat.tolist() == f.component(1).tolist()


class TestTwoDimensionalTable:
    def test_rejects_nonbinary(self):
        p = Partition((1,), (0,))
        with pytest.raises(ValueError):
            TwoDimensionalTable(np.array([0, 1, 2, 0]), p, 2)

    def test_distinct_rows_and_multiplicity(self):
        # xor function: rows are V and ~V
        f = BooleanFunction.from_vectorized(
            lambda xs: ((xs & 1) ^ ((xs >> 1) & 1)), 2, 1
        )
        p = Partition((1,), (0,))
        table = TwoDimensionalTable.of_component(f, 0, p)
        assert table.n_rows == 2
        assert table.n_cols == 2
        assert table.column_multiplicity() == 2

    def test_flatten_roundtrip(self, rng):
        f = random_function(5, 1, rng)
        p = Partition((0, 2, 4), (1, 3))
        table = TwoDimensionalTable.of_component(f, 0, p)
        assert table.flatten().tolist() == f.component(0).tolist()

    def test_row_accessor(self):
        p = Partition((2, 3), (0, 1))
        table = TwoDimensionalTable(np.arange(16) % 2, p, 4)
        assert table.row(0).tolist() == [0, 1, 0, 1]


def _view_cases():
    """Random partitions at every n from 2 to 16, |A| = 1 and |B| = 1 included."""
    rng = np.random.default_rng(2026)
    cases = []
    for n_inputs in range(2, 17):
        for bound in sorted({1, n_inputs - 1, int(rng.integers(1, n_inputs))}):
            partition = random_partition(n_inputs, bound, rng)
            cases.append(
                pytest.param(n_inputs, partition, id=f"n{n_inputs}-b{bound}")
            )
    return cases


def _cofactored_oracle(n_inputs, partition, shared, patterns, types):
    """``f(x) = F_j(V_j(c'), r)`` by per-bit extraction of every input.

    ``j`` spells the shared bits, ``c'`` the bound bits without them and
    ``r`` the free bits; a type-1/2/3/4 row outputs 0, 1, ``V`` or its
    complement.
    """
    xs = ops.all_inputs(n_inputs)
    reduced = [v for v in partition.bound if v not in shared]
    select = ops.extract_bits(xs, shared)
    rows = ops.extract_bits(xs, partition.free)
    phi = np.stack(patterns)[select, ops.extract_bits(xs, reduced)]
    row_type = np.stack(types)[select, rows]
    bits = np.where(row_type == 3, phi, np.where(row_type == 4, 1 - phi, row_type - 1))
    return bits.astype(np.uint8)


@pytest.mark.parametrize("n_inputs,partition", _view_cases())
class TestTableViewMatchesBitExtraction:
    """The transpose view against the per-bit ``row_col_of`` reference."""

    def test_to_matrix(self, n_inputs, partition):
        rows, cols = partition.row_col_of(ops.all_inputs(n_inputs))
        values = np.random.default_rng(n_inputs).permutation(1 << n_inputs)
        expected = np.empty((partition.n_rows, partition.n_cols), values.dtype)
        expected[rows, cols] = values
        matrix = to_matrix(values, partition, n_inputs)
        assert matrix.dtype == values.dtype
        assert matrix.tobytes() == expected.tobytes()
        assert not np.shares_memory(matrix, values)

    def test_from_matrix(self, n_inputs, partition):
        rows, cols = partition.row_col_of(ops.all_inputs(n_inputs))
        matrix = np.random.default_rng(n_inputs).random(
            (partition.n_rows, partition.n_cols)
        )
        values = from_matrix(matrix, partition, n_inputs)
        assert values.tobytes() == matrix[rows, cols].tobytes()
        # flattening the word grid back spells the per-bit scatter index
        index = np.arange(matrix.size).reshape(matrix.shape)
        np.testing.assert_array_equal(
            from_matrix(index, partition, n_inputs),
            partition.scatter_index(n_inputs),
        )

    def test_evaluate(self, n_inputs, partition):
        rows, cols = partition.row_col_of(ops.all_inputs(n_inputs))
        rng = np.random.default_rng(n_inputs)
        decomposition = DisjointDecomposition(
            partition,
            rng.integers(0, 2, partition.n_cols),
            rng.integers(1, 5, partition.n_rows),
        )
        phi = decomposition.pattern[cols].astype(np.int64)
        expected = decomposition.free_table()[rows, phi]
        bits = decomposition.evaluate(n_inputs)
        assert bits.dtype == expected.dtype == np.uint8
        assert bits.tobytes() == expected.tobytes()

    def test_evaluate_non_disjoint(self, n_inputs, partition):
        if partition.n_bound < 2:
            return  # the halves need a non-empty reduced bound set
        rng = np.random.default_rng(n_inputs)
        shared = int(rng.choice(partition.bound))
        patterns = rng.integers(0, 2, (2, partition.n_cols // 2))
        types = rng.integers(1, 5, (2, partition.n_rows))
        decomposition = NonDisjointDecomposition(
            partition, shared, patterns[0], types[0], patterns[1], types[1]
        )
        expected = _cofactored_oracle(
            n_inputs, partition, [shared], patterns, types
        )
        bits = decomposition.evaluate(n_inputs)
        assert bits.dtype == np.uint8
        assert bits.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_shared", [1, 2])
    def test_evaluate_multi_shared(self, n_inputs, partition, n_shared):
        if partition.n_bound <= n_shared:
            return  # |C| < |B| leaves a bound table
        rng = np.random.default_rng(n_inputs + n_shared)
        shared = sorted(
            int(v) for v in rng.choice(partition.bound, n_shared, replace=False)
        )
        count = 1 << n_shared
        patterns = rng.integers(0, 2, (count, partition.n_cols >> n_shared))
        types = rng.integers(1, 5, (count, partition.n_rows))
        decomposition = MultiSharedDecomposition(
            partition, tuple(shared), tuple(patterns), tuple(types)
        )
        expected = _cofactored_oracle(
            n_inputs, partition, shared, patterns, types
        )
        bits = decomposition.evaluate(n_inputs)
        assert bits.dtype == np.uint8
        assert bits.tobytes() == expected.tobytes()


class TestTableViewValidation:
    def test_identity_axes_still_copy(self):
        # free = the high bits: the view is the identity permutation
        p = Partition((2, 3), (0, 1))
        assert p.table_axes(4) == (0, 1, 2, 3)
        values = np.arange(16)
        assert not np.shares_memory(to_matrix(values, p, 4), values)

    def test_partition_must_cover_exactly(self):
        # axes (2, 1, 0, -1) would be a valid permutation to numpy
        p = Partition((3, 4), (1, 2))
        with pytest.raises(ValueError, match="covers variables"):
            to_matrix(np.zeros(16), p, 4)
        with pytest.raises(ValueError, match="covers variables"):
            from_matrix(np.zeros((4, 4)), p, 4)
        with pytest.raises(ValueError, match="covers variables"):
            DisjointDecomposition(p, np.zeros(4), np.ones(4)).evaluate(4)
