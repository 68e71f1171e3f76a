"""Unit tests for variable partitions."""

import hashlib

import numpy as np
import pytest

from repro.boolean import Partition, all_partitions, partition_count, random_partition


class TestConstruction:
    def test_sorts_members(self):
        p = Partition((3, 1), (2, 0))
        assert p.free == (1, 3)
        assert p.bound == (0, 2)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="overlap"):
            Partition((0, 1), (1, 2))

    def test_rejects_empty_sets(self):
        with pytest.raises(ValueError):
            Partition((), (0,))
        with pytest.raises(ValueError):
            Partition((0,), ())

    def test_shapes(self):
        p = Partition((2, 3, 4), (0, 1))
        assert p.n_inputs == 5
        assert p.n_free == 3
        assert p.n_bound == 2
        assert p.n_rows == 8
        assert p.n_cols == 4

    def test_hashable_and_equal(self):
        assert Partition((1, 3), (0, 2)) == Partition((3, 1), (2, 0))
        assert len({Partition((1,), (0,)), Partition((1,), (0,))}) == 1

    def test_validate_for(self):
        Partition((2, 3), (0, 1)).validate_for(4)
        with pytest.raises(ValueError):
            Partition((2, 3), (0, 1)).validate_for(5)
        with pytest.raises(ValueError):
            Partition((2, 4), (0, 1)).validate_for(4)


class TestCoordinates:
    def test_row_col_roundtrip(self):
        p = Partition((2, 3), (0, 1))
        words = np.arange(16)
        rows, cols = p.row_col_of(words)
        assert p.word_of(rows, cols).tolist() == words.tolist()

    def test_scatter_index_is_permutation(self):
        p = Partition((1, 3), (0, 2))
        idx = p.scatter_index(4)
        assert sorted(idx.tolist()) == list(range(16))

    def test_scatter_index_layout(self):
        # low bits bound: row-major layout means idx[x] = x reordered
        p = Partition((2, 3), (0, 1))
        idx = p.scatter_index(4)
        # word x: row = x >> 2, col = x & 3 -> flat index = x
        assert idx.tolist() == list(range(16))


class TestNeighbours:
    def test_neighbour_count(self):
        p = Partition((2, 3), (0, 1))
        assert len(p.neighbours()) == 4  # 2 free x 2 bound swaps

    def test_neighbours_preserve_sizes(self):
        p = Partition((2, 3, 4), (0, 1))
        for nb in p.neighbours():
            assert nb.n_free == 3
            assert nb.n_bound == 2
            assert p.is_neighbour_of(nb)

    def test_self_not_neighbour(self):
        p = Partition((2, 3), (0, 1))
        assert not p.is_neighbour_of(p)

    def test_sample_neighbours_distinct(self, rng):
        p = Partition((3, 4, 5), (0, 1, 2))
        sampled = p.sample_neighbours(5, rng)
        assert len(sampled) == 5
        assert len(set(sampled)) == 5

    def test_sample_more_than_available(self, rng):
        p = Partition((1,), (0,))
        sampled = p.sample_neighbours(10, rng)
        assert len(sampled) == 1  # only one swap exists

    def test_neighbour_free_sets_differ_in_one(self):
        p = Partition((2, 3), (0, 1))
        for nb in p.neighbours():
            assert len(set(p.free) - set(nb.free)) == 1


class TestSharedValidation:
    def test_with_shared_first(self):
        p = Partition((2, 3), (0, 1))
        assert p.with_shared_first(0) is p
        with pytest.raises(ValueError):
            p.with_shared_first(2)


class TestGenerators:
    def test_random_partition_valid(self, rng):
        for _ in range(20):
            p = random_partition(8, 3, rng)
            p.validate_for(8)
            assert p.n_bound == 3

    def test_random_partition_bad_bound(self, rng):
        with pytest.raises(ValueError):
            random_partition(4, 0, rng)
        with pytest.raises(ValueError):
            random_partition(4, 4, rng)

    def test_all_partitions_complete(self):
        parts = list(all_partitions(5, 2))
        assert len(parts) == partition_count(5, 2) == 10
        assert len(set(parts)) == 10
        for p in parts:
            p.validate_for(5)

    def test_random_partition_builds_what_the_validating_constructor_would(self, rng):
        for n_inputs, bound_size in ((2, 1), (7, 3), (12, 11)):
            for _ in range(20):
                p = random_partition(n_inputs, bound_size, rng)
                assert p == Partition(p.free, p.bound)
                assert all(type(v) is int for v in p.free + p.bound)
                p.validate_for(n_inputs)

    def test_random_partition_stream_is_pinned(self):
        """Every search samples through this stream: 360 draws over
        every ``(n, b)`` with ``n <= 16`` and the generator's end state
        hash to the digest the validating constructor produced."""
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        for n_inputs in range(2, 17):
            for bound_size in range(1, n_inputs):
                for _ in range(3):
                    p = random_partition(n_inputs, bound_size, rng)
                    digest.update(repr((p.free, p.bound)).encode())
        digest.update(repr(rng.bit_generator.state).encode())
        assert digest.hexdigest() == (
            "67c4df35fdd5dc5c5e732d26ec8b0946d28bce2947b621dd5cea0737988c7bf9"
        )

    def test_neighbour_streams_are_pinned(self):
        """``neighbours`` and ``sample_neighbours`` over every ``(n, b)``
        with ``n <= 16`` hash to the digest of the set-based swaps."""
        rng = np.random.default_rng(2025)
        digest = hashlib.sha256()
        for n_inputs in range(2, 17):
            for bound_size in range(1, n_inputs):
                p = random_partition(n_inputs, bound_size, rng)
                for count in (1, 3, n_inputs):
                    for nb in p.sample_neighbours(count, rng):
                        digest.update(repr((nb.free, nb.bound)).encode())
                for nb in p.neighbours():
                    digest.update(repr((nb.free, nb.bound)).encode())
        digest.update(repr(rng.bit_generator.state).encode())
        assert digest.hexdigest() == (
            "8106a07436412ffd45b5e3cb999c8277d5dea88ce055bb08272e5dabd33d4ebb"
        )

    def test_table_axes_are_kept_per_input_count(self):
        p = Partition((0, 2), (1,))
        assert p.table_axes(3) == (0, 2, 1)
        assert p.table_axes(3) is p.table_axes(3)
        # a partition of inputs {0, 1, 2} inside a wider word
        assert p.table_axes(4) == (1, 3, 2)
        assert p.table_axes(3) == (0, 2, 1)
        assert p == Partition((0, 2), (1,))
        assert hash(p) == hash(Partition((0, 2), (1,)))

    def test_random_partition_covers_space(self, rng):
        seen = {random_partition(5, 2, rng) for _ in range(300)}
        assert len(seen) == partition_count(5, 2)

    def test_str(self):
        assert str(Partition((1,), (0,))) == "A={x2} B={x1}"
