"""Differential tests for the OptForPart performance layer.

Every fast path (cached gather indices, batched ``opt_for_part_many``,
the exact sweep) must be *bit-exact*: identical errors, identical
pattern/type bytes, identical downstream generator streams.  These
tests pin that contract against the serial reference implementation
(``caching.fast_paths(False)``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import caching
from repro.boolean import Partition, ops, random_partition
from repro.boolean.truth_table import row_col_indices, table_indices
from repro.core import (
    AlgorithmConfig,
    cost_vectors_fixed,
    opt_for_part,
    opt_for_part_many,
    run_bssa,
    run_dalta,
)

from ..conftest import random_bits, random_function


@pytest.fixture(autouse=True)
def fresh_caches():
    """Isolate every test from cross-test cache state."""
    caching.clear_caches()
    yield
    caching.clear_caches()


def _instance(n_inputs, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    raw = rng.random(1 << n_inputs) + 1e-3
    return costs, raw / raw.sum()


def _same_result(a, b):
    assert a.error == b.error
    assert a.partition == b.partition
    assert a.pattern.tobytes() == b.pattern.tobytes()
    da, db = a.decomposition, b.decomposition
    assert da.mode == db.mode
    if hasattr(da, "types"):
        assert da.types.tobytes() == db.types.tobytes()


def _run_fingerprint(result):
    """Everything observable about a full algorithm run, as bytes-safe data."""
    out = [result.algorithm, float(result.med), tuple(result.round_history)]
    for setting in result.sequence.settings:
        if setting is None:
            out.append(None)
            continue
        d = setting.decomposition
        entry = [
            float(setting.error),
            d.mode,
            type(d).__name__,
            d.partition.free,
            d.partition.bound,
            getattr(d, "shared", None),
        ]
        for name in ("pattern", "types", "pattern0", "types0", "pattern1", "types1"):
            vector = getattr(d, name, None)
            if vector is not None:
                entry.append((name, vector.tobytes()))
        out.append(tuple(entry))
    return out


class TestIndexCache:
    def test_matches_bit_extraction(self):
        rng = np.random.default_rng(0)
        for n_inputs in (4, 6, 9):
            for bound in (1, 2, n_inputs - 2):
                partition = random_partition(n_inputs, bound, rng)
                scatter, gather = table_indices(partition, n_inputs)
                reference = partition.scatter_index(n_inputs)
                np.testing.assert_array_equal(scatter, reference)
                # gather is the inverse permutation
                np.testing.assert_array_equal(
                    gather[scatter], np.arange(1 << n_inputs)
                )

    def test_row_col_matches_extraction(self):
        rng = np.random.default_rng(1)
        partition = random_partition(8, 3, rng)
        rows, cols = row_col_indices(partition, 8)
        ref_rows, ref_cols = partition.row_col_of(ops.all_inputs(8))
        np.testing.assert_array_equal(rows, ref_rows)
        np.testing.assert_array_equal(cols, ref_cols)

    def test_cached_arrays_are_shared_and_readonly(self):
        partition = Partition((2, 3), (0, 1))
        first = table_indices(partition, 4)
        second = table_indices(partition, 4)
        assert first[0] is second[0] and first[1] is second[1]
        assert not first[0].flags.writeable
        assert not first[1].flags.writeable
        with pytest.raises(ValueError):
            first[1][0] = 7


class TestNeighbourSampling:
    def test_sampling_matches_enumerated_swaps(self):
        partition = Partition((0, 3, 5, 6), (1, 2, 4))
        swaps = [(a, b) for a in partition.free for b in partition.bound]
        picks = np.random.default_rng(3).choice(
            len(swaps), size=4, replace=False
        )
        expected = []
        for index in picks:
            a, b = swaps[int(index)]
            expected.append(
                Partition(
                    tuple(sorted(set(partition.free) - {a} | {b})),
                    tuple(sorted(set(partition.bound) - {b} | {a})),
                )
            )
        sampled = partition.sample_neighbours(4, np.random.default_rng(3))
        assert sampled == expected

    def test_oversampling_returns_all_neighbours(self):
        partition = Partition((0, 1), (2, 3))
        rng = np.random.default_rng(5)
        assert partition.sample_neighbours(99, rng) == partition.neighbours()


class TestBatchedMatchesSerial:
    @pytest.mark.parametrize("n_inputs,bound", [(6, 3), (8, 4), (9, 5)])
    def test_many_vs_loop(self, n_inputs, bound):
        costs, p = _instance(n_inputs, seed=42)
        sample_rng = np.random.default_rng(7)
        partitions = [
            random_partition(n_inputs, bound, sample_rng) for _ in range(9)
        ]
        rng_serial = np.random.default_rng(99)
        serial = [
            opt_for_part(
                costs, p, pt, n_inputs, n_initial_patterns=5, rng=rng_serial
            )
            for pt in partitions
        ]
        rng_batched = np.random.default_rng(99)
        batched = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=5, rng=rng_batched
        )
        assert len(batched) == len(serial)
        for a, b in zip(serial, batched):
            _same_result(a, b)
        # the batched draw consumes the generator identically
        assert rng_serial.bit_generator.state == rng_batched.bit_generator.state

    def test_many_spans_multiple_chunks(self, monkeypatch):
        import importlib

        # the package re-exports the function under the module's name
        kernel = importlib.import_module("repro.core.opt_for_part")
        monkeypatch.setattr(kernel, "_BATCH_LIMIT", 3)
        costs, p = _instance(7, seed=8)
        sample_rng = np.random.default_rng(2)
        partitions = [random_partition(7, 3, sample_rng) for _ in range(8)]
        rng_serial = np.random.default_rng(4)
        serial = [
            opt_for_part(costs, p, pt, 7, n_initial_patterns=4, rng=rng_serial)
            for pt in partitions
        ]
        rng_batched = np.random.default_rng(4)
        batched = kernel.opt_for_part_many(
            costs, p, partitions, 7, n_initial_patterns=4, rng=rng_batched
        )
        for a, b in zip(serial, batched):
            _same_result(a, b)

    def test_shape_mismatch_rejected(self):
        costs, p = _instance(6, seed=1)
        parts = [
            Partition((2, 3, 4, 5), (0, 1)),
            Partition((3, 4, 5), (0, 1, 2)),
        ]
        with pytest.raises(ValueError, match="one .* shape"):
            opt_for_part_many(costs, p, parts, 6, rng=np.random.default_rng(0))


class TestPipelineBitExact:
    """Full algorithm runs are byte-identical with fast paths on/off."""

    CONFIG = AlgorithmConfig(
        bound_size=4,
        rounds=2,
        partition_limit=8,
        n_initial_patterns=4,
        n_beam=2,
        n_neighbours=3,
        nd_candidates=2,
    )

    def _run(self, algorithm, architecture, fast):
        rng = np.random.default_rng(2024)
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        with caching.fast_paths(fast):
            caching.clear_caches()
            if algorithm == "dalta":
                return run_dalta(target, self.CONFIG, rng=rng)
            return run_bssa(
                target, self.CONFIG, rng=rng, architecture=architecture
            )

    @pytest.mark.parametrize(
        "algorithm,architecture",
        [
            ("bs-sa", "normal"),
            ("bs-sa", "bto-normal"),
            ("bs-sa", "bto-normal-nd"),
            ("dalta", "normal"),
        ],
    )
    def test_fast_paths_do_not_change_results(self, algorithm, architecture):
        fast = self._run(algorithm, architecture, fast=True)
        slow = self._run(algorithm, architecture, fast=False)
        assert _run_fingerprint(fast) == _run_fingerprint(slow)

    def test_warm_process_rerun_is_identical(self):
        """A same-seed rerun in a warm process repeats the first run."""
        target = random_function(8, 3, np.random.default_rng(5), name="w")
        cold = run_bssa(target, self.CONFIG, rng=np.random.default_rng(31))
        # same seed again, the truth-table index caches still warm
        warm = run_bssa(target, self.CONFIG, rng=np.random.default_rng(31))
        assert _run_fingerprint(cold) == _run_fingerprint(warm)
        assert any(stats["hits"] for stats in caching.cache_stats().values())
