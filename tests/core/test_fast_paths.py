"""Differential tests for the OptForPart performance layer.

Every fast path (batched ``opt_for_part_many``, the exact sweep) must
be *bit-exact*: identical errors, identical
pattern/type bytes, identical downstream generator streams.  These
tests pin that contract against loops of single ``opt_for_part``
calls, against the reference kernel (``caching.fast_paths(False)``),
and against run digests captured from the serial search loops that
the batched generations replaced.
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np
import pytest

from repro import caching
from repro.boolean import Partition, random_partition
from repro.core import (
    AlgorithmConfig,
    cost_vectors_fixed,
    opt_for_part,
    opt_for_part_many,
    run_bssa,
    run_dalta,
)

from repro.core.opt_for_part import (
    KernelContext,
    KernelRequest,
    draw_patterns,
    opt_for_part_grouped,
)

from ..conftest import random_bits, random_function

# the package re-exports the function under the module's name
kernel = importlib.import_module("repro.core.opt_for_part")


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



class TestDrawContract:
    """``draw_patterns`` is the one draw rule; every stack form of
    ``opt_for_part_many`` and ``opt_for_part_grouped`` is taken through
    ``KernelRequest``'s one uint8 shape check."""

    def _batch(self):
        costs, p = _instance(7, seed=12)
        sample_rng = np.random.default_rng(6)
        return costs, p, [random_partition(7, 3, sample_rng) for _ in range(5)]

    @pytest.mark.parametrize(
        "z,bound",
        # b = 1 with an odd Z leaves a 32-bit word part-used (Z * cols
        # is 2 mod 4): there a stacked draw would differ from the loop
        [(1, 1), (3, 1), (2, 1), (30, 1), (1, 2), (3, 2), (4, 3), (5, 3), (30, 4)],
    )
    def test_draw_equals_successive_draws(self, z, bound):
        rng = np.random.default_rng(4)
        partitions = [random_partition(7, bound, rng) for _ in range(5)]
        rng_loop = np.random.default_rng(9)
        loop = [
            rng_loop.integers(0, 2, size=(z, pt.n_cols), dtype=np.uint8)
            for pt in partitions
        ]
        rng_stack = np.random.default_rng(9)
        stacked = draw_patterns(rng_stack, partitions, z)
        assert stacked.dtype == np.uint8
        assert stacked.shape == (5, z, 1 << bound)
        assert stacked.tobytes() == np.stack(loop).tobytes()
        assert rng_loop.bit_generator.state == rng_stack.bit_generator.state
        # and the next draw of either generator is the same
        assert rng_loop.integers(1 << 30) == rng_stack.integers(1 << 30)

    def test_draw_rejects_no_candidates(self):
        _, _, partitions = self._batch()
        with pytest.raises(ValueError, match="n_initial_patterns"):
            draw_patterns(np.random.default_rng(0), partitions, 0)

    def test_draw_rejects_mixed_column_counts(self):
        rng = np.random.default_rng(0)
        partitions = [random_partition(7, 3, rng), random_partition(7, 4, rng)]
        with pytest.raises(ValueError, match="one bound-set shape"):
            draw_patterns(np.random.default_rng(1), partitions, 4)

    def test_rng_sequence_and_stack_forms_agree(self):
        costs, p, partitions = self._batch()
        drawn = opt_for_part_many(
            costs, p, partitions, 7, n_initial_patterns=4,
            rng=np.random.default_rng(3),
        )
        stacked = draw_patterns(np.random.default_rng(3), partitions, 4)
        from_stack = opt_for_part_many(
            costs, p, partitions, 7, initial_patterns=stacked
        )
        from_sequence = opt_for_part_many(
            costs, p, partitions, 7, initial_patterns=list(stacked)
        )
        for a, b, c in zip(drawn, from_stack, from_sequence):
            _same_result(a, b)
            _same_result(a, c)

    @pytest.mark.parametrize(
        "case", ["wrong-columns", "ragged", "too-few", "no-candidates", "flat"]
    )
    def test_malformed_stack_rejected_before_any_sweep(self, monkeypatch, case):
        costs, p, partitions = self._batch()
        cols = partitions[0].n_cols
        patterns = {
            "wrong-columns": np.zeros((5, 4, cols + 1), dtype=np.uint8),
            "ragged": [np.zeros((4, cols), dtype=np.uint8)] * 4
            + [np.zeros((3, cols), dtype=np.uint8)],
            "too-few": np.zeros((4, 4, cols), dtype=np.uint8),
            "no-candidates": np.zeros((5, 0, cols), dtype=np.uint8),
            "flat": np.zeros((5, cols), dtype=np.uint8),
        }[case]

        def no_sweep(requests):
            raise AssertionError("a malformed stack reached the kernel")

        monkeypatch.setattr(kernel, "_grouped_eval", no_sweep)
        with pytest.raises(ValueError):
            opt_for_part_many(costs, p, partitions, 7, initial_patterns=patterns)

    @pytest.mark.parametrize(
        "case", ["wrong-columns", "too-few", "no-candidates", "flat", "mixed-shapes"]
    )
    def test_grouped_request_rejected_before_any_sweep(self, monkeypatch, case):
        costs, p, partitions = self._batch()
        cols = partitions[0].n_cols
        patterns = {
            "wrong-columns": np.zeros((1, 3, cols + 1), dtype=np.uint8),
            "too-few": np.zeros((0, 3, cols), dtype=np.uint8),
            "no-candidates": np.zeros((1, 0, cols), dtype=np.uint8),
            "flat": np.zeros((3, cols), dtype=np.uint8),
            "mixed-shapes": np.zeros((2, 3, cols), dtype=np.uint8),
        }[case]
        chosen = partitions[:1]
        if case == "mixed-shapes":
            chosen = [partitions[0], random_partition(7, 4, np.random.default_rng(2))]

        def no_sweep(requests):
            raise AssertionError("a malformed request reached the kernel")

        monkeypatch.setattr(kernel, "_grouped_eval", no_sweep)
        with pytest.raises(ValueError):
            opt_for_part_grouped(
                [KernelRequest(KernelContext(costs, p, 7), chosen, patterns)]
            )

    @pytest.mark.parametrize("fast", [True, False])
    def test_grouped_int64_stack_returns_uint8_patterns(self, fast):
        costs, p, partitions = self._batch()
        stacked = draw_patterns(np.random.default_rng(5), partitions, 4)
        context = KernelContext(costs, p, 7)
        with caching.fast_paths(fast):
            # one pass each: a shared pass would stack both into one buffer
            [want], [got] = (
                opt_for_part_grouped([KernelRequest(context, partitions, stack)])
                for stack in (stacked, stacked.astype(np.int64))
            )
        for a, b in zip(want, got):
            assert b.pattern.dtype == np.uint8
            _same_result(a, b)

    @pytest.mark.parametrize("dtype", [np.int64, bool])
    @pytest.mark.parametrize("fast", [True, False])
    def test_wide_stack_returns_uint8_patterns(self, dtype, fast):
        costs, p, partitions = self._batch()
        stacked = draw_patterns(np.random.default_rng(5), partitions, 4)
        with caching.fast_paths(fast):
            want = opt_for_part_many(
                costs, p, partitions, 7, initial_patterns=stacked
            )
            got = opt_for_part_many(
                costs, p, partitions, 7, initial_patterns=stacked.astype(dtype)
            )
        for a, b in zip(want, got):
            assert b.pattern.dtype == np.uint8
            _same_result(a, b)

class TestPipelineBitExact:
    """Full algorithm runs reach the same bytes with fast paths on/off.

    ``DIGESTS`` are the sha256 of each run's :func:`_run_fingerprint`,
    captured from the serial reference search loops (one
    ``opt_for_part`` call per partition) before they were folded into
    the batched generations: both switch settings must still reach them.
    """

    CONFIG = AlgorithmConfig(
        bound_size=4,
        rounds=2,
        partition_limit=8,
        n_initial_patterns=4,
        n_beam=2,
        n_neighbours=3,
        nd_candidates=2,
    )

    DIGESTS = {
        ("bs-sa", "normal"): (
            "0fa76eb1a8babe19823217e7960f8dfdb33e4c5c8d76318882dae144e942f36c"
        ),
        ("bs-sa", "bto-normal"): (
            "f4da8b793b0e519c27802cfbe6beb5300c0b18828f69acdd8d3569f701cd63fa"
        ),
        ("bs-sa", "bto-normal-nd"): (
            "3ff5a955e138c56a119df1fe7768bde229a1d4db8cc63865a71855022d763f92"
        ),
        ("dalta", "normal"): (
            "86bcd807fbcd36bb07e24f8ebfe0d4b4c4b83b32b8b8367adf653a97f8551535"
        ),
    }

    def _run(self, algorithm, architecture, fast):
        rng = np.random.default_rng(2024)
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        with caching.fast_paths(fast):
            if algorithm == "dalta":
                return run_dalta(target, self.CONFIG, rng=rng)
            return run_bssa(
                target, self.CONFIG, rng=rng, architecture=architecture
            )

    @pytest.mark.parametrize("algorithm,architecture", sorted(DIGESTS))
    def test_fast_paths_do_not_change_results(self, algorithm, architecture):
        for fast in (True, False):
            result = self._run(algorithm, architecture, fast)
            digest = hashlib.sha256(repr(_run_fingerprint(result)).encode())
            assert digest.hexdigest() == self.DIGESTS[algorithm, architecture], fast

    def test_warm_process_rerun_is_identical(self):
        """A same-seed rerun in a warm process repeats the first run."""
        target = random_function(8, 3, np.random.default_rng(5), name="w")
        cold = run_bssa(target, self.CONFIG, rng=np.random.default_rng(31))
        warm = run_bssa(target, self.CONFIG, rng=np.random.default_rng(31))
        assert _run_fingerprint(cold) == _run_fingerprint(warm)
