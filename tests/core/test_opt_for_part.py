"""Unit tests for the OptForPart kernel."""

import numpy as np
import pytest

from repro import caching
from repro.boolean import Partition, RowType, random_partition
from repro.core import (
    BitCosts,
    cost_vectors_fixed,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_exhaustive,
    opt_for_part_exhaustive_many,
    opt_for_part_many,
    optimize_multi_shared,
    optimize_nondisjoint,
)
from repro.core.opt_for_part import (
    KernelContext,
    KernelRequest,
    opt_for_part_grouped,
)
from repro.metrics import distributions

from ..conftest import random_bits


def _single_bit_costs(bits: np.ndarray) -> BitCosts:
    """Costs for approximating a 1-output function directly."""
    bits = np.asarray(bits, dtype=np.int64)
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


class TestConsistency:
    def test_reported_error_matches_decomposition(self, rng):
        """E must equal the recomputed weighted cost of (ω, V, T)."""
        n = 6
        p = distributions.uniform(n)
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        partition = Partition((3, 4, 5), (0, 1, 2))
        result = opt_for_part(
            costs, p, partition, n, n_initial_patterns=8, rng=rng
        )
        recomputed = costs.evaluate(result.decomposition.evaluate(n), p)
        assert result.error == pytest.approx(recomputed)

    def test_error_bounded_by_input_size(self, rng):
        n = 5
        p = distributions.uniform(n)
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        partition = Partition((2, 3, 4), (0, 1))
        result = opt_for_part(costs, p, partition, n, rng=rng)
        assert 0.0 <= result.error <= 1.0

    def test_decomposable_function_reaches_zero(self, rng):
        """When an exact decomposition exists, OptForPart must find E=0."""
        from repro.boolean import DisjointDecomposition

        partition = Partition((3, 4, 5), (0, 1, 2))
        pattern = rng.integers(0, 2, size=8).astype(np.uint8)
        pattern[0] = 1  # ensure non-constant structure survives
        types = rng.integers(1, 5, size=8).astype(np.int8)
        bits = DisjointDecomposition(partition, pattern, types).evaluate(6)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(6)
        result = opt_for_part(
            costs, p, partition, 6, n_initial_patterns=20, rng=rng
        )
        assert result.error == pytest.approx(0.0)
        assert result.decomposition.evaluate(6).tolist() == bits.tolist()


class TestAgainstExhaustiveOracle:
    def test_never_beats_oracle(self, rng):
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        partitions = [random_partition(n, 3, rng) for _ in range(5)]
        heuristics = opt_for_part_many(
            costs, p, partitions, n, n_initial_patterns=10, rng=rng
        )
        oracles = opt_for_part_exhaustive_many(costs, p, partitions, n)
        for heuristic, oracle in zip(heuristics, oracles):
            assert heuristic.error >= oracle.error - 1e-12

    def test_usually_matches_oracle(self, rng):
        """With generous restarts the alternation finds the optimum."""
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        partitions = [random_partition(n, 2, rng) for _ in range(10)]
        heuristics = opt_for_part_many(
            costs, p, partitions, n, n_initial_patterns=16, rng=rng
        )
        oracles = opt_for_part_exhaustive_many(costs, p, partitions, n)
        hits = sum(
            heuristic.error <= oracle.error + 1e-12
            for heuristic, oracle in zip(heuristics, oracles)
        )
        assert hits >= len(partitions) - 2

    def test_batched_oracle_matches_serial(self, rng):
        """``exhaustive_many`` equals a loop of single calls, bit for bit."""
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        partitions = [random_partition(n, 3, rng) for _ in range(4)]
        batched = opt_for_part_exhaustive_many(costs, p, partitions, n)
        for partition, item in zip(partitions, batched):
            serial = opt_for_part_exhaustive(costs, p, partition, n)
            assert item.error == serial.error
            assert np.array_equal(item.pattern, serial.pattern)
            assert np.array_equal(item.types, serial.types)

    def test_batched_oracle_rejects_mixed_shapes(self, rng):
        n = 5
        p = distributions.uniform(n)
        costs = _single_bit_costs(random_bits(n, rng))
        mixed = [Partition((3, 4), (0, 1, 2)), Partition((2, 3, 4), (0, 1))]
        with pytest.raises(ValueError, match="shape"):
            opt_for_part_exhaustive_many(costs, p, mixed, n)

    def test_exhaustive_refuses_large_bound(self, rng):
        costs = _single_bit_costs(random_bits(6, rng))
        with pytest.raises(ValueError, match="refused"):
            opt_for_part_exhaustive(
                costs, distributions.uniform(6), Partition((5,), (0, 1, 2, 3, 4)), 6
            )


class TestBtoVariant:
    def test_types_all_pattern(self, rng):
        n = 5
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = opt_for_part_bto(costs, p, partition, n)
        assert np.all(result.decomposition.types == RowType.PATTERN)
        assert result.decomposition.mode == "bto"

    def test_bto_is_exact_per_column(self, rng):
        """The BTO optimum is the true optimum among all-type-3 settings."""
        n = 5
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = opt_for_part_bto(costs, p, partition, n)
        # enumerate all 2^8 pattern vectors
        best = np.inf
        for v in range(1 << partition.n_cols):
            pattern = np.array(
                [(v >> c) & 1 for c in range(partition.n_cols)], dtype=np.uint8
            )
            from repro.boolean import BoundOnlyDecomposition

            candidate = BoundOnlyDecomposition(partition, pattern)
            best = min(best, costs.evaluate(candidate.evaluate(n), p))
        assert result.error == pytest.approx(best)

    def test_bto_never_better_than_normal_oracle(self, rng):
        n = 5
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        bto = opt_for_part_bto(costs, p, partition, n)
        oracle = opt_for_part_exhaustive(costs, p, partition, n)
        assert bto.error >= oracle.error - 1e-12


class TestParameters:
    def test_rejects_zero_patterns(self, rng):
        costs = _single_bit_costs(random_bits(4, rng))
        with pytest.raises(ValueError):
            opt_for_part(
                costs,
                distributions.uniform(4),
                Partition((2, 3), (0, 1)),
                4,
                n_initial_patterns=0,
                rng=rng,
            )

    def test_weighted_distribution_respected(self, rng):
        """Inputs with zero probability should not constrain the fit."""
        n = 4
        bits = random_bits(n, rng)
        costs = _single_bit_costs(bits)
        partition = Partition((2, 3), (0, 1))
        # all mass on inputs where the function is 0
        p = np.where(bits == 0, 1.0, 0.0)
        p = p / p.sum()
        result = opt_for_part(costs, p, partition, n, rng=rng)
        assert result.error == pytest.approx(0.0)


_N = 6
_PARTITION = Partition((3, 4, 5), (0, 1, 2))

#: every kernel entry point, as ``(costs, p, n_inputs) -> result``
_ENTRY_POINTS = {
    "opt_for_part": lambda costs, p, n: opt_for_part(
        costs, p, _PARTITION, n, n_initial_patterns=2,
        rng=np.random.default_rng(0),
    ),
    "opt_for_part_many": lambda costs, p, n: opt_for_part_many(
        costs, p, [_PARTITION], n, n_initial_patterns=2,
        rng=np.random.default_rng(0),
    ),
    "opt_for_part_bto": lambda costs, p, n: opt_for_part_bto(
        costs, p, _PARTITION, n
    ),
    "opt_for_part_grouped": lambda costs, p, n: opt_for_part_grouped(
        [
            KernelRequest(
                KernelContext(costs, p, n),
                [_PARTITION],
                np.zeros((1, 2, _PARTITION.n_cols), dtype=np.uint8),
            )
        ]
    ),
    "nondisjoint-fused": lambda costs, p, n: optimize_nondisjoint(
        costs, p, _PARTITION, n, n_initial_patterns=2,
        rng=np.random.default_rng(0),
    ),
    "nondisjoint-no-rng": lambda costs, p, n: optimize_nondisjoint(
        costs, p, _PARTITION, n, n_initial_patterns=2
    ),
    "multi-shared-fused": lambda costs, p, n: optimize_multi_shared(
        costs, p, _PARTITION, n, [0, 2], n_initial_patterns=2,
        rng=np.random.default_rng(0),
    ),
    "multi-shared-no-rng": lambda costs, p, n: optimize_multi_shared(
        costs, p, _PARTITION, n, [0, 2], n_initial_patterns=2
    ),
}

#: malformed ``(p, n_inputs)`` against 64-entry cost vectors
_MALFORMED = {
    "scalar-p": (np.float64(1 / 64), _N),
    "2d-p": (np.full((8, 8), 1 / 64), _N),
    "short-p": (np.full(32, 1 / 32), _N),
    "wrong-n_inputs": (distributions.uniform(_N), _N + 1),
}


class TestShapeValidation:
    """Every entry point names the expected shape of a malformed context."""

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_malformed_context_rejected(self, entry, case, fast):
        costs = _single_bit_costs(random_bits(_N, np.random.default_rng(1)))
        p, n_inputs = _MALFORMED[case]
        expected = rf"expected \({1 << n_inputs},\)"
        with caching.fast_paths(fast), pytest.raises(ValueError, match=expected):
            _ENTRY_POINTS[entry](costs, p, n_inputs)

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_well_formed_context_accepted(self, entry):
        costs = _single_bit_costs(random_bits(_N, np.random.default_rng(1)))
        _ENTRY_POINTS[entry](costs, distributions.uniform(_N), _N)

    def test_cost_vectors_are_checked(self):
        costs = _single_bit_costs(random_bits(_N, np.random.default_rng(1)))
        short = BitCosts(0, costs.cost0[:32], costs.cost1)
        with pytest.raises(ValueError, match=r"cost0 has shape \(32,\)"):
            KernelContext(short, distributions.uniform(_N), _N)
