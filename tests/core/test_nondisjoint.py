"""Unit tests for non-disjoint decomposition (paper §IV-B1, Example 3)."""

import importlib

import numpy as np
import pytest

from repro import caching, workloads
from repro.boolean import Partition, random_partition
from repro.core import (
    BitCosts,
    cost_vectors_fixed,
    opt_for_part_exhaustive,
    optimize_nondisjoint,
    optimize_nondisjoint_shared,
    rest_word,
)
from repro.core.cost import apply_objective
from repro.experiments.distribution_study import _make_distribution
from repro.metrics import distributions, med

from ..conftest import random_bits

ofp = importlib.import_module("repro.core.opt_for_part")


def _costs_for(bits: np.ndarray):
    bits = np.asarray(bits, dtype=np.int64)
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


class TestSharedBitFixed:
    def test_error_matches_decomposition(self, rng):
        """Reported ND error equals the MED of the built decomposition."""
        n = 5
        bits = random_bits(n, rng)
        costs = _costs_for(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = optimize_nondisjoint_shared(
            costs, p, partition, n, shared=1, n_initial_patterns=10, rng=rng
        )
        approx = result.decomposition.evaluate(n)
        assert result.error == pytest.approx(med(bits, approx, p))

    def test_example3_structure(self, rng):
        """Example 3's setup: A = {x4, x5}, B = {x1, x2, x3}, shared x2.

        The two halves must be disjoint decompositions of the cofactors
        on the reduced space, combined per Eq. (1).
        """
        n = 5
        bits = random_bits(n, rng)
        costs = _costs_for(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = optimize_nondisjoint_shared(
            costs, p, partition, n, shared=1, n_initial_patterns=10, rng=rng
        )
        dec = result.decomposition
        assert dec.shared == 1
        assert dec.reduced_bound == (0, 2)
        half0, half1 = dec.halves()
        # halves live on the 4-variable reduced space with A = {x4, x5}
        assert half0.partition.free == (2, 3)
        assert half0.partition.bound == (0, 1)
        # Eq. (1): restriction to x2 = j equals half j
        f = dec.evaluate(n)
        for x in range(1 << n):
            j = (x >> 1) & 1
            reduced = (x & 1) | (((x >> 2)) << 1)
            assert f[x] == (half1 if j else half0).evaluate(4)[reduced]

    def test_rejects_nonbound_shared(self, rng):
        bits = random_bits(4, rng)
        costs = _costs_for(bits)
        p = distributions.uniform(4)
        partition = Partition((2, 3), (0, 1))
        with pytest.raises(ValueError):
            optimize_nondisjoint_shared(costs, p, partition, 4, shared=3, rng=rng)


def _nd_oracle_error(costs, p, partition, n, shared):
    """Exact optimal ND error for one shared bit (exhaustive halves)."""
    from repro.boolean import ops
    from repro.core import BitCosts

    keep = [i for i in range(n) if i != shared]
    reduced_words = ops.all_inputs(n - 1)
    reduced_partition = Partition(
        tuple(v - 1 if v > shared else v for v in partition.free),
        tuple(v - 1 if v > shared else v for v in partition.bound if v != shared),
    )
    total = 0.0
    for j in (0, 1):
        full = ops.deposit_bits(reduced_words, keep) | (j << shared)
        half_costs = BitCosts(0, costs.cost0[full], costs.cost1[full])
        total += opt_for_part_exhaustive(
            half_costs, p[full], reduced_partition, n - 1
        ).error
    return total


class TestSharedBitEnumeration:
    def test_picks_best_shared(self, rng):
        """With generous restarts on a tiny space, the enumeration must
        land on the exhaustive-oracle optimum over shared bits."""
        n = 5
        bits = random_bits(n, rng)
        costs = _costs_for(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        best = optimize_nondisjoint(
            costs, p, partition, n, n_initial_patterns=64, rng=rng
        )
        oracle = min(
            _nd_oracle_error(costs, p, partition, n, shared)
            for shared in partition.bound
        )
        assert best.error == pytest.approx(oracle)

    def test_candidate_restriction(self, rng):
        n = 5
        bits = random_bits(n, rng)
        costs = _costs_for(bits)
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        result = optimize_nondisjoint(
            costs, p, partition, n, rng=rng, shared_candidates=[2]
        )
        assert result.shared == 2

    def test_empty_candidates_rejected(self, rng):
        bits = random_bits(4, rng)
        costs = _costs_for(bits)
        with pytest.raises(ValueError):
            optimize_nondisjoint(
                costs,
                distributions.uniform(4),
                Partition((2, 3), (0, 1)),
                4,
                rng=rng,
                shared_candidates=[],
            )


class TestNdGeneralizesDisjoint:
    def test_nd_at_least_as_good_as_disjoint_oracle(self, rng):
        """ND with any shared bit can represent the disjoint optimum,
        so the exhaustively-optimised halves must not be worse."""
        n = 5
        p = distributions.uniform(n)
        partition = Partition((3, 4), (0, 1, 2))
        for _ in range(5):
            bits = random_bits(n, rng)
            costs = _costs_for(bits)
            disjoint = opt_for_part_exhaustive(costs, p, partition, n)
            # exhaustive halves: bound size 2 <= 4, oracle is exact
            from repro.boolean import ops

            best_nd = np.inf
            for shared in partition.bound:
                keep = [i for i in range(n) if i != shared]
                reduced_words = ops.all_inputs(n - 1)
                total = 0.0
                for j in (0, 1):
                    full = ops.deposit_bits(reduced_words, keep) | (j << shared)
                    from repro.core import BitCosts

                    half_costs = BitCosts(0, costs.cost0[full], costs.cost1[full])
                    reduced_partition = Partition(
                        tuple(v - 1 if v > shared else v for v in partition.free),
                        tuple(
                            v - 1 if v > shared else v
                            for v in partition.bound
                            if v != shared
                        ),
                    )
                    half = opt_for_part_exhaustive(
                        half_costs, p[full], reduced_partition, n - 1
                    )
                    total += half.error
                best_nd = min(best_nd, total)
            assert best_nd <= disjoint.error + 1e-9



def _cos_context(n_inputs, k, distribution, objective="med"):
    target = workloads.get("cos", n_inputs)
    costs = cost_vectors_fixed(target, rest_word(target.table, k), k)
    return apply_objective(costs, objective), _make_distribution(distribution, n_inputs)


def _subnormal_half_context():
    """Mass 1/32 on even words, 2**-1074 on odd ones (U = -1074 parent)."""
    rng = np.random.default_rng(3)
    words = np.arange(64)
    p = distributions.validate(np.where(words % 2 == 0, 1.0 / 32.0, 5e-324), 6)
    costs = BitCosts(
        0,
        rng.integers(0, 4, 64).astype(np.float64),
        rng.integers(0, 4, 64).astype(np.float64),
    )
    return costs, p


#: ND parents solved as views, by distribution: (build, n_inputs, gate tier)
ND_CONTEXTS = {
    "uniform-12": (lambda: _cos_context(12, 11, "uniform", "mse"), 12, "f64"),
    "uniform-8": (lambda: _cos_context(8, 7, "uniform"), 8, "f32"),
    "sparse-bits": (lambda: _cos_context(10, 9, "sparse-bits"), 10, "f64"),
    "truncated-gaussian": (lambda: _cos_context(8, 6, "midtone-gaussian"), 8, None),
    "subnormal-half": (_subnormal_half_context, 6, None),
}


def nd_context(name):
    """``(costs, p, n_inputs, partition)`` of an ``ND_CONTEXTS`` entry."""
    build, n_inputs, tier = ND_CONTEXTS[name]
    costs, p = build()
    assert ofp._gate(costs, p).tier == tier
    bound = min(5, n_inputs - 2)
    partition = random_partition(n_inputs, bound, np.random.default_rng(n_inputs))
    return costs, p, n_inputs, partition


def run_fused_and_serial(solve):
    """``solve(rng)`` with the fast paths on (fused) and off (serial).

    Both sides start from the same seed and must leave the generator in
    the same state.
    """
    results, states = [], []
    for fast in (True, False):
        rng = np.random.default_rng(11)
        with caching.fast_paths(fast):
            results.append(solve(rng))
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]
    return results


class TestFusedMatchesSerial:
    """The fused enumeration (halves as views of the parent context)
    is byte-identical to the serial reference loop."""

    @pytest.mark.parametrize("name", sorted(ND_CONTEXTS))
    def test_every_half_byte_identical(self, name):
        costs, p, n_inputs, partition = nd_context(name)
        fused, serial = run_fused_and_serial(
            lambda rng: optimize_nondisjoint(
                costs, p, partition, n_inputs, n_initial_patterns=4, rng=rng
            )
        )
        _assert_same_nd(fused, serial)

    @pytest.mark.parametrize("distribution", ["truncated-gaussian", "geometric"])
    def test_shared_bit_inside_the_bound_range(self, distribution):
        """Gate-rejected halves whose copied and sliced tables differ in
        layout: shared bit 5 of bound bits 3-6 at n = 7."""
        for seed in range(12):
            costs, p, n_inputs, partition = layout_context(distribution, seed)
            fused, serial = run_fused_and_serial(
                lambda rng: optimize_nondisjoint(
                    costs, p, partition, n_inputs,
                    n_initial_patterns=4, rng=rng, shared_candidates=[5],
                )
            )
            _assert_same_nd(fused, serial)


def layout_context(distribution, seed):
    """A gate-rejected n = 7 context with bound bits 3-6 above the free
    bits: its tables are column-major views of the weight grid."""
    n_inputs = 7
    if distribution == "truncated-gaussian":
        p = distributions.truncated_gaussian(n_inputs, mean=0.45, std=0.2)
    else:
        p = distributions.geometric_bit(n_inputs, p_one=0.3)
    rng = np.random.default_rng(seed)
    costs = BitCosts(
        0,
        rng.integers(0, 50, 1 << n_inputs).astype(np.float64),
        rng.integers(0, 50, 1 << n_inputs).astype(np.float64),
    )
    assert ofp._gate(costs, p).tier is None
    return costs, p, n_inputs, Partition((0, 1, 2), (3, 4, 5, 6))


def _assert_same_nd(fused, serial):
    assert np.float64(fused.error).tobytes() == np.float64(serial.error).tobytes()
    assert fused.shared == serial.shared
    for field in ("pattern0", "types0", "pattern1", "types1"):
        assert (
            getattr(fused.decomposition, field).tobytes()
            == getattr(serial.decomposition, field).tobytes()
        ), field
