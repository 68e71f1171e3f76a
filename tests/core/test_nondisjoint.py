"""Unit tests for non-disjoint decomposition (paper §IV-B1, Example 3)."""

import hashlib
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
from repro.core.opt_for_part import KernelContext
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


#: ND parents solved as views, by distribution: (build, n_inputs, the
#: sweep's totals dtype, None where the gate rejects the parent)
ND_CONTEXTS = {
    "uniform-12": (lambda: _cos_context(12, 11, "uniform", "mse"), 12, np.float64),
    "uniform-8": (lambda: _cos_context(8, 7, "uniform"), 8, np.float32),
    "sparse-bits": (lambda: _cos_context(10, 9, "sparse-bits"), 10, np.float64),
    "truncated-gaussian": (lambda: _cos_context(8, 6, "midtone-gaussian"), 8, None),
    "subnormal-half": (_subnormal_half_context, 6, None),
}


def nd_context(name):
    """``(costs, p, n_inputs, partition)`` of an ``ND_CONTEXTS`` entry."""
    build, n_inputs, totals = ND_CONTEXTS[name]
    costs, p = build()
    context = KernelContext(costs, p, n_inputs)
    admitted = context.verdict.reason is None
    assert (context.sweep_dtypes(1, 1)[1] if admitted else None) == totals
    bound = min(5, n_inputs - 2)
    partition = random_partition(n_inputs, bound, np.random.default_rng(n_inputs))
    return costs, p, n_inputs, partition


def switch_digests(solves):
    """``{fast: sha256}`` of ``solves`` run under each fast-path setting.

    Each solve gets a fresh ``default_rng(11)``; the digest covers every
    result's bytes (error, shared bits, patterns and types) and the
    generator's end state, so a changed draw order shows too.
    """
    digests = {}
    for fast in (True, False):
        digest = hashlib.sha256()
        with caching.fast_paths(fast):
            for solve in solves:
                rng = np.random.default_rng(11)
                record = (_result_bytes(solve(rng)), rng.bit_generator.state)
                digest.update(repr(record).encode())
        digests[fast] = digest.hexdigest()
    return digests


def _result_bytes(result):
    """An ND or multi-shared result as comparable bytes."""
    d = result.decomposition
    if hasattr(d, "patterns"):
        vectors = d.patterns + d.types
    else:
        vectors = (d.pattern0, d.types0, d.pattern1, d.types1)
    return (
        np.float64(result.error).tobytes(),
        result.shared,
        tuple(vector.tobytes() for vector in vectors),
    )


class TestFusedMatchesSerial:
    """The fused enumeration (halves as views of the parent context)
    reaches the bytes of the serial reference loop (one copied
    ``opt_for_part`` problem per half), captured as ``DIGESTS`` before
    that loop was deleted, under both fast-path settings."""

    DIGESTS = {
        "every-half": {
            "sparse-bits": (
                "507e6498b2835c7786aa8865e59fd7b3a57e00febfc5bad85a6cc95282167e3c"
            ),
            "subnormal-half": (
                "110ea2f51eb249937b6a837ce81beeaea97de5b39c0a27cdafa4f8ad6cc6ada6"
            ),
            "truncated-gaussian": (
                "0507cdfca2d4750c3b323c7a300e0607ee84461fc8496c27d39ca340ce27db5d"
            ),
            "uniform-12": (
                "590e7c3133de20a95c09e803aa1434c73be506cb983dcc0506e8407c4554196b"
            ),
            "uniform-8": (
                "863b5ccd0877b6b1db94a5a4738d5d0bdfc1670b429f03316271554e575149c1"
            ),
        },
        "inside-the-bound-range": {
            "truncated-gaussian": (
                "134231aa1aa303c33bd089bf2ad6e797571dec18e242bc16abb359fd96604612"
            ),
            "geometric": (
                "dcaeee723d734bede6282640a13473ad72cccda64acc2a3537a17702f5637848"
            ),
        },
    }

    @pytest.mark.parametrize("name", sorted(ND_CONTEXTS))
    def test_every_half_byte_identical(self, name):
        costs, p, n_inputs, partition = nd_context(name)
        digests = switch_digests(
            [
                lambda rng: optimize_nondisjoint(
                    costs, p, partition, n_inputs, n_initial_patterns=4, rng=rng
                )
            ]
        )
        want = self.DIGESTS["every-half"][name]
        assert digests == {True: want, False: want}

    @pytest.mark.parametrize("distribution", ["truncated-gaussian", "geometric"])
    def test_shared_bit_inside_the_bound_range(self, distribution):
        """Gate-rejected halves whose copied and sliced tables differ in
        layout: shared bit 5 of bound bits 3-6 at n = 7."""
        solves = []
        for seed in range(12):
            costs, p, n_inputs, partition = layout_context(distribution, seed)
            solves.append(
                lambda rng, costs=costs, p=p: optimize_nondisjoint(
                    costs, p, partition, n_inputs,
                    n_initial_patterns=4, rng=rng, shared_candidates=[5],
                )
            )
        want = self.DIGESTS["inside-the-bound-range"][distribution]
        assert switch_digests(solves) == {True: want, False: want}


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
    assert ofp._gate(costs, p).reason is not None
    return costs, p, n_inputs, Partition((0, 1, 2), (3, 4, 5, 6))
