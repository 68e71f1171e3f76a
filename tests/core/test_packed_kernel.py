"""Differential harness for the exact sweep and its exactness gate.

Production runs the exact sweep — restructured arithmetic (diff-matrix
matmuls, relative row costs, half-scaled sign products) — on every
instance the dyadic-exactness gate admits, and the serial reference
elsewhere.  Under the gate the sweep must be *byte-exact*: every error,
pattern byte, type byte and consumed rng draw identical to the
reference (``caching.fast_paths(False)``).  These tests pin that
contract at three levels — single kernel calls across sweep budgets,
full algorithm runs across all three architectures, and gate-rejected
batches — plus the gate itself, hardest at its boundaries, and the
packed shared-memory arena pages.
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import caching, workloads
from repro.boolean import Partition, ops, random_partition
from repro.core import (
    AlgorithmConfig,
    BitCosts,
    cost_vectors_fixed,
    memo_context,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_many,
    rest_word,
    run_bssa,
    run_dalta,
)
from repro.core.cost import apply_objective
from repro.core.nondisjoint import optimize_nondisjoint
from repro.core.opt_for_part import (
    KernelContext,
    KernelRequest,
    opt_for_part_grouped,
)
from repro.experiments.distribution_study import DISTRIBUTIONS, _make_distribution
from repro.metrics import distributions

from ..conftest import random_bits, random_function
from .test_fast_paths import _run_fingerprint, _same_result
from .test_fusion import _production_vs_reference

ofp = importlib.import_module("repro.core.opt_for_part")


@pytest.fixture(autouse=True)
def fresh_caches():
    caching.clear_caches()
    yield
    caching.clear_caches()


def _uniform_instance(n_inputs, seed):
    """Integer costs + uniform p: the gate's eligible regime."""
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    return costs, distributions.uniform(n_inputs)


class TestEligibilityGate:
    def test_uniform_integer_instance_is_eligible(self):
        costs, p = _uniform_instance(8, seed=0)
        assert ofp._exact_tier(costs, p) is not None

    def test_non_uniform_distribution_is_rejected(self):
        costs, _ = _uniform_instance(6, seed=1)
        raw = np.random.default_rng(1).random(1 << 6) + 1e-3
        assert ofp._exact_tier(costs, raw / raw.sum()) is None

    def test_fractional_costs_are_rejected(self):
        costs, p = _uniform_instance(5, seed=2)
        fractional = BitCosts(costs.k, costs.cost0 + 0.5, costs.cost1)
        assert ofp._exact_tier(fractional, p) is None

    def test_negative_costs_are_rejected(self):
        costs, p = _uniform_instance(5, seed=3)
        negative = BitCosts(costs.k, costs.cost0 - 1.0, costs.cost1)
        assert ofp._exact_tier(negative, p) is None

    def test_magnitude_overflow_is_rejected(self):
        """Sums that could leave the exact-integer float range bail out."""
        costs, p = _uniform_instance(5, seed=4)
        huge = BitCosts(costs.k, costs.cost0 + 2.0**53, costs.cost1)
        assert ofp._exact_tier(huge, p) is None

    def test_empty_distribution_is_rejected(self):
        costs, _ = _uniform_instance(4, seed=5)
        assert ofp._exact_tier(costs, np.empty(0)) is None

    def test_memo_caches_the_verdict(self):
        costs, p = _uniform_instance(7, seed=6)
        memo = memo_context(costs, p)
        assert memo.context is None
        context = ofp._context(costs, p, 7, memo)
        assert memo.context is context
        assert ofp._engaged_tier(context)
        assert context.tier == ofp._exact_tier(costs, p)
        # later kernel calls reuse the context: the verdict and the
        # weighted grids are computed once per memo
        assert ofp._context(costs, p, 7, memo) is context
        opt_for_part_bto(costs, p, Partition((3, 4, 5, 6), (0, 1, 2)), 7, memo=memo)
        assert memo.context is context

    def test_fast_paths_off_engages_nothing(self):
        costs, p = _uniform_instance(7, seed=6)
        with caching.fast_paths(False):
            assert ofp._engaged_tier(KernelContext(costs, p, 7)) is None


# ----------------------------------------------------------------------
# The gate at its boundaries.  Each case fixes the exact integer total
# T = sum_i (cost0_i + cost1_i) * w_i and the dyadic unit U of
# p_i = w_i * 2**U; a case runs with one constant weight (the protocol
# default, the gate's closed form) and with alternating weights 1 and 2
# (the gate's weighted popcounts).
# ----------------------------------------------------------------------

_N = 4


def _instance(total, weights, unit=0, seed=0):
    """Integer costs over ``2**_N`` entries whose exact T is ``total``.

    ``weights[0]`` must be 1: entry 0 absorbs the remainder.
    """
    rng = np.random.default_rng(seed)
    w = np.resize(np.asarray(weights, dtype=np.int64), 1 << _N)
    assert w[0] == 1
    comb = np.zeros(1 << _N, dtype=np.int64)
    comb[1:] = rng.integers(0, 1 + total // (4 * int(w.sum())), size=(1 << _N) - 1)
    comb[0] = total - int((comb[1:] * w[1:]).sum())
    cost1 = (comb * rng.random(1 << _N)).astype(np.int64)
    costs = BitCosts(0, (comb - cost1).astype(np.float64), cost1.astype(np.float64))
    return costs, np.ldexp(w.astype(np.float64), unit)


_WEIGHTS = {"constant": (1,), "weighted": (1, 2)}

_BOUNDARIES = [
    # (T, U, tier)
    ((1 << 24) - 1, 0, "f32"),
    (1 << 24, 0, "f64"),
    (1000, -37, "f32"),
    (1000, -38, "f64"),
    ((1 << 52) - 1, 0, "f64"),
    (1 << 52, 0, None),
    # the msign half-step needs the unit 2**(U-1): a float at U = -1073
    # (the least subnormal), not at U = -1074
    (1000, -1073, "f64"),
    (1000, -1074, None),
]


def _same_as_reference(costs, p, seed=3):
    on, off = _production_vs_reference(costs, p, _N, 2, 3, seed=seed)
    for a, b in zip(on, off):
        _same_result(a, b)


class TestGateBoundaries:
    @pytest.mark.parametrize("shape", sorted(_WEIGHTS))
    @pytest.mark.parametrize("total,unit,tier", _BOUNDARIES)
    def test_total_and_unit_boundaries(self, shape, total, unit, tier):
        costs, p = _instance(total, _WEIGHTS[shape], unit)
        assert ofp._exact_tier(costs, p) == tier
        _same_as_reference(costs, p)

    @pytest.mark.parametrize(
        "p0,tier",
        [
            (1.0 - 2.0**-53, None),  # odd part 2**53 - 1: T >= 2**52
            (1.0 - 2.0**-52, "f64"),  # odd part 2**52 - 1: T < 2**52
        ],
    )
    def test_constant_weight_bit_budget(self, p0, tier):
        cost0 = np.zeros(1 << _N)
        cost0[5] = 1.0
        costs = BitCosts(0, cost0, np.zeros(1 << _N))
        assert ofp._exact_tier(costs, np.full(1 << _N, p0)) == tier
        _same_as_reference(costs, np.full(1 << _N, p0))

    @pytest.mark.parametrize(
        "small,tier",
        [
            (2.0**-51, None),  # 3 on a 2**-51 unit: 3 * 2**51 needs 53 bits
            (2.0**-50, "f64"),  # 3 * 2**50 needs 52 bits
        ],
    )
    def test_common_unit_bit_budget(self, small, tier):
        p = np.resize([3.0, small], 1 << _N)
        cost0 = np.zeros(1 << _N)
        cost0[:2] = [1.0, 5.0]
        costs = BitCosts(0, cost0, np.zeros(1 << _N))
        assert ofp._exact_tier(costs, p) == tier
        _same_as_reference(costs, p)

    def test_zero_weight_supports_are_ignored(self):
        """Huge costs at p = 0 and 1/3 at zero cost never reach T."""
        p = np.resize([0.5, 0.0, 0.25, 1.0 / 3.0], 1 << _N)
        cost0 = np.resize([3.0, 2.0**60, 1.0, 0.0], 1 << _N)
        cost1 = np.resize([1.0, 0.0, 4.0, 0.0], 1 << _N)
        costs = BitCosts(0, cost0, cost1)
        assert ofp._exact_tier(costs, p) == "f32"
        _same_as_reference(costs, p)

    @pytest.mark.parametrize("p0", [1.0 / 3.0, 0.0])
    def test_all_zero_support_is_exact(self, p0):
        rng = np.random.default_rng(7)
        if p0:
            # no cost at all: every product is 0.0 whatever p is
            costs = BitCosts(0, np.zeros(1 << _N), np.zeros(1 << _N))
            p = np.full(1 << _N, p0)
        else:
            costs = BitCosts(
                0,
                rng.integers(0, 9, 1 << _N).astype(np.float64),
                rng.integers(0, 9, 1 << _N).astype(np.float64),
            )
            p = np.zeros(1 << _N)
        assert ofp._exact_tier(costs, p) == "f32"
        _same_as_reference(costs, p)

    @pytest.mark.parametrize("unit", [-1073, -1074])
    def test_subnormal_unit_matches_reference(self, unit):
        """Constant ``p = 2**U``: every seed agrees with the reference."""
        n_inputs = 6
        p = np.full(1 << n_inputs, 2.0**unit)
        for seed in range(12):
            rng = np.random.default_rng(seed)
            costs = BitCosts(
                0,
                rng.integers(0, 4, 1 << n_inputs).astype(np.float64),
                rng.integers(0, 4, 1 << n_inputs).astype(np.float64),
            )
            on, off = _production_vs_reference(costs, p, n_inputs, 3, 3, seed)
            for a, b in zip(on, off):
                _same_result(a, b)

    def test_subnormal_half_through_nondisjoint(self):
        """An ND half whose conditional weights are all ``2**-1074``."""
        n_inputs = 6
        words = np.arange(1 << n_inputs)
        p = distributions.validate(
            np.where(words % 2 == 0, 1.0 / 32.0, 5e-324), n_inputs
        )
        partition = Partition((3, 4, 5), (0, 1, 2))
        for seed in range(12):
            rng = np.random.default_rng(seed)
            costs = BitCosts(
                0,
                rng.integers(0, 4, 1 << n_inputs).astype(np.float64),
                rng.integers(0, 4, 1 << n_inputs).astype(np.float64),
            )
            results = []
            for fast in (True, False):
                caching.clear_caches()
                with caching.fast_paths(fast):
                    results.append(
                        optimize_nondisjoint(
                            costs,
                            p,
                            partition,
                            n_inputs,
                            n_initial_patterns=4,
                            rng=np.random.default_rng(seed + 1),
                            shared_candidates=(0,),
                        )
                    )
            on, off = results
            assert on.error == off.error, seed
            for name in ("pattern0", "types0", "pattern1", "types1"):
                assert (
                    getattr(on.decomposition, name).tobytes()
                    == getattr(off.decomposition, name).tobytes()
                ), (seed, name)

    @pytest.mark.parametrize("shape", sorted(_WEIGHTS))
    @pytest.mark.parametrize(
        "bad", ["fractional", "negative", "nan", "inf"]
    )
    def test_rejects_non_integer_or_negative_costs(self, shape, bad):
        costs, p = _instance(1000, _WEIGHTS[shape])
        cost0 = costs.cost0.copy()
        cost0[3] = {"fractional": cost0[3] + 0.5, "negative": -1.0,
                    "nan": np.nan, "inf": np.inf}[bad]
        assert ofp._exact_tier(BitCosts(0, cost0, costs.cost1), p) is None


# ----------------------------------------------------------------------
# Verdict inheritance: an ND half is solved as a view of its parent's
# context and runs the parent's tier.  That is sound because a cofactor
# is always admitted at least as fast as its parent (its weights are a
# subset: U can only rise, T only fall).
# ----------------------------------------------------------------------

_SPEED = {None: 0, "f64": 1, "f32": 2}


def _boundary_contexts():
    """Every TestGateBoundaries instance, as ``(id, costs, p)``."""
    for shape, weights in sorted(_WEIGHTS.items()):
        for total, unit, _ in _BOUNDARIES:
            yield f"T={total},U={unit},{shape}", *_instance(total, weights, unit)
    single = np.zeros(1 << _N)
    single[5] = 1.0
    for p0 in (1.0 - 2.0**-53, 1.0 - 2.0**-52):
        yield f"p0={p0!r}", BitCosts(0, single, np.zeros(1 << _N)), np.full(1 << _N, p0)
    pair = np.zeros(1 << _N)
    pair[:2] = [1.0, 5.0]
    for small in (2.0**-51, 2.0**-50):
        yield (
            f"small={small!r}",
            BitCosts(0, pair, np.zeros(1 << _N)),
            np.resize([3.0, small], 1 << _N),
        )
    yield (
        "zero-weight-supports",
        BitCosts(
            0,
            np.resize([3.0, 2.0**60, 1.0, 0.0], 1 << _N),
            np.resize([1.0, 0.0, 4.0, 0.0], 1 << _N),
        ),
        np.resize([0.5, 0.0, 0.25, 1.0 / 3.0], 1 << _N),
    )


def _assert_cofactors_inherit(costs, p, n_inputs):
    """Each one-bit cofactor: gated at least as fast, views equal copies."""
    parent = ofp._exact_tier(costs, p)
    context = KernelContext(costs, p, n_inputs)
    for bit in range(n_inputs):
        for value in (0, 1):
            fixed = {bit: value}
            half_costs = BitCosts(
                costs.k,
                ops.cofactor(costs.cost0, n_inputs, fixed),
                ops.cofactor(costs.cost1, n_inputs, fixed),
            )
            half_p = ops.cofactor(p, n_inputs, fixed)
            assert _SPEED[ofp._exact_tier(half_costs, half_p)] >= _SPEED[parent], (
                fixed
            )
            view = context.cofactor(fixed)
            assert view.tier == parent
            copied = KernelContext(half_costs, half_p, n_inputs - 1)
            for got, want in zip(view.weights(), copied.weights()):
                assert got.tobytes() == want.tobytes()
            if parent:
                got_diff, got_zero = view.exact_weights()
                want_diff, want_zero = copied.exact_weights()
                assert got_diff.astype(want_diff.dtype).tobytes() == want_diff.tobytes()
                assert got_zero == want_zero


@st.composite
def _any_context(draw):
    """Integer or fractional costs; dyadic weights from 1 to 53 bits."""
    n_inputs = draw(st.integers(2, 6), label="n_inputs")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    size = 1 << n_inputs
    cost_top = draw(st.sampled_from([1, 7, 255, 1 << 24, 1 << 51]), label="cost_top")
    cost0, cost1 = (
        rng.integers(0, cost_top + 1, size).astype(np.float64) for _ in range(2)
    )
    if draw(st.booleans(), label="fractional"):
        cost0[rng.integers(size)] += 0.5
    weight_bits = draw(st.sampled_from([1, 4, 12, 24, 25, 52, 53]), label="bits")
    if draw(st.booleans(), label="constant"):
        weights = np.full(size, int(rng.integers(1, 1 << weight_bits)))
    else:
        weights = rng.integers(0, 1 << weight_bits, size, dtype=np.int64)
        weights[rng.random(size) < draw(st.sampled_from([0.0, 0.5]))] = 0
    unit = draw(
        st.sampled_from([0, -24, -37, -38, -1022, -1073, -1074])
        | st.integers(-1074, 8),
        label="unit",
    )
    p = np.ldexp(weights.astype(np.float64), unit)
    return BitCosts(0, cost0, cost1), p, n_inputs


class TestVerdictInheritance:
    @pytest.mark.parametrize(
        "case", list(_boundary_contexts()), ids=lambda case: case[0]
    )
    def test_boundary_cofactors_inherit(self, case):
        _, costs, p = case
        _assert_cofactors_inherit(costs, p, _N)

    @settings(max_examples=150, deadline=None)
    @given(_any_context())
    def test_drawn_cofactors_inherit(self, drawn):
        _assert_cofactors_inherit(*drawn)


# ----------------------------------------------------------------------
# The gate on real contexts: cos at 4-16 bits, every output bit's
# fixed-rest cost vectors, both objectives, the three distributions of
# the distribution study.  Verdicts are spelled one character per
# output bit: "3" = f32, "6" = f64, "-" = reference.
# ----------------------------------------------------------------------

_VERDICTS = {
    ("uniform", "med"): (
        "3333", "33333", "333333", "3333333", "33333333", "333333333",
        "3333333333", "33333333333", "333333333333", "3333333333366",
        "33333333336666", "333333333666666", "3333333366666666",
    ),
    ("uniform", "mse"): (
        "3333", "33333", "333333", "3333333", "33333333", "333333336",
        "3333333666", "33333336666", "333333666666", "3333336666666",
        "33333666666666", "333336666666666", "3333666666666666",
    ),
    ("sparse-bits", "med"): (
        "3333", "33333", "333333", "3333333", "33333333", "333333666",
        "3333666666", "33666666666", "666666666666", "6666666666666",
        "66666666666666", "666666666666666", "6666666666666666",
    ),
    ("sparse-bits", "mse"): (
        "3333", "33333", "333333", "3333366", "33336666", "333666666",
        "3366666666", "36666666666", "666666666666", "6666666666666",
        "666666666666--", "66666666666----", "6666666666------",
    ),
}


class TestGateVerdicts:
    @pytest.mark.parametrize("objective", ["med", "mse"])
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_expected_tiers(self, distribution, objective):
        code = {"f32": "3", "f64": "6", None: "-"}
        for index, n_inputs in enumerate(range(4, 17)):
            target = workloads.get("cos", n_inputs)
            p = _make_distribution(distribution, n_inputs)
            spelled = "".join(
                code[ofp._exact_tier(
                    apply_objective(
                        cost_vectors_fixed(target, rest_word(target.table, k), k),
                        objective,
                    ),
                    p,
                )]
                for k in range(target.n_outputs)
            )
            expected = _VERDICTS.get(
                (distribution, objective), ("-" * 16,) * 13
            )[index][:n_inputs]
            assert spelled == expected, n_inputs


class TestKernelByteIdentity:
    """Production vs reference: identical bytes out, identical rng stream."""

    @pytest.mark.parametrize("max_sweeps", [1, 2, 50])
    @pytest.mark.parametrize("n_inputs,bound", [(6, 3), (9, 4), (10, 6)])
    def test_single_call(self, n_inputs, bound, max_sweeps):
        costs, p = _uniform_instance(n_inputs, seed=17)
        partition = random_partition(n_inputs, bound, np.random.default_rng(3))
        rng_exact = np.random.default_rng(23)
        rng_ref = np.random.default_rng(23)
        with caching.fast_paths(True):
            exact = opt_for_part(
                costs, p, partition, n_inputs,
                n_initial_patterns=6, max_sweeps=max_sweeps, rng=rng_exact,
            )
        with caching.fast_paths(False):
            reference = opt_for_part(
                costs, p, partition, n_inputs,
                n_initial_patterns=6, max_sweeps=max_sweeps, rng=rng_ref,
            )
        _same_result(exact, reference)
        assert rng_exact.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("count", [1, 9, 70])
    def test_batched_calls(self, count):
        """Chunked batches (beyond _BATCH_LIMIT) stay byte-identical."""
        costs, p = _uniform_instance(9, seed=29)
        sample_rng = np.random.default_rng(11)
        partitions = [random_partition(9, 4, sample_rng) for _ in range(count)]
        rng_exact = np.random.default_rng(31)
        rng_ref = np.random.default_rng(31)
        with caching.fast_paths(True):
            exact = opt_for_part_many(
                costs, p, partitions, 9, n_initial_patterns=5, rng=rng_exact
            )
        with caching.fast_paths(False):
            reference = opt_for_part_many(
                costs, p, partitions, 9, n_initial_patterns=5, rng=rng_ref
            )
        for a, b in zip(exact, reference):
            _same_result(a, b)
        assert rng_exact.bit_generator.state == rng_ref.bit_generator.state

    def test_bto_variant(self):
        costs, p = _uniform_instance(8, seed=37)
        partition = random_partition(8, 4, np.random.default_rng(5))
        with caching.fast_paths(True):
            exact = opt_for_part_bto(costs, p, partition, 8)
        with caching.fast_paths(False):
            reference = opt_for_part_bto(costs, p, partition, 8)
        _same_result(exact, reference)

    def test_ineligible_instance_falls_back(self):
        """Non-uniform p runs the reference in production too."""
        rng = np.random.default_rng(41)
        bits = random_bits(7, rng)
        costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
        raw = rng.random(1 << 7) + 1e-3
        p = raw / raw.sum()
        partition = random_partition(7, 3, np.random.default_rng(2))
        with caching.fast_paths(True):
            on = opt_for_part(
                costs, p, partition, 7, rng=np.random.default_rng(9)
            )
        with caching.fast_paths(False):
            off = opt_for_part(
                costs, p, partition, 7, rng=np.random.default_rng(9)
            )
        _same_result(on, off)

    def test_memoised_result_matches_reference(self):
        """A memo warmed in production replays reference-identical bytes."""
        costs, p = _uniform_instance(8, seed=43)
        partition = random_partition(8, 4, np.random.default_rng(7))
        memo = memo_context(costs, p)
        with caching.fast_paths(True):
            first = opt_for_part(
                costs, p, partition, 8, rng=np.random.default_rng(1), memo=memo
            )
            replay = opt_for_part(
                costs, p, partition, 8, rng=np.random.default_rng(1), memo=memo
            )
        assert caching.cache_stats()["opt.memo"]["hits"] == 1
        with caching.fast_paths(False):
            reference = opt_for_part(
                costs, p, partition, 8, rng=np.random.default_rng(1)
            )
        _same_result(first, replay)
        _same_result(first, reference)

    def test_rejected_batch_wider_than_chunk_loops_the_reference(self):
        """A gate-rejected batch past _BATCH_LIMIT equals serial reference calls."""
        n_inputs, count, z = 9, ofp._BATCH_LIMIT + 6, 5
        costs, _ = _uniform_instance(n_inputs, seed=47)
        p = distributions.truncated_gaussian(n_inputs, mean=0.45, std=0.2)
        assert ofp._exact_tier(costs, p) is None
        sample = np.random.default_rng(13)
        partitions = [random_partition(n_inputs, 4, sample) for _ in range(count)]
        with caching.fast_paths(False):
            rng = np.random.default_rng(17)
            reference = [
                opt_for_part(
                    costs, p, partition, n_inputs, n_initial_patterns=z, rng=rng
                )
                for partition in partitions
            ]
        draw = np.random.default_rng(17)
        stacked = np.stack(
            [
                draw.integers(0, 2, size=(z, partition.n_cols), dtype=np.uint8)
                for partition in partitions
            ]
        )
        with caching.fast_paths(True):
            many = opt_for_part_many(
                costs, p, partitions, n_inputs, initial_patterns=stacked
            )
            caching.clear_caches()
            half = count // 2
            grouped = opt_for_part_grouped(
                [
                    KernelRequest(
                        KernelContext(costs, p, n_inputs),
                        partitions[:half],
                        stacked[:half],
                    ),
                    KernelRequest(
                        KernelContext(costs, p, n_inputs),
                        partitions[half:],
                        stacked[half:],
                    ),
                ]
            )
        for a, b, c in zip(many, grouped[0] + grouped[1], reference):
            _same_result(a, c)
            _same_result(b, c)


#: Partitions whose (rows x cols) table is a column-major view of the
#: weight grid: the free bits sit below every bound bit.
_LAYOUT_PARTITIONS = {
    6: Partition((0, 1, 2), (3, 4, 5)),
    7: Partition((0, 1, 2), (3, 4, 5, 6)),
}

#: sha256 of eight seeds' results, computed by the reference before the
#: kernel read its tables off the weight grid (each copied by a gather,
#: C-contiguous); see _layout_digest
_LAYOUT_DIGESTS = {
    ("opt_for_part", 6, "truncated-gaussian"):
        "0f85cbebc310ce708f0f57353b3b6c2cce7aa9430beaca24b5112d0e6f66502f",
    ("opt_for_part", 6, "geometric"):
        "bb269a4a900296b8b69e89fea9dae7613a75857884cfc997523173b41a2ad3b0",
    ("opt_for_part", 7, "truncated-gaussian"):
        "e6dd624ca3e3e97670d9549f9fda4eea8d5a8761cd430b47e47219f99be45720",
    ("opt_for_part", 7, "geometric"):
        "e207894aa84227beb2fd51e45f2f7abe5b475e780957f12ff0caa2f499e8305d",
    ("bto", 6, "truncated-gaussian"):
        "a7fef5956ad0b601e87c885d4f93e4614d76a6100b1151caf4bfec1a9b99cd96",
    ("bto", 6, "geometric"):
        "03bcebaa0f9f8054d0ee9714518137c77ee86aef79707aa1d9271cd6cebf49ea",
    ("bto", 7, "truncated-gaussian"):
        "f861222436121a0c3fce2eaa0461e10549ff1a1acb685b08d4eb9e138139b402",
    ("bto", 7, "geometric"):
        "50d5233daf01a01e3cd9ed796e75ccd2150336925b6b42189ea29b841acf6660",
}


def _layout_digest(kind, n_inputs, distribution):
    if distribution == "truncated-gaussian":
        p = distributions.truncated_gaussian(n_inputs, mean=0.45, std=0.2)
    else:
        p = distributions.geometric_bit(n_inputs, p_one=0.3)
    partition = _LAYOUT_PARTITIONS[n_inputs]
    digest = hashlib.sha256()
    for seed in range(8):
        caching.clear_caches()
        rng = np.random.default_rng(seed)
        costs = BitCosts(
            0,
            rng.integers(0, 50, 1 << n_inputs).astype(np.float64),
            rng.integers(0, 50, 1 << n_inputs).astype(np.float64),
        )
        assert ofp._exact_tier(costs, p) is None
        if kind == "bto":
            result = opt_for_part_bto(costs, p, partition, n_inputs)
        else:
            result = opt_for_part(
                costs, p, partition, n_inputs, n_initial_patterns=4, rng=rng
            )
        digest.update(np.float64(result.error).tobytes())
        digest.update(result.decomposition.pattern.tobytes())
        if kind != "bto":
            digest.update(result.decomposition.types.tobytes())
    return digest.hexdigest()


class TestGateRejectedLayout:
    """Gate-rejected contexts sum and multiply inexact floats, so their
    bits depend on the order of addition: the kernel must read
    C-contiguous tables, whatever layout the transposed grid has."""

    @pytest.mark.parametrize("fast", [True, False])
    @pytest.mark.parametrize(
        "case", sorted(_LAYOUT_DIGESTS), ids=lambda case: "-".join(map(str, case))
    )
    def test_results_pinned(self, case, fast):
        with caching.fast_paths(fast):
            assert _layout_digest(*case) == _LAYOUT_DIGESTS[case]


class TestPipelineByteIdentity:
    """Full protocol runs are byte-identical in production and reference."""

    CONFIG = AlgorithmConfig(
        bound_size=4,
        rounds=2,
        partition_limit=8,
        n_initial_patterns=4,
        n_beam=2,
        n_neighbours=3,
        nd_candidates=2,
    )

    def _run(self, algorithm, architecture, production):
        rng = np.random.default_rng(2024)
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        with caching.fast_paths(production):
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
    def test_packed_tier_does_not_change_results(self, algorithm, architecture):
        exact = self._run(algorithm, architecture, production=True)
        reference = self._run(algorithm, architecture, production=False)
        assert _run_fingerprint(exact) == _run_fingerprint(reference)


class TestArenaPackedPages:
    def test_packed_page_round_trips_byte_identical(self):
        from repro.experiments import pool as pool_mod

        arena = pool_mod.TableArena()
        segments, tables = {}, {}
        try:
            table = np.random.default_rng(0).integers(
                0, 1 << 12, size=1 << 12, dtype=np.int64
            )
            ref = arena.publish(table)
            assert "packed" in ref
            view = pool_mod._table_view(segments, tables, ref)
            assert view.dtype == table.dtype
            assert view.tobytes() == table.tobytes()
            assert not view.flags.writeable
            # unpacked once per digest, then cached
            assert pool_mod._table_view(segments, tables, ref) is view
        finally:
            tables.clear()
            for segment in segments.values():
                segment.close()
            arena.close()

    def test_packed_page_is_smaller_and_shares_address(self):
        from repro.experiments import pool as pool_mod

        arena = pool_mod.TableArena()
        try:
            table = np.arange(1 << 12, dtype=np.int64)
            ref = arena.publish(table)
            again = arena.publish(table.copy())
            assert arena.bytes * 5 < table.nbytes
            # content addressing keys the *raw* bytes: idempotent publish
            assert again["name"] == ref["name"] and len(arena) == 1
        finally:
            arena.close()

    def test_signed_tables_stay_raw(self):
        from repro.experiments import pool as pool_mod

        arena = pool_mod.TableArena()
        try:
            table = np.arange(-32, 32, dtype=np.int64)
            ref = arena.publish(table)
            assert "packed" not in ref
        finally:
            arena.close()
