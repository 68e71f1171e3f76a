"""Differential harness for the exact sweep and its exactness gate.

Production runs the exact sweep — restructured arithmetic (diff-matrix
matmuls, relative row costs, half-scaled sign products) — on every
instance the dyadic-exactness gate admits, and the serial reference
elsewhere.  Under the gate the sweep must be *byte-exact*: every error,
pattern byte, type byte and consumed rng draw identical to the
reference (``caching.fast_paths(False)``).  These tests pin that
contract at three levels — single kernel calls across sweep budgets,
full algorithm runs across all three architectures, and gate-rejected
batches — plus the gate itself, hardest at its boundaries and under
general weighted distributions (dyadic weights admitted, everything
else refused), the one rule that picks the sweep's dtypes, and the
grouped engine (each request of an ``opt_for_part_grouped``
pass equal to its own ``opt_for_part_many`` call).
"""

from __future__ import annotations

import hashlib
import importlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro import caching, compile_api, obs, workloads
from repro.boolean import Partition, ops, random_partition
from repro.core import (
    AlgorithmConfig,
    BitCosts,
    cost_vectors_fixed,
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

ofp = importlib.import_module("repro.core.opt_for_part")

_SUPPRESS = [HealthCheck.function_scoped_fixture]

#: the exact sweep's (matmul, totals) dtype pairs
_F32 = (np.float32, np.float32)
_F32_SUMS = (np.float32, np.float64)
_F64 = (np.float64, np.float64)


def _totals_id(value):
    """Name a dtype pair in test ids by its totals dtype."""
    if isinstance(value, tuple):
        return {np.float32: "f32", np.float64: "f64"}[value[1]]
    return None


def _dtypes(costs, p, n_inputs, rows, cols):
    """The sweep's dtypes on a ``rows x cols`` table, ``None`` when the
    gate rejects the context."""
    context = KernelContext(costs, p, n_inputs)
    if context.verdict.reason is not None:
        return None
    return context.sweep_dtypes(rows, cols)


def _uniform_instance(n_inputs, seed):
    """Integer costs + uniform p: the gate's eligible regime."""
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    return costs, distributions.uniform(n_inputs)


def _integer_costs(n_inputs, seed):
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


def _production_vs_reference(costs, p, n_inputs, bound, count, seed):
    """Run the same batch in production and in the reference; return both."""
    sample = np.random.default_rng(seed)
    partitions = [random_partition(n_inputs, bound, sample) for _ in range(count)]
    rng_on = np.random.default_rng(seed + 1)
    rng_off = np.random.default_rng(seed + 1)
    with caching.fast_paths(True):
        on = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=4, rng=rng_on
        )
    with caching.fast_paths(False):
        off = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=4, rng=rng_off
        )
    assert rng_on.bit_generator.state == rng_off.bit_generator.state
    return on, off


class TestEligibilityGate:
    def test_uniform_integer_instance_is_eligible(self):
        costs, p = _uniform_instance(8, seed=0)
        assert ofp._gate(costs, p).reason is None

    def test_non_uniform_distribution_is_rejected(self):
        costs, _ = _uniform_instance(6, seed=1)
        raw = np.random.default_rng(1).random(1 << 6) + 1e-3
        assert ofp._gate(costs, raw / raw.sum()).reason == "weight"

    def test_fractional_costs_are_rejected(self):
        costs, p = _uniform_instance(5, seed=2)
        fractional = BitCosts(costs.k, costs.cost0 + 0.5, costs.cost1)
        assert ofp._gate(fractional, p).reason == "cost"

    def test_negative_costs_are_rejected(self):
        costs, p = _uniform_instance(5, seed=3)
        negative = BitCosts(costs.k, costs.cost0 - 1.0, costs.cost1)
        assert ofp._gate(negative, p).reason == "cost"

    def test_magnitude_overflow_is_rejected(self):
        """Sums that could leave the exact-integer float range bail out."""
        costs, p = _uniform_instance(5, seed=4)
        huge = BitCosts(costs.k, costs.cost0 + 2.0**53, costs.cost1)
        assert ofp._gate(huge, p).reason == "total"

    def test_empty_distribution_is_rejected(self):
        costs, _ = _uniform_instance(4, seed=5)
        assert ofp._gate(costs, np.empty(0)).reason == "weight"

    def test_shared_context_caches_the_verdict(self, monkeypatch):
        """A search context's KernelContext gates once for every call."""
        costs, p = _uniform_instance(7, seed=6)
        verdict = ofp._gate(costs, p)
        calls = []

        def counted(*args):
            calls.append(args)
            return verdict

        monkeypatch.setattr(ofp, "_gate", counted)
        context = KernelContext(costs, p, 7)
        assert calls == []
        assert ofp._sweep_dispatch(context, 16, 8) == context.sweep_dtypes(16, 8)
        # later kernel calls reuse the context: the verdict and the
        # weighted grids are computed once per context
        partition = Partition((3, 4, 5, 6), (0, 1, 2))
        opt_for_part_bto(costs, p, partition, 7, context=context)
        opt_for_part(
            costs, p, partition, 7, rng=np.random.default_rng(0), context=context
        )
        assert context.verdict == verdict
        assert len(calls) == 1

    def test_fast_paths_off_engages_nothing(self):
        costs, p = _uniform_instance(7, seed=6)
        with caching.fast_paths(False):
            assert ofp._sweep_dispatch(KernelContext(costs, p, 7), 16, 8) is None


class TestWeightedEligibility:
    """The widened gate: weighted distributions, dyadic certificates."""

    @settings(max_examples=25, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_dyadic_weighted_instances_engage_packed_byte_identical(self, data):
        n_inputs = data.draw(st.integers(5, 7), label="n_inputs")
        entries = 1 << n_inputs
        costs = _integer_costs(n_inputs, data.draw(st.integers(0, 99), label="f"))
        mant = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 255), min_size=entries, max_size=entries
                ),
                label="mantissas",
            ),
            dtype=np.float64,
        )
        shift = data.draw(st.integers(0, 24), label="shift")
        p = mant / float(1 << shift)
        # dyadic weights with a tiny magnitude bound: always provable
        assert ofp._gate(costs, p).reason is None
        on, off = _production_vs_reference(costs, p, n_inputs, 3, 3, seed=5)
        for a, b in zip(on, off):
            _same_result(a, b)

    @settings(max_examples=15, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_arbitrary_distribution_packed_on_off_identical(self, data):
        """Eligible or not, production must never change a byte."""
        n_inputs = 6
        costs = _integer_costs(n_inputs, data.draw(st.integers(0, 99), label="f"))
        mode = data.draw(
            st.sampled_from(["dyadic", "random", "sparse", "thirds"]),
            label="mode",
        )
        seed = data.draw(st.integers(0, 2**16), label="seed")
        rng = np.random.default_rng(seed)
        if mode == "dyadic":
            p = rng.integers(0, 1 << 12, size=1 << n_inputs).astype(np.float64)
            p /= 4096.0
        elif mode == "random":
            p = rng.random(1 << n_inputs)
            p /= p.sum()
        elif mode == "sparse":
            p = np.zeros(1 << n_inputs)
            p[rng.integers(0, 1 << n_inputs, size=4)] = 0.25
        else:
            p = np.full(1 << n_inputs, 1.0 / 3.0)
            p[0] = 2.0 / 3.0
        on, off = _production_vs_reference(costs, p, n_inputs, 3, 3, seed=9)
        for a, b in zip(on, off):
            _same_result(a, b)

    def test_non_dyadic_weights_are_refused(self):
        """1/3 has a 53-bit odd mantissa: no exactness certificate."""
        costs = _integer_costs(6, seed=3)
        p = np.full(64, 1.0 / 3.0)
        p[0] = 2.0 / 3.0
        assert ofp._gate(costs, p).reason == "weight"

    def test_weighted_overflow_is_refused(self):
        """Weights whose *scaled* total leaves 2**52 bail out.

        Powers of two are exact at any magnitude (odd part 1), so the
        overflow probe needs large odd mantissas: (2**50 + 1)-sized
        weights put the scaled weighted total far beyond 2**52.
        """
        costs = _integer_costs(6, seed=4)
        p = np.full(64, 2.0**50 + 1.0)
        p[0] = 2.0**50 + 3.0  # non-constant: takes the weighted path
        assert ofp._gate(costs, p).reason == "total"

    def test_power_of_two_magnitudes_stay_eligible(self):
        """Huge but dyadic-unit weights are exact in scaled units."""
        costs = _integer_costs(6, seed=4)
        p = np.full(64, float(1 << 50))
        p[0] = float(1 << 51)
        assert ofp._gate(costs, p).reason is None

    def test_uniform_stays_eligible_via_closed_form(self):
        costs = _integer_costs(8, seed=5)
        assert ofp._gate(costs, distributions.uniform(8)).reason is None


# ----------------------------------------------------------------------
# The gate at its boundaries.  Each case fixes the exact integer total
# T = sum_i (cost0_i + cost1_i) * w_i and the dyadic unit U of
# p_i = w_i * 2**U; a case runs with one constant weight (the protocol
# default, the gate's closed form) and with alternating weights 1 and 2
# (the gate's int64 dot).  The expected dtypes are the sweep's on the
# 4 x 4 tables the byte checks run.
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
    # (T, U, dtypes); the tables' M * 4 stays below 2**24 until T = 2**52
    ((1 << 24) - 1, 0, _F32),
    (1 << 24, 0, _F32_SUMS),
    (1000, -37, _F32),
    (1000, -38, _F32_SUMS),
    ((1 << 52) - 1, 0, _F64),
    (1 << 52, 0, None),
    # the msign half-step needs the unit 2**(U-1): a float at U = -1073
    # (the least subnormal), not at U = -1074
    (1000, -1073, _F64),
    (1000, -1074, None),
    # float32 totals' 1e-12 convergence slack with totals near 2**24
    # units, where a float32 total's spacing is the unit itself
    ((1 << 24) - 1, -37, _F32),
    ((1 << 24) - 1, -38, _F32_SUMS),
    # every sum is at most T * 2**U: below 2**128 in float32, below
    # 2**1024 in float64
    ((1 << 24) - 1, 104, _F32),
    ((1 << 24) - 1, 105, _F32_SUMS),
    ((1 << 52) - 1, 972, _F64),
]


def _same_as_reference(costs, p, seed=3):
    on, off = _production_vs_reference(costs, p, _N, 2, 3, seed=seed)
    for a, b in zip(on, off):
        _same_result(a, b)


class TestGateBoundaries:
    @pytest.mark.parametrize("shape", sorted(_WEIGHTS))
    @pytest.mark.parametrize("total,unit,dtypes", _BOUNDARIES, ids=_totals_id)
    def test_total_and_unit_boundaries(self, shape, total, unit, dtypes):
        costs, p = _instance(total, _WEIGHTS[shape], unit)
        assert _dtypes(costs, p, _N, 4, 4) == dtypes
        _same_as_reference(costs, p)

    @pytest.mark.parametrize(
        "p0,dtypes",
        [
            (1.0 - 2.0**-53, None),  # odd part 2**53 - 1: T >= 2**52
            (1.0 - 2.0**-52, _F64),  # odd part 2**52 - 1: T < 2**52
        ],
        ids=_totals_id,
    )
    def test_constant_weight_bit_budget(self, p0, dtypes):
        cost0 = np.zeros(1 << _N)
        cost0[5] = 1.0
        costs = BitCosts(0, cost0, np.zeros(1 << _N))
        assert _dtypes(costs, np.full(1 << _N, p0), _N, 4, 4) == dtypes
        _same_as_reference(costs, np.full(1 << _N, p0))

    @pytest.mark.parametrize(
        "small,dtypes",
        [
            (2.0**-51, None),  # 3 on a 2**-51 unit: 3 * 2**51 needs 53 bits
            (2.0**-50, _F64),  # 3 * 2**50 needs 52 bits
        ],
        ids=_totals_id,
    )
    def test_common_unit_bit_budget(self, small, dtypes):
        p = np.resize([3.0, small], 1 << _N)
        cost0 = np.zeros(1 << _N)
        cost0[:2] = [1.0, 5.0]
        costs = BitCosts(0, cost0, np.zeros(1 << _N))
        assert _dtypes(costs, p, _N, 4, 4) == dtypes
        _same_as_reference(costs, p)

    def test_zero_weight_supports_are_ignored(self):
        """Huge costs at p = 0 and 1/3 at zero cost never reach T."""
        p = np.resize([0.5, 0.0, 0.25, 1.0 / 3.0], 1 << _N)
        cost0 = np.resize([3.0, 2.0**60, 1.0, 0.0], 1 << _N)
        cost1 = np.resize([1.0, 0.0, 4.0, 0.0], 1 << _N)
        costs = BitCosts(0, cost0, cost1)
        assert _dtypes(costs, p, _N, 4, 4) == _F32
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
        assert ofp._gate(costs, p) == ofp._Verdict(None, 0, 0, 0)
        assert _dtypes(costs, p, _N, 4, 4) == _F32
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
    def test_float64_overflow_is_rejected(self, shape):
        """``T * 2**U >= 2**1024``: a sum could pass the largest float."""
        costs, p = _instance(1000, _WEIGHTS[shape], 1015)
        assert ofp._gate(costs, p) == ofp._Verdict("unit")

    @pytest.mark.parametrize("shape", sorted(_WEIGHTS))
    @pytest.mark.parametrize(
        "bad", ["fractional", "negative", "nan", "inf"]
    )
    def test_rejects_non_integer_or_negative_costs(self, shape, bad):
        costs, p = _instance(1000, _WEIGHTS[shape])
        cost0 = costs.cost0.copy()
        cost0[3] = {"fractional": cost0[3] + 0.5, "negative": -1.0,
                    "nan": np.nan, "inf": np.inf}[bad]
        assert ofp._gate(BitCosts(0, cost0, costs.cost1), p).reason == "cost"


# ----------------------------------------------------------------------
# Drawn edges of the gate.  The strategy aims at each edge the hand-made
# boundaries above pin one point of -- T at 2**24 and 2**52, weights 52
# and 53 bits wide on the common unit, T * 2**U at 2**128 and 2**1024 --
# under constant and non-constant distributions, and at the weighted
# total's int64 dot over 2**16 entries: T at 2**52 from many small
# terms, and T far past 2**63.  The expected verdict comes from the
# drawn integers by the gate's documented contract, in Python integers
# and fractions, not from the gate's own scan.
# ----------------------------------------------------------------------


def _fill_total(total, weights, rng):
    """Integer costs with ``sum(comb * weights) == total``; entry 0 (weight
    1) absorbs the remainder."""
    comb = [0] * len(weights)
    top = total // (4 * sum(weights))
    for i in range(1, len(weights)):
        comb[i] = int(rng.integers(0, top + 1))
    comb[0] = total - sum(c * w for c, w in zip(comb[1:], weights[1:]))
    return comb


@st.composite
def _gate_edge(draw):
    """``(comb, weights, unit)`` at one edge: ``p_i = weights[i] * 2**unit``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    size = 1 << _N
    constant = draw(st.booleans(), label="constant")
    weights = [1] * size
    if not constant:
        weights[1:] = [int(w) for w in rng.integers(1, 4, size - 1)]
    edge = draw(
        st.sampled_from(["total", "width", "range", "wide"]), label="edge"
    )
    if edge == "total":
        total = draw(
            st.sampled_from([(1 << 24) - 1, 1 << 24, (1 << 52) - 1, 1 << 52]),
            label="T",
        )
        unit = draw(
            st.sampled_from([0, -9, -37, -38, -1073, -1074, 104, 105, 972, 973])
            | st.integers(-1074, 971),
            label="unit",
        )
        comb = _fill_total(total, weights, rng)
    elif edge == "width":
        bits = draw(st.sampled_from([52, 53]), label="bits")
        # the width comes from the odd part, or from a shift onto the
        # common unit (3 * 2**50 is 52 bits wide on a 2**0 unit)
        shift = 0 if constant else draw(st.sampled_from([0, bits - 2]))
        odd = (1 << (bits - shift - 1)) | 1
        odd |= int(rng.integers(0, 1 << min(bits - shift - 1, 62))) | 1
        if constant:
            weights = [odd] * size
        else:
            weights[int(rng.integers(1, size))] = odd << shift
        comb = [int(c) for c in rng.integers(0, 3, size)]
        comb[int(np.argmax(weights))] = 1
        unit = draw(st.integers(-1000, 0), label="unit")
    elif edge == "range":
        # T * 2**U just below (side 0) or at (side 1) 2**128 or 2**1024
        edge_bits = draw(st.sampled_from([128, 1024]), label="edge_bits")
        k = draw(st.sampled_from([12, 23, 24, 25, 40, 52]), label="T_bits")
        total = draw(st.sampled_from([1 << (k - 1), (1 << k) - 1]), label="T")
        unit = edge_bits - k + draw(st.sampled_from([0, 1]), label="side")
        comb = _fill_total(total, weights, rng)
    else:
        # 2**16 weighted entries
        size = 1 << 16
        if draw(st.booleans(), label="past_int64"):
            # costs and weights near 2**51: T near 2**118
            top = 1 << 51
            weights = [int(w) for w in rng.integers(top - 4096, top, size)]
            comb = [int(c) for c in rng.integers(top - 4096, top, size)]
        else:
            # T at 2**52 from terms near T / 2**17; entry 0 (weight 1)
            # takes the remainder
            weights = [1] + [int(w) for w in rng.integers(1, 4, size - 1)]
            total = draw(st.sampled_from([(1 << 52) - 1, 1 << 52]), label="T")
            share = total // sum(weights)
            comb = [0] + [share - int(j) for j in rng.integers(0, 8, size - 1)]
            comb[0] = total - sum(c * w for c, w in zip(comb[1:], weights[1:]))
        unit = draw(st.integers(-60, 0), label="unit")
    return comb, weights, unit


def _contract_verdict(comb, weights, unit):
    """The gate's verdict ``reason`` from the exact integers."""
    p = [math.ldexp(w, unit) for w in weights]
    if not all(math.isfinite(x) for x in p):
        return "weight"
    support = [(c, w) for c, w in zip(comb, weights) if c and w]
    if not support:
        return None
    # the least common dyadic unit of the supported weights
    trailing = min((w & -w).bit_length() - 1 for _, w in support)
    support = [(c, w >> trailing) for c, w in support]
    unit += trailing
    total = sum(c * w for c, w in support)
    widest = max(w.bit_length() for _, w in support)
    constant = len(set(p)) == 1
    # a weight past 52 bits makes T >= 2**52 by itself; the weighted
    # scan names the weight unless one entry's cost alone reaches 2**52
    if not constant and widest > 52 and max(c for c, _ in support) < 1 << 52:
        return "weight"
    if total >= 1 << 52:
        return "total"
    scaled = Fraction(total) * Fraction(2) ** unit
    if unit < -1073 or scaled >= 2**1024:
        return "unit"
    return None


class TestDrawnGateEdges:
    @settings(max_examples=120, deadline=None)
    @given(_gate_edge())
    def test_verdict_and_bytes_at_the_edges(self, drawn):
        comb, weights, unit = drawn
        rng = np.random.default_rng(abs(unit))
        comb_f = np.asarray(comb, dtype=np.float64)
        cost1 = np.floor(comb_f * rng.random(comb_f.size))
        costs = BitCosts(0, comb_f - cost1, cost1)
        p = np.array([math.ldexp(w, unit) for w in weights])
        verdict = ofp._gate(costs, p)
        kind = "constant" if len(set(weights)) == 1 else "weighted"
        event(f"{kind}, {len(comb)} entries: {verdict.reason or 'admitted'}")
        assert verdict.reason == _contract_verdict(comb, weights, unit)
        if verdict.reason is None:
            # T is the exact weighted total on the unit 2**U
            exact = sum(c * w for c, w in zip(comb, weights))
            assert verdict.total * Fraction(2) ** verdict.unit == (
                exact * Fraction(2) ** unit
            )
        n_inputs = len(comb).bit_length() - 1
        on, off = _production_vs_reference(costs, p, n_inputs, 2, 3, seed=3)
        for a, b in zip(on, off):
            # byte-level: a rejected context may total to inf or nan
            assert np.float64(a.error).tobytes() == np.float64(b.error).tobytes()
            assert a.pattern.tobytes() == b.pattern.tobytes()
            assert a.decomposition.types.tobytes() == b.decomposition.types.tobytes()


class TestConvergenceSlack:
    """Float32 totals are compared against ``totals - 1e-12``.

    The subtraction rounds to float32, so it only gives the reference's
    float64 verdict while the rounding cannot reach a whole unit
    ``2**U``.  That holds from ``U = -38`` up; ``sweep_dtypes`` floors
    float32 totals at ``U = -37``, one unit of margin.  Probes sit where a float32 total's
    spacing is the unit itself (``2**23`` to ``2**24`` units): the last
    sweep improved by one unit, tied, or (never in the alternation, but
    a sharper probe) worsened by one.
    """

    @staticmethod
    def _disagreements(unit):
        steps = np.arange(-3, 4, dtype=np.int64)
        units = np.concatenate(
            [(1 << 23) + steps[3:], (1 << 24) - 1 - steps[3:]]
        )
        old = np.ldexp(units.astype(np.float64), unit)
        flips = 0
        for delta in (-1, 0, 1):
            new = np.ldexp((units + delta).astype(np.float64), unit)
            want = new >= old - 1e-12
            got = new.astype(np.float32) >= old.astype(np.float32) - 1e-12
            flips += int(np.count_nonzero(want != got))
        return flips

    @pytest.mark.parametrize(
        "unit,dtypes", [(-37, _F32), (-38, _F32_SUMS)], ids=_totals_id
    )
    def test_slack_verdicts_at_the_floor(self, unit, dtypes):
        costs, p = _instance((1 << 24) - 1, (1,), unit)
        assert _dtypes(costs, p, _N, 4, 4) == dtypes
        assert self._disagreements(unit) == 0
        for seed in range(4):
            _same_as_reference(costs, p, seed=seed)

    def test_slack_flips_below_the_margin(self):
        """Two units lower the float32 slack rounds a one-unit
        improvement into a tie: the probes can see a wrong floor."""
        assert self._disagreements(-39) > 0


# ----------------------------------------------------------------------
# The shape rule: the sweep's matmuls run in float32 on a rows x cols
# table when S = min(T, M * max(rows, cols)) < 2**24, with M the largest
# |w1 - w0| in units of 2**U, 2**(U-1) a float32 (U >= -148) and
# S * 2**U below 2**128; the totals stay float64 unless T alone passes
# the float32 rule.  Most cases below have T far past 2**24, so S is
# M * max(rows, cols): tables are 2**free x 2**bound, and the nearest
# products either side of the bound are 2**24 - max(rows, cols) and
# 2**24.
# ----------------------------------------------------------------------


def _spread_instance(spread, n_inputs, unit, weights=(1,), seed=0):
    """Integer costs whose largest ``|cost1 - cost0| * w_i`` is ``spread``.

    ``p_i = w_i * 2**unit`` with ``weights[0] == 1``; entry 0 carries the
    spread.  With ``2**n_inputs`` entries of random costs up to the
    spread, ``T`` passes ``2**24`` for spreads of ``2**16`` and up.
    """
    rng = np.random.default_rng(seed)
    size = 1 << n_inputs
    w = np.resize(np.asarray(weights, dtype=np.int64), size)
    assert w[0] == 1
    top = spread // w
    cost0 = (rng.random(size) * (top + 1)).astype(np.int64)
    cost1 = (rng.random(size) * (top + 1)).astype(np.int64)
    cost0[0], cost1[0] = spread, 0
    costs = BitCosts(0, cost0.astype(np.float64), cost1.astype(np.float64))
    return costs, np.ldexp(w.astype(np.float64), unit)


def _numbers(context):
    """The verdict's reason, ``M`` and ``U``."""
    return context.verdict.reason, context.verdict.bound, context.verdict.unit


def _dispatched_vs_reference(costs, p, n_inputs, bound, seed=3, count=3):
    """Production against the reference, byte for byte; returns how many
    production requests ran float32 partial sums."""
    sink = obs.MemorySink()
    with obs.session(sink):
        on, off = _production_vs_reference(costs, p, n_inputs, bound, count, seed)
    for a, b in zip(on, off):
        _same_result(a, b)
    return sink.counters().get("opt.packed_f32_sums_calls", 0)


class TestShapeRule:
    @pytest.mark.parametrize("bound", [3, 6], ids=["rows", "cols"])
    @pytest.mark.parametrize(
        "spread,dtypes",
        [
            ((1 << 18) - 1, _F32_SUMS),  # M * 64 = 2**24 - 64
            (1 << 18, _F64),  # M * 64 = 2**24
            (1 << 20, _F64),  # sums past 2**24 units
        ],
        ids=["below", "at", "past"],
    )
    def test_span_boundary(self, bound, spread, dtypes):
        """9 inputs: 64 x 8 tables (b = 3) and 8 x 64 ones (b = 6)."""
        costs, p = _spread_instance(spread, 9, -9)
        context = KernelContext(costs, p, 9)
        assert _numbers(context) == (None, spread, -9)
        rows, cols = 1 << (9 - bound), 1 << bound
        assert context.sweep_dtypes(rows, cols) == dtypes
        used = _dispatched_vs_reference(costs, p, 9, bound)
        assert used == (1 if dtypes == _F32_SUMS else 0)

    @pytest.mark.parametrize(
        "unit,dtypes",
        [(-148, _F32_SUMS), (-149, _F64)],
        ids=["f32-sums", "f64"],
    )
    def test_unit_floor(self, unit, dtypes):
        """At ``U = -148`` the sign products' unit ``2**-149`` is the least
        float32 subnormal; one step lower it is not a float32.  Costs of
        0-3 make one-unit column ties common, which a float32 sign
        product at ``U = -149`` would round to zero."""
        for seed in range(12):
            costs, p = _spread_instance(3, 7, unit, seed=seed)
            context = KernelContext(costs, p, 7)
            assert _numbers(context) == (None, 3, unit)
            assert context.sweep_dtypes(16, 8) == dtypes
            used = _dispatched_vs_reference(costs, p, 7, 3, seed=seed)
            assert used == (1 if dtypes == _F32_SUMS else 0)

    @pytest.mark.parametrize(
        "unit,dtypes",
        [(104, _F32_SUMS), (105, _F64)],
        ids=["f32-sums", "f64"],
    )
    def test_unit_ceiling(self, unit, dtypes):
        """``M * max(rows, cols) = 2**24 - 64`` units of ``2**U`` stays
        below ``2**128``, finite in float32, up to ``U = 104``."""
        spread = (1 << 18) - 1
        costs, p = _spread_instance(spread, 9, unit)
        context = KernelContext(costs, p, 9)
        assert _numbers(context) == (None, spread, unit)
        assert context.sweep_dtypes(64, 8) == dtypes
        used = _dispatched_vs_reference(costs, p, 9, 3)
        assert used == (1 if dtypes == _F32_SUMS else 0)

    @pytest.mark.parametrize("bound", [3, 6], ids=["rows", "cols"])
    def test_total_bounds_the_sums(self, bound):
        """``T < 2**24`` bounds every partial sum where ``M * max(rows,
        cols) = 2**24`` does not: entry 0 carries most of ``T``.  Below
        the float32 totals' floor (``U = -60``) the matmuls run in
        float32 and the totals in float64."""
        n_inputs, spread = 9, 1 << 18
        rng = np.random.default_rng(bound)
        cost0 = rng.integers(0, 4, 1 << n_inputs).astype(np.float64)
        cost1 = rng.integers(0, 4, 1 << n_inputs).astype(np.float64)
        cost0[0], cost1[0] = spread, 0.0
        costs = BitCosts(0, cost0, cost1)
        p = np.full(1 << n_inputs, 2.0**-60)
        context = KernelContext(costs, p, n_inputs)
        assert _numbers(context) == (None, spread, -60)
        assert spread < context.verdict.total < 1 << 24
        rows, cols = 1 << (n_inputs - bound), 1 << bound
        assert spread * max(rows, cols) == 1 << 24
        assert context.sweep_dtypes(rows, cols) == _F32_SUMS
        assert _dispatched_vs_reference(costs, p, n_inputs, bound) == 1

    def test_half_of_a_narrowed_parent(self):
        """An ND half runs float32 sums on the parent's bound.

        The 7-input parent's 4 x 32 table has ``M * 32 = 2**24`` (float64
        sums); each 6-input half's 4 x 16 table has ``M * 16 = 2**23``, so
        the halves run float32 partial sums under the parent's ``M`` and
        ``U``, byte for byte as the reference.
        """
        n_inputs, spread = 7, 1 << 19
        partition = Partition((5, 6), (0, 1, 2, 3, 4))
        used = []
        for seed in range(6):
            costs, p = _spread_instance(spread, n_inputs, -7, (1, 3), seed=seed)
            context = KernelContext(costs, p, n_inputs)
            assert _numbers(context) == (None, spread, -7)
            assert context.sweep_dtypes(4, 32) == _F64
            assert context.cofactor({0: 1}).sweep_dtypes(4, 16) == _F32_SUMS
            def solve():
                return optimize_nondisjoint(
                    costs,
                    p,
                    partition,
                    n_inputs,
                    n_initial_patterns=4,
                    rng=np.random.default_rng(seed + 1),
                    shared_candidates=(0,),
                )

            sink = obs.MemorySink()
            with caching.fast_paths(True), obs.session(sink):
                on = solve()
            with caching.fast_paths(False):
                off = solve()
            used.append(sink.counters().get("opt.packed_f32_sums_calls", 0))
            assert on.error == off.error, seed
            for name in ("pattern0", "types0", "pattern1", "types1"):
                assert (
                    getattr(on.decomposition, name).tobytes()
                    == getattr(off.decomposition, name).tobytes()
                ), (seed, name)
        assert min(used) > 0

    @settings(max_examples=40, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_drawn_near_the_edges(self, data):
        """``(M, shape, U)`` drawn around every edge of the rule."""
        n_inputs = data.draw(st.integers(4, 8), label="n_inputs")
        bound = data.draw(st.integers(1, n_inputs - 1), label="bound")
        side = 1 << max(bound, n_inputs - bound)
        edge = (1 << 24) // side
        spread = edge + data.draw(st.integers(-2, 1), label="offset")
        weights = data.draw(st.sampled_from([(1,), (1, 2), (1, 3)]), label="w")
        unit = data.draw(
            st.sampled_from([-9, -37, -38, -148, -149, 104, 105])
            | st.integers(-150, 106),
            label="unit",
        )
        costs, p = _spread_instance(
            spread, n_inputs, unit, weights, seed=data.draw(st.integers(0, 99))
        )
        verdict = ofp._gate(costs, p)
        assert verdict.bound == spread
        if verdict.reason is None:
            assert verdict.unit == unit
        _dispatched_vs_reference(costs, p, n_inputs, bound, seed=5, count=2)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_float32_sums_keep_float64_totals(self, batch):
        """Row sums of 2**22 units, totals past 2**24: float32 partial
        sums and float64 totals give the reference's totals exactly."""
        rng = np.random.default_rng(batch)
        rows, cols, z = 32, 16, 4
        d0 = rng.integers(0, 1 << 17, size=(batch, rows, cols)).astype(np.float64)
        d1 = rng.integers(0, 1 << 17, size=(batch, rows, cols)).astype(np.float64)
        patterns = rng.integers(0, 2, size=(batch, z, cols)).astype(np.uint8)
        diff = (d1 - d0).astype(np.float32)
        assert diff.astype(np.float64).tobytes() == (d1 - d0).tobytes()
        _, _, totals, _ = ofp._alternate_exact(
            diff, diff.sum(axis=2), patterns, 50, d0.sum(axis=(1, 2)), np.float64
        )
        for j in range(batch):
            _, _, want, _ = ofp._alternate_reference(
                d0[j : j + 1], d1[j : j + 1], patterns[j : j + 1], 50
            )
            assert np.abs(want).max() >= 1 << 24
            assert totals[j].tobytes() == want[0].tobytes()


# ----------------------------------------------------------------------
# Verdict inheritance: an ND half is solved as a view of its parent's
# context and runs the dtypes the parent's numbers pick for its table.
# That is sound because a cofactor's own numbers always pick dtypes at
# least as narrow (its weights are a subset: U can only rise, T and M
# only fall).
# ----------------------------------------------------------------------

#: how narrow a sweep runs: the reference, float64, float32 matmuls,
#: float32 throughout
_WIDTH = {None: 0, _F64: 1, _F32_SUMS: 2, _F32: 3}


def _width(context, rows, cols):
    if context.verdict.reason is not None:
        return 0
    return _WIDTH[context.sweep_dtypes(rows, cols)]


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
    """Each one-bit cofactor: its own numbers pick dtypes at least as
    narrow as the inherited ones, and views equal copies."""
    context = KernelContext(costs, p, n_inputs)
    parent = context.verdict
    for bit in range(n_inputs):
        for value in (0, 1):
            fixed = {bit: value}
            half_costs = BitCosts(
                costs.k,
                ops.cofactor(costs.cost0, n_inputs, fixed),
                ops.cofactor(costs.cost1, n_inputs, fixed),
            )
            half_p = ops.cofactor(p, n_inputs, fixed)
            view = context.cofactor(fixed)
            assert view.verdict == parent
            copied = KernelContext(half_costs, half_p, n_inputs - 1)
            for shape in ((1, 1), (1 << (n_inputs - 2), 2)):
                assert _width(copied, *shape) >= _width(view, *shape), (
                    fixed,
                    shape,
                )
            for got, want in zip(view.weights(), copied.weights()):
                assert got.tobytes() == want.tobytes()
            if parent.reason is None:
                # the sweep's matmul dtype on the smallest table, and float64
                for dtype in {view.sweep_dtypes(1, 1)[0], np.float64}:
                    got_diff, got_zero = view.exact_weights(dtype)
                    want_diff, want_zero = copied.exact_weights(dtype)
                    assert got_diff.tobytes() == want_diff.tobytes()
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
# output bit: "3" = float32 totals, "6" = float64 totals, "-" = the
# reference.  (Float32 totals take float32 matmuls on every table.)
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
        code = {None: "-", _F32: "3", _F32_SUMS: "6", _F64: "6"}
        for index, n_inputs in enumerate(range(4, 17)):
            target = workloads.get("cos", n_inputs)
            p = _make_distribution(distribution, n_inputs)
            spelled = "".join(
                code[
                    _dtypes(
                        apply_objective(
                            cost_vectors_fixed(target, rest_word(target.table, k), k),
                            objective,
                        ),
                        p,
                        n_inputs,
                        1,
                        1,
                    )
                ]
                for k in range(target.n_outputs)
            )
            expected = _VERDICTS.get(
                (distribution, objective), ("-" * 16,) * 13
            )[index][:n_inputs]
            assert spelled == expected, n_inputs


class TestOneVerdictPerContext:
    """A search gates each ``(costs, p)`` context once, not per call.

    ``find_best_settings`` and DALTA's bit loop each build one
    :class:`KernelContext` per context and hand it to every kernel
    call; ND halves inherit their parent's verdict.  The pinned counts
    are the gate scans of one seed-0 ``fast`` compile of 8-bit cos; a
    kernel call that builds its own context raises them.
    """

    @pytest.mark.parametrize(
        "algorithm,architecture,scans",
        [
            ("bs-sa", "bto-normal-nd", 31),
            ("bs-sa", "dalta", 23),
            ("dalta", "dalta", 16),
        ],
    )
    def test_gate_scans_of_a_compile(
        self, monkeypatch, algorithm, architecture, scans
    ):
        calls = []
        gate = ofp._gate

        def counted(costs, p):
            calls.append(None)
            return gate(costs, p)

        monkeypatch.setattr(ofp, "_gate", counted)
        compile_api.compile_one(
            "cos",
            bits=8,
            algorithm=algorithm,
            architecture=architecture,
            budget="fast",
            seed=0,
        )
        assert len(calls) == scans


class TestKernelByteIdentity:
    """Production vs reference: identical bytes out, identical rng stream."""

    @pytest.mark.parametrize("max_sweeps", [1, 2, 50])
    @pytest.mark.parametrize("n_inputs,bound", [(6, 3), (9, 4), (10, 6)])
    def test_single_call(self, monkeypatch, n_inputs, bound, max_sweeps):
        monkeypatch.setattr(ofp, "_MAX_SWEEPS", max_sweeps)
        costs, p = _uniform_instance(n_inputs, seed=17)
        partition = random_partition(n_inputs, bound, np.random.default_rng(3))
        rng_exact = np.random.default_rng(23)
        rng_ref = np.random.default_rng(23)
        with caching.fast_paths(True):
            exact = opt_for_part(
                costs, p, partition, n_inputs,
                n_initial_patterns=6, rng=rng_exact,
            )
        with caching.fast_paths(False):
            reference = opt_for_part(
                costs, p, partition, n_inputs,
                n_initial_patterns=6, rng=rng_ref,
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("max_sweeps", [1, 50])
    def test_exact_sweep_totals_are_float64(self, dtype, batch, max_sweeps):
        """Both dtypes, with or without the B = 1 shortcut, return the
        reference's float64 totals, equal to it item by item."""
        rng = np.random.default_rng(batch * 100 + max_sweeps)
        rows, cols, z = 8, 16, 4
        d0 = rng.integers(0, 64, size=(batch, rows, cols)).astype(np.float64)
        d1 = rng.integers(0, 64, size=(batch, rows, cols)).astype(np.float64)
        patterns = rng.integers(0, 2, size=(batch, z, cols)).astype(dtype)
        diff = (d1 - d0).astype(dtype)
        offsets = d0.sum(axis=(1, 2))
        _, _, totals, _ = ofp._alternate_exact(
            diff, diff.sum(axis=2), patterns, max_sweeps, offsets, dtype
        )
        assert totals.dtype == np.float64
        for j in range(batch):
            _, _, want, _ = ofp._alternate_reference(
                d0[j : j + 1], d1[j : j + 1],
                patterns[j : j + 1].astype(np.float64), max_sweeps,
            )
            assert totals[j].tobytes() == want[0].tobytes()

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

    def test_rejected_batch_wider_than_chunk_loops_the_reference(self):
        """A gate-rejected batch past _BATCH_LIMIT equals serial reference calls."""
        n_inputs, count, z = 9, ofp._BATCH_LIMIT + 6, 5
        costs, _ = _uniform_instance(n_inputs, seed=47)
        p = distributions.truncated_gaussian(n_inputs, mean=0.45, std=0.2)
        assert ofp._gate(costs, p).reason is not None
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
        rng = np.random.default_rng(seed)
        costs = BitCosts(
            0,
            rng.integers(0, 50, 1 << n_inputs).astype(np.float64),
            rng.integers(0, 50, 1 << n_inputs).astype(np.float64),
        )
        assert ofp._gate(costs, p).reason is not None
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


class TestGroupedEngine:
    """opt_for_part_grouped == each request's own opt_for_part_many."""

    def _request(self, n_inputs, bound, count, seed, z=4):
        costs = _integer_costs(n_inputs, seed)
        p = distributions.uniform(n_inputs)
        sample = np.random.default_rng(seed + 1)
        partitions = [
            random_partition(n_inputs, bound, sample) for _ in range(count)
        ]
        stacked = np.random.default_rng(seed + 2).integers(
            0, 2, size=(count, z, partitions[0].n_cols), dtype=np.uint8
        )
        return costs, p, partitions, stacked

    def test_mixed_shape_requests_match_serial(self):
        problems = [
            self._request(6, 3, 2, seed=10),
            self._request(6, 3, 5, seed=20),
            self._request(7, 4, 3, seed=30),  # different table shape
        ]
        serial = []
        for n_inputs, (costs, p, partitions, stacked) in zip(
            (6, 6, 7), problems
        ):
            serial.append(
                opt_for_part_many(
                    costs, p, partitions, n_inputs, initial_patterns=stacked
                )
            )
        grouped = opt_for_part_grouped(
            [
                KernelRequest(
                    KernelContext(costs, p, n_inputs), partitions, stacked
                )
                for n_inputs, (costs, p, partitions, stacked) in zip(
                    (6, 6, 7), problems
                )
            ]
        )
        assert len(grouped) == len(serial)
        for grouped_results, serial_results in zip(grouped, serial):
            assert len(grouped_results) == len(serial_results)
            for a, b in zip(grouped_results, serial_results):
                _same_result(a, b)

    def test_reference_and_packed_requests_coexist(self):
        """Ineligible (random-p) and eligible requests share one pass."""
        costs, _, partitions, stacked = self._request(6, 3, 3, seed=40)
        raw = np.random.default_rng(41).random(64) + 1e-3
        random_p = raw / raw.sum()
        uniform_p = distributions.uniform(6)
        serial_ref = opt_for_part_many(
            costs, random_p, partitions, 6, initial_patterns=stacked
        )
        serial_packed = opt_for_part_many(
            costs, uniform_p, partitions, 6, initial_patterns=stacked
        )
        grouped = opt_for_part_grouped(
            [
                KernelRequest(KernelContext(costs, random_p, 6), partitions, stacked),
                KernelRequest(KernelContext(costs, uniform_p, 6), partitions, stacked),
            ]
        )
        for a, b in zip(grouped[0], serial_ref):
            _same_result(a, b)
        for a, b in zip(grouped[1], serial_packed):
            _same_result(a, b)
