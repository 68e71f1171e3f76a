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
else refused), the exact weighted popcounts behind its certificate,
and the grouped engine (each request of an ``opt_for_part_grouped``
pass equal to its own ``opt_for_part_many`` call).
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import caching, compile_api, obs, workloads
from repro.boolean import Partition, ops, random_partition
from repro.boolean.packed import WeightPlanes, pack_bits
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
    caching.clear_caches()
    with caching.fast_paths(True):
        on = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=4, rng=rng_on
        )
    caching.clear_caches()
    with caching.fast_paths(False):
        off = opt_for_part_many(
            costs, p, partitions, n_inputs, n_initial_patterns=4, rng=rng_off
        )
    assert rng_on.bit_generator.state == rng_off.bit_generator.state
    return on, off


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
        assert ofp._engaged_tier(context) == verdict.tier
        # later kernel calls reuse the context: the verdict and the
        # weighted grids are computed once per context
        partition = Partition((3, 4, 5, 6), (0, 1, 2))
        opt_for_part_bto(costs, p, partition, 7, context=context)
        opt_for_part(
            costs, p, partition, 7, rng=np.random.default_rng(0), context=context
        )
        assert context.tier == verdict.tier
        assert len(calls) == 1

    def test_fast_paths_off_engages_nothing(self):
        costs, p = _uniform_instance(7, seed=6)
        with caching.fast_paths(False):
            assert ofp._engaged_tier(KernelContext(costs, p, 7)) is None


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
        assert ofp._exact_tier(costs, p)
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
        assert not ofp._exact_tier(costs, p)

    def test_weighted_overflow_is_refused(self):
        """Weights whose *scaled* total leaves 2**52 bail out.

        Powers of two are exact at any magnitude (odd part 1), so the
        overflow probe needs large odd mantissas: (2**50 + 1)-sized
        weights put the scaled weighted total far beyond 2**52.
        """
        costs = _integer_costs(6, seed=4)
        p = np.full(64, 2.0**50 + 1.0)
        p[0] = 2.0**50 + 3.0  # non-constant: takes the weighted path
        assert not ofp._exact_tier(costs, p)

    def test_power_of_two_magnitudes_stay_eligible(self):
        """Huge but dyadic-unit weights are exact in scaled units."""
        costs = _integer_costs(6, seed=4)
        p = np.full(64, float(1 << 50))
        p[0] = float(1 << 51)
        assert ofp._exact_tier(costs, p)

    def test_uniform_stays_eligible_via_closed_form(self):
        costs = _integer_costs(8, seed=5)
        assert ofp._exact_tier(costs, distributions.uniform(8))


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
    # the f32 tier's 1e-12 convergence slack with totals near 2**24
    # units, where a float32 total's spacing is the unit itself
    ((1 << 24) - 1, -37, "f32"),
    ((1 << 24) - 1, -38, "f64"),
    # every sum is at most T * 2**U: below 2**128 in float32, below
    # 2**1024 in float64
    ((1 << 24) - 1, 104, "f32"),
    ((1 << 24) - 1, 105, "f64"),
    ((1 << 52) - 1, 972, "f64"),
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
    def test_float64_overflow_is_rejected(self, shape):
        """``T * 2**U >= 2**1024``: a sum could pass the largest float."""
        costs, p = _instance(1000, _WEIGHTS[shape], 1015)
        assert ofp._gate(costs, p) == ofp._Verdict(None, "unit")

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


class TestConvergenceSlack:
    """The f32 tier compares float32 totals against ``totals - 1e-12``.

    The subtraction rounds to float32, so it only gives the reference's
    float64 verdict while the rounding cannot reach a whole unit
    ``2**U``.  That holds from ``U = -38`` up; the gate's f32 floor is
    ``U = -37``, one unit of margin.  Probes sit where a float32 total's
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

    @pytest.mark.parametrize("unit,tier", [(-37, "f32"), (-38, "f64")])
    def test_slack_verdicts_at_the_floor(self, unit, tier):
        costs, p = _instance((1 << 24) - 1, (1,), unit)
        assert ofp._exact_tier(costs, p) == tier
        assert self._disagreements(unit) == 0
        for seed in range(4):
            _same_as_reference(costs, p, seed=seed)

    def test_slack_flips_below_the_margin(self):
        """Two units lower the float32 slack rounds a one-unit
        improvement into a tie: the probes can see a wrong floor."""
        assert self._disagreements(-39) > 0


# ----------------------------------------------------------------------
# The shape rule: an "f64" context runs the sweep's matmuls in float32 on
# a rows x cols table when M * max(rows, cols) < 2**24, with M its
# largest |w1 - w0| in units of 2**U, 2**(U-1) a float32 (U >= -148) and
# M * max(rows, cols) * 2**U below 2**128.  Only the per-candidate totals
# stay float64.  Tables are 2**free x 2**bound, so the nearest products
# either side of the bound are 2**24 - max(rows, cols) and 2**24.
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
            ((1 << 18) - 1, ofp._F32_SUMS),  # M * 64 = 2**24 - 64
            (1 << 18, ofp._F64_TIER),  # M * 64 = 2**24
            (1 << 20, ofp._F64_TIER),  # sums past 2**24 units
        ],
        ids=["below", "at", "past"],
    )
    def test_span_boundary(self, bound, spread, dtypes):
        """9 inputs: 64 x 8 tables (b = 3) and 8 x 64 ones (b = 6)."""
        costs, p = _spread_instance(spread, 9, -9)
        context = KernelContext(costs, p, 9)
        assert context.verdict == ofp._Verdict("f64", None, spread, -9)
        rows, cols = 1 << (9 - bound), 1 << bound
        assert context.sweep_dtypes(rows, cols) == dtypes
        used = _dispatched_vs_reference(costs, p, 9, bound)
        assert used == (1 if dtypes == ofp._F32_SUMS else 0)

    @pytest.mark.parametrize(
        "unit,dtypes",
        [(-148, ofp._F32_SUMS), (-149, ofp._F64_TIER)],
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
            assert context.verdict == ofp._Verdict("f64", None, 3, unit)
            assert context.sweep_dtypes(16, 8) == dtypes
            used = _dispatched_vs_reference(costs, p, 7, 3, seed=seed)
            assert used == (1 if dtypes == ofp._F32_SUMS else 0)

    @pytest.mark.parametrize(
        "unit,dtypes",
        [(104, ofp._F32_SUMS), (105, ofp._F64_TIER)],
        ids=["f32-sums", "f64"],
    )
    def test_unit_ceiling(self, unit, dtypes):
        """``M * max(rows, cols) = 2**24 - 64`` units of ``2**U`` stays
        below ``2**128``, finite in float32, up to ``U = 104``."""
        spread = (1 << 18) - 1
        costs, p = _spread_instance(spread, 9, unit)
        context = KernelContext(costs, p, 9)
        assert context.verdict == ofp._Verdict("f64", None, spread, unit)
        assert context.sweep_dtypes(64, 8) == dtypes
        used = _dispatched_vs_reference(costs, p, 9, 3)
        assert used == (1 if dtypes == ofp._F32_SUMS else 0)

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
            assert context.verdict == ofp._Verdict("f64", None, spread, -7)
            assert context.sweep_dtypes(4, 32) == ofp._F64_TIER
            assert context.cofactor({0: 1}).sweep_dtypes(4, 16) == ofp._F32_SUMS
            def solve():
                caching.clear_caches()
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
        if verdict.tier is not None:
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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("max_sweeps", [0, 1, 50])
    def test_exact_sweep_totals_are_float64(self, dtype, batch, max_sweeps):
        """Both tiers, with or without the B = 1 shortcut, return the
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


class TestWeightPlanes:
    @settings(max_examples=50, deadline=None, suppress_health_check=_SUPPRESS)
    @given(data=st.data())
    def test_masked_sum_is_exact(self, data):
        n = data.draw(st.integers(1, 130), label="n")
        weights = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 1 << 45), min_size=n, max_size=n
                ),
                label="weights",
            ),
            dtype=np.int64,
        )
        mask = np.asarray(
            data.draw(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                label="mask",
            ),
            dtype=np.uint8,
        )
        planes = WeightPlanes(weights)
        expected = sum(int(w) for w, b in zip(weights, mask) if b)
        assert planes.masked_sum(pack_bits(mask)) == expected
        assert planes.total() == sum(int(w) for w in weights)

    def test_rejects_negative_and_non_integer(self):
        with pytest.raises(ValueError):
            WeightPlanes(np.array([1, -1]))
        with pytest.raises(ValueError):
            WeightPlanes(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            WeightPlanes(np.array([], dtype=np.int64))


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
            caching.clear_caches()
            serial.append(
                opt_for_part_many(
                    costs, p, partitions, n_inputs, initial_patterns=stacked
                )
            )
        caching.clear_caches()
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
        caching.clear_caches()
        serial_ref = opt_for_part_many(
            costs, random_p, partitions, 6, initial_patterns=stacked
        )
        caching.clear_caches()
        serial_packed = opt_for_part_many(
            costs, uniform_p, partitions, 6, initial_patterns=stacked
        )
        caching.clear_caches()
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
