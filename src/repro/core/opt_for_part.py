"""``OptForPart``: optimise (V, T) for a fixed variable partition.

This is the inner kernel both DALTA and BS-SA spend most of their time
in (paper §II-B).  Given the weighted cost matrices of assigning the
output bit to 0/1 for every (row, column) of the 2D truth table, it
alternately optimises

* the type vector ``T`` given the pattern vector ``V`` — each row
  independently picks the cheapest of the four row types, and
* the pattern vector ``V`` given ``T`` — each column independently
  picks the bit minimising the cost over the type-3/type-4 rows,

starting from ``Z`` random initial pattern vectors and keeping the best
local optimum.  Both half-steps are exact, so the alternation is
monotonically non-increasing and terminates.

The BTO variant (§IV-A) restricts ``T`` to all type-3 rows; the optimal
``V`` is then found exactly in a single pass, no random restarts
needed.

Two implementations (see ``docs/performance.md``)
-------------------------------------------------
* **The reference** (:func:`_alternate_reference`): the paper-literal
  serial alternation over :func:`_optimal_types_core` /
  :func:`_optimal_patterns_core`, one partition at a time.  It is the
  only kernel when the fast-path switch is off (``REPRO_FAST_PATHS=0``
  or :func:`repro.caching.fast_paths`), and the production fallback
  for instances the exactness gate rejects.
* **The exact sweep** (:func:`_alternate_exact`, :class:`_ExactSweep`):
  production's kernel for every instance that passes the
  *dyadic-exactness* gate of :func:`_gate` — integer-valued,
  non-negative cost vectors together with an input distribution whose
  weights all scale to integers on one dyadic unit ``2**U``, small
  enough that every intermediate the kernel forms is an integer
  multiple of ``2**(U-1)`` below 2**53.  Under that gate every float
  the sweep produces is exact, so its algebraically restructured
  half-steps — complement costs from hoisted row sums instead of two
  extra matmuls, one sign-test matmul for the patterns, pairwise type
  selection with reference tie-breaking — return bit-for-bit the
  reference's patterns, types, and totals while running a fraction of
  its work.  It evaluates a whole stacked batch of same-shape
  partitions at once and freezes each item at exactly the sweep where
  the serial loop would stop.  Its matmuls run in float32 wherever the
  gate's bounds prove every partial sum on the table's shape exact in
  float32 (:meth:`KernelContext.sweep_dtypes`).

Both read one :class:`KernelContext` per ``(costs, p)`` pair: the
search loops build it once per context and pass it to every call, so
the gate verdict and the weighted grids are computed once.  The
differential suites under ``tests/core`` pin production to the
reference.

Grouped dispatch
----------------
:func:`opt_for_part_grouped` evaluates a *list* of
:class:`KernelRequest` batches — possibly from different ``(costs,
p)`` contexts, such as the conditional halves of an ND or multi-shared
decomposition — in one pass: items are grouped by table shape and the
sweep's dtypes (:meth:`KernelContext.sweep_dtypes`) and executed in
chunks up to ``_BATCH_LIMIT`` wide, each item bitwise equal to its
standalone call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .. import blas, caching, obs
from ..boolean import ops
from ..boolean.decomposition import (
    BoundOnlyDecomposition,
    DisjointDecomposition,
    RowType,
)
from ..boolean.packed import WeightPlanes, pack_bits
from ..boolean.partition import Partition
from .cost import BitCosts

__all__ = [
    "OptForPartResult",
    "KernelContext",
    "KernelRequest",
    "result_memo",
    "opt_for_part",
    "opt_for_part_many",
    "opt_for_part_grouped",
    "opt_for_part_bto",
    "opt_for_part_exhaustive",
    "opt_for_part_exhaustive_many",
]

#: safety cap on alternation sweeps; convergence is typically < 10
_DEFAULT_MAX_SWEEPS = 60

#: stacked-batch size cap: bounds peak memory of the (B, rows, cols)
#: cost stacks without measurably hurting the amortisation
_BATCH_LIMIT = 64

# RowType values hoisted to plain ints: enum attribute lookups show up
# in kernel profiles (they run once per row-mask per sweep per call)
_T_ZERO = int(RowType.ALL_ZERO)
_T_ONE = int(RowType.ALL_ONE)
_T_PATTERN = int(RowType.PATTERN)
_T_COMPLEMENT = int(RowType.COMPLEMENT)

#: always empty: no kernel result is cached.  ``perfbench/tracer.py``
#: reads its hit/miss counts on every traced search call for the
#: ``kernel.memo_hit_ratio`` metric, which therefore reports 0
_EMPTY_MEMO = caching.LruCache("opt.memo", maxsize=1, register=False)


def _partition_axes(partition: Partition, n_inputs: int) -> Tuple[int, ...]:
    """Transpose axes mapping the flat weight grid to ``partition``'s table.

    A weight vector reshaped to ``(2,) * n_inputs`` (axis 0 = the most
    significant input bit) and transposed by these axes reads out, when
    flattened, exactly the ``gather_index`` permutation of the vector:
    the first ``n_free`` axes enumerate rows, the rest columns.  Unlike
    a fancy ``take`` over a precomputed index array, the transpose is a
    view — the gather is a single strided copy with no index traffic.
    """
    order = (*reversed(partition.free), *reversed(partition.bound))
    return tuple(n_inputs - 1 - bit for bit in order)


def result_memo() -> caching.LruCache:
    """The always-empty ``opt.memo`` cache ``perfbench/tracer.py`` reads."""
    return _EMPTY_MEMO


@dataclass(frozen=True)
class OptForPartResult:
    """Outcome of ``OptForPart`` for one partition.

    ``error`` is the probability-weighted total cost (the MED, or the
    model-predicted MED in round 1) of the returned decomposition.
    """

    error: float
    decomposition: DisjointDecomposition

    @property
    def partition(self) -> Partition:
        return self.decomposition.partition

    @property
    def pattern(self) -> np.ndarray:
        return self.decomposition.pattern

    @property
    def types(self) -> np.ndarray:
        return self.decomposition.types


# ----------------------------------------------------------------------
# The reference: the two exact half-steps and the serial alternation.
#
# The half-steps keep a leading partition axis so the exhaustive oracle
# can stack its items (stacked matmul dispatches the identical BLAS
# call per slice, and axis sums reduce each slice in the same order);
# the alternation itself runs them with B = 1, one partition at a time.
# ----------------------------------------------------------------------


def _row_sums(d0: np.ndarray, d1: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row all-0 / all-1 costs ``(B, rows)`` — sweep-invariant."""
    return d0.sum(axis=2), d1.sum(axis=2)


def _optimal_types_core(
    d0: np.ndarray,
    d1: np.ndarray,
    patterns: np.ndarray,
    zero_cost: np.ndarray,
    one_cost: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best type per row for each candidate pattern vector.

    ``d0``/``d1`` have shape ``(B, rows, cols)``, ``patterns``
    ``(B, Z, cols)`` and the row sums ``(B, rows)``; returns ``(types,
    totals)`` with shapes ``(B, Z, rows)`` and ``(B, Z)``.
    """
    v = patterns.astype(np.float64)
    w = 1.0 - v
    vt = v.transpose(0, 2, 1)  # (B, cols, Z)
    wt = w.transpose(0, 2, 1)
    pattern_cost = np.matmul(d0, wt) + np.matmul(d1, vt)  # type 3
    complement_cost = np.matmul(d0, vt) + np.matmul(d1, wt)  # type 4
    b, rows, z = pattern_cost.shape
    stacked = np.empty((4, b, rows, z))
    stacked[0] = zero_cost[:, :, None]
    stacked[1] = one_cost[:, :, None]
    stacked[2] = pattern_cost
    stacked[3] = complement_cost
    best = stacked.argmin(axis=0)  # (B, rows, Z) in 0..3
    # min picks the same element argmin indexes (ties hold equal values;
    # all entries are sums of non-negative terms, so no -0.0 asymmetry)
    row_costs = stacked.min(axis=0)
    return (best + 1).astype(np.int8).transpose(0, 2, 1), row_costs.sum(axis=1)


def _optimal_patterns_core(
    d0: np.ndarray,
    d1: np.ndarray,
    types: np.ndarray,
    zero_cost: np.ndarray,
    one_cost: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Best pattern vector per candidate given its type vector.

    ``types`` has shape ``(B, Z, rows)``; returns ``(patterns, totals)``
    with shapes ``(B, Z, cols)`` and ``(B, Z)``.
    """
    mask3 = (types == _T_PATTERN).astype(np.float64)  # (B, Z, rows)
    mask4 = (types == _T_COMPLEMENT).astype(np.float64)
    # cost of V[c]=1: type-3 rows pay d1, type-4 rows pay d0
    cost_one = np.matmul(mask3, d1) + np.matmul(mask4, d0)  # (B, Z, cols)
    cost_zero = np.matmul(mask3, d0) + np.matmul(mask4, d1)
    patterns = (cost_one < cost_zero).astype(np.uint8)
    column_total = np.minimum(cost_zero, cost_one).sum(axis=2)
    mask1 = types == _T_ZERO
    mask2 = types == _T_ONE
    constant_total = (
        np.matmul(mask1, zero_cost[..., None])
        + np.matmul(mask2, one_cost[..., None])
    )[..., 0]
    return patterns, column_total + constant_total


def _alternate_reference(
    d0: np.ndarray, d1: np.ndarray, patterns: np.ndarray, max_sweeps: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The paper's alternation for one partition, in B = 1 shapes.

    ``d0``/``d1`` have shape ``(1, rows, cols)`` and ``patterns``
    ``(1, Z, cols)``.  Alternates the two exact half-steps until no
    candidate's total improves, or ``max_sweeps`` sweeps ran.  Returns
    ``(patterns, types, totals, sweeps)`` with shapes ``(1, Z, cols)``,
    ``(1, Z, rows)`` and ``(1, Z)``, plus the sweep count.
    """
    zero_cost, one_cost = _row_sums(d0, d1)
    types, totals = _optimal_types_core(d0, d1, patterns, zero_cost, one_cost)
    sweeps = 0
    while sweeps < max_sweeps:
        sweeps += 1
        patterns, _ = _optimal_patterns_core(d0, d1, types, zero_cost, one_cost)
        types, new_totals = _optimal_types_core(
            d0, d1, patterns, zero_cost, one_cost
        )
        converged = bool((new_totals >= totals - 1e-12).all())
        totals = new_totals
        if converged:
            break
    return patterns, types, totals, sweeps


# ----------------------------------------------------------------------
# The dyadic-exactness gate and the exact sweep it unlocks.
# ----------------------------------------------------------------------


class _Verdict(NamedTuple):
    """What the one gate scan of a ``(costs, p)`` context found.

    ``tier`` is ``"f32"``, ``"f64"`` or ``None`` (the reference runs).
    ``reason`` says why a rejected context failed, and is counted once
    per context as ``opt.packed_rejected_<reason>``: ``"cost"`` (a
    fractional, negative or non-finite cost), ``"weight"`` (a weight
    that is negative, non-finite or wider than 52 bits on the common
    unit), ``"total"`` (``T >= 2**52``) or ``"unit"`` (``U < -1073``, or
    ``T * 2**U`` past the float64 range).  For an admitted context
    ``unit`` is the common dyadic unit ``U`` and ``bound`` the largest
    ``|w1 - w0|`` in units of ``2**U``, an exact integer: each entry's
    ``|cost1 - cost0| * w_i`` is at most its share of ``T``.
    """

    tier: Optional[str]
    reason: Optional[str] = None
    bound: int = 0
    unit: int = 0


#: the exact sweep's (matmul, totals) dtypes: the "f32" tier, an "f64"
#: context whose table shape keeps its partial sums float32-exact, and
#: the "f64" tier
_F32_TIER = (np.float32, np.float32)
_F32_SUMS = (np.float32, np.float64)
_F64_TIER = (np.float64, np.float64)


def _gate(costs: BitCosts, p: np.ndarray) -> _Verdict:
    """Dyadic-exactness gate: the exact sweep's precision tier.

    A tier is admitted when every float the alternation forms is
    *exactly representable* in it.  The cost vectors must be
    non-negative integers, and every supported weight must be a finite
    non-negative ``p_i = w_i * 2**U`` with an integer ``w_i`` of at
    most 52 bits on the least common dyadic unit ``U``.  The one exact
    integer total ``T = sum_i (cost0_i + cost1_i) * w_i`` then bounds
    every partial sum the kernel (exact sweep *or* reference) can
    form: they lie in ``[-T, T]`` in units of ``2**U``, and the msign
    half-step's in ``[-T, T]`` in units of ``2**(U-1)``.  So
    ``T < 2**52`` with ``U >= -1073`` and ``T * 2**U < 2**1024`` makes
    every intermediate an exact, finite float64 (the half-step's unit
    ``2**(U-1)`` must itself be a float, and the least subnormal is
    ``2**-1074``), and ``T < 2**24`` with ``U >= -37`` and
    ``T * 2**U < 2**128`` an exact, finite float32 — the bound on ``U``
    keeps the convergence test's ``1e-12`` slack resolving to the same
    verdict in both precisions (totals are spaced ``2**U`` apart, far
    wider than the slack or either tier's rounding radius).  Every
    bound is on ``T``, ``T * 2**U`` or ``U`` from below, and a
    cofactor's ``T * 2**U`` can only fall while its ``U`` only rises,
    so a cofactor never gates slower than its parent.
    Under the gate the tier's arithmetic is exact in any association
    order, so the exact sweep is bit-identical to the reference.  An
    ``"f64"`` context may still form its partial sums in float32 on a
    small enough table (:meth:`KernelContext.sweep_dtypes`), which is
    what the verdict's ``bound`` is for.

    ``T`` is accumulated in Python integers, so the verdict never
    rounds.  A constant distribution (the protocol default) has one
    weight, so ``T = w * sum_i comb_i`` is one integer sum; any other
    distribution forms ``T`` by weighted popcounts over the weights'
    bit-planes (:class:`~repro.boolean.packed.WeightPlanes`).  Entries
    with zero weight or zero cost add exactly 0.0 to every product the
    kernel forms and are left out; an instance with no such entry at
    all is exact in any tier (``"f32"``).
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        return _Verdict(None, "weight")
    c0, c1 = costs.cost0, costs.cost1
    # integer-valued (floor == value rejects NaN; infinities die below)
    if not (np.all(np.floor(c0) == c0) and np.all(np.floor(c1) == c1)):
        return _Verdict(None, "cost")
    hi = float(c0.max()) + float(c1.max())
    if not math.isfinite(hi) or float(c0.min()) < 0.0 or float(c1.min()) < 0.0:
        return _Verdict(None, "cost")
    p0 = float(p.flat[0])
    if bool(np.all(p == p0)):
        # constant distribution (the protocol default): one weight
        if not (math.isfinite(p0) and p0 >= 0.0):
            return _Verdict(None, "weight")
        # a float sum of non-negative integers is exact below 2**53, and
        # it reaches 2**52 exactly when the true sum does
        comb_sum = float(c0.sum()) + float(c1.sum())
        if p0 == 0.0 or comb_sum == 0.0:
            return _Verdict("f32")
        if comb_sum >= float(1 << 52):
            return _Verdict(None, "total")
        # p0 = m_int * 2**(exponent - 53), exact by construction of frexp
        mantissa, exponent = math.frexp(p0)
        m_int = int(mantissa * (1 << 53))
        trailing = (m_int & -m_int).bit_length() - 1
        unit = exponent - 53 + trailing
        # a weight of 53 bits or more makes T >= 2**52 on its own
        weight = m_int >> trailing
        total = weight * int(comb_sum)
        if total >= (1 << 52):
            return _Verdict(None, "total")
        bound = weight * int(np.abs(c1 - c0).max())
    else:
        if not bool(np.all(np.isfinite(p))) or float(p.min()) < 0.0:
            return _Verdict(None, "weight")
        combined = np.asarray(c0, dtype=np.float64) + np.asarray(
            c1, dtype=np.float64
        )
        support = (p > 0.0) & (combined > 0.0)
        if not bool(support.any()):
            return _Verdict("f32")
        comb = combined[support]
        if float(comb.max()) >= float(1 << 52):
            return _Verdict(None, "total")
        # p_i = m_int_i * 2**(exp_i - 53) with m_int in [2**52, 2**53) —
        # exact by construction of frexp/ldexp
        mant, exp = np.frexp(p[support])
        m_int = np.ldexp(mant, 53).astype(np.int64)
        low = (m_int & -m_int).astype(np.float64)
        trailing = np.frexp(low)[1] - 1
        odd = m_int >> trailing
        scale = exp.astype(np.int64) - 53 + trailing
        unit = int(scale.min())
        shift = scale - unit
        # bail before shifting: odd << shift must stay within 52 bits
        # both to avoid int64 overflow and to keep T's terms bounded
        odd_bits = np.frexp(odd.astype(np.float64))[1]
        if int((odd_bits + shift).max()) > 52:
            return _Verdict(None, "weight")
        weights = odd << shift
        comb_int = comb.astype(np.int64)
        planes = WeightPlanes(weights)
        total = 0
        for bit in range(int(comb_int.max()).bit_length()):
            mask = pack_bits(((comb_int >> np.int64(bit)) & 1).astype(np.uint8))
            total += planes.masked_sum(mask) << bit
            if total >= (1 << 52):
                return _Verdict(None, "total")
        # each product is at most its entry's term of T < 2**52: exact
        # in int64
        spread = np.abs(c1[support] - c0[support]).astype(np.int64)
        bound = int((spread * weights).max())
    # every partial sum is at most T * 2**U < 2**(T.bit_length() + U)
    magnitude = total.bit_length() + unit
    if unit < -1073 or magnitude > 1024:
        # the half-step's unit 2**(U-1) is below the least subnormal,
        # or a sum could pass the largest float64
        return _Verdict(None, "unit")
    if total < (1 << 24) and unit >= -37 and magnitude <= 128:
        return _Verdict("f32", None, bound, unit)
    return _Verdict("f64", None, bound, unit)


def _exact_tier(costs: BitCosts, p: np.ndarray) -> Optional[str]:
    """The gate's tier alone: ``"f32"``, ``"f64"`` or ``None``."""
    return _gate(costs, p).tier


class KernelContext:
    """One ``(costs, p)`` context, prepared once for every kernel call.

    Construction validates the shapes: ``cost0``, ``cost1`` and ``p``
    must be 1-D of length ``2**n_inputs``.  Everything else is built on
    first use and then kept, as ``(2,) * n_inputs`` grids with bit
    ``i`` on axis ``n-1-i`` (the axis convention of
    :func:`repro.boolean.ops.cofactor`):

    * :attr:`verdict` / :attr:`tier` — the gate scan (:func:`_gate`);
    * :meth:`weights` — the float64 grids ``cost0 * p`` / ``cost1 * p``
      that the reference, the BTO variant and the exhaustive oracle
      read;
    * :meth:`exact_weights` — ``w1 - w0`` in the sweep's matmul dtype
      and the total zero cost ``w0.sum()``, all the exact sweep reads.

    :meth:`cofactor` restricts a context to fixed input bits as views
    of those grids, so the ``2 * |candidates|`` half problems of a
    non-disjoint parent share one weighting and one gate scan.
    """

    __slots__ = (
        "n_inputs", "_costs", "_p", "_verdict",
        "_w0", "_w1", "_wdiff", "_zero_total", "_parent", "_index",
    )

    def __init__(self, costs: BitCosts, p: np.ndarray, n_inputs: int) -> None:
        n_inputs = int(n_inputs)
        if n_inputs < 0:
            raise ValueError(f"n_inputs must be non-negative, got {n_inputs}")
        p = np.asarray(p, dtype=np.float64)
        expected = (1 << n_inputs,)
        for name, values in (("cost0", costs.cost0), ("cost1", costs.cost1), ("p", p)):
            if np.shape(values) != expected:
                raise ValueError(
                    f"{name} has shape {np.shape(values)}, expected "
                    f"{expected} for n_inputs={n_inputs}"
                )
        self.n_inputs = n_inputs
        self._costs = costs
        self._p = p
        self._verdict: Optional[_Verdict] = None
        self._w0: Optional[np.ndarray] = None
        self._w1: Optional[np.ndarray] = None
        # w1 - w0 per matmul dtype
        self._wdiff: dict = {}
        self._zero_total: Optional[float] = None
        # a cofactor's parent context and its index into the parent grids
        self._parent: Optional[KernelContext] = None
        self._index: tuple = ()

    @property
    def verdict(self) -> _Verdict:
        """The gate scan, whatever the fast-path switch says.

        Counted once per scanned context when telemetry is on: a
        rejection as ``opt.packed_rejected_<reason>``.
        """
        if self._verdict is None:
            self._verdict = _gate(self._costs, self._p)
            if self._verdict.reason and obs.enabled():
                obs.incr(f"opt.packed_rejected_{self._verdict.reason}")
        return self._verdict

    @property
    def tier(self) -> Optional[str]:
        """The gate's tier: ``"f32"``, ``"f64"`` or ``None``."""
        return self.verdict.tier

    def sweep_dtypes(self, rows: int, cols: int) -> Tuple[type, type]:
        """``(matmul dtype, totals dtype)`` of the exact sweep on a
        ``rows x cols`` table of this (admitted) context.

        An ``"f32"`` context runs everything in float32.  On an
        ``"f64"`` one, with ``M`` the verdict's bound, the sweep's
        partial sums are ``diff`` entries (at most ``M`` units of
        ``2**U``), row sums and pattern costs (at most ``M * cols``
        units) and sign products (at most ``M * rows`` units of
        ``2**(U-1)``).  When ``S = M * max(rows, cols) < 2**24``,
        ``2**(U-1)`` is a float32 (``U >= -148``) and
        ``S * 2**U < 2**128`` each is an exact, finite float32, so the
        matmuls run in float32.  Only the per-candidate totals reach
        ``T``; they accumulate in float64, exact below ``2**52``, so the
        convergence test compares the reference's own float64 totals.
        """
        verdict = self.verdict
        if verdict.tier == "f32":
            return _F32_TIER
        span = verdict.bound * max(rows, cols)
        if (
            span < (1 << 24)
            and verdict.unit >= -148
            and span.bit_length() + verdict.unit <= 128
        ):
            return _F32_SUMS
        return _F64_TIER

    def weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """The weighted cost grids ``(w0, w1)``, float64."""
        if self._w0 is None:
            grid = (2,) * self.n_inputs
            w0, w1 = self._costs.weighted(self._p)
            self._w0, self._w1 = w0.reshape(grid), w1.reshape(grid)
        return self._w0, self._w1

    def _diff(self, dtype: type) -> np.ndarray:
        wdiff = self._wdiff.get(dtype)
        if wdiff is None:
            if self._parent is not None:
                wdiff = self._parent._diff(dtype)[self._index]
            else:
                # exact under the gate, and so is the float32 cast
                # wherever sweep_dtypes picks float32; it halves the
                # bytes the per-item transposes move
                w0, w1 = self.weights()
                wdiff = (w1 - w0).astype(dtype, copy=False)
            self._wdiff[dtype] = wdiff
        return wdiff

    def exact_weights(self, dtype: type) -> Tuple[np.ndarray, float]:
        """``(w1 - w0, w0.sum())`` for the exact sweep (gated tiers only).

        ``w1 - w0`` comes in ``dtype``, the matmul dtype
        :meth:`sweep_dtypes` picked.  ``w0.sum()`` is exact under the
        gate (an integer multiple of the common dyadic unit below the
        overflow bound), in any order.
        """
        if self._zero_total is None:
            self._zero_total = float(self.weights()[0].sum())
        return self._diff(dtype), self._zero_total

    def cofactor(self, fixed: Mapping[int, int]) -> "KernelContext":
        """The context restricted to ``fixed`` bits, over views of this one.

        ``fixed`` maps bit positions to 0/1, as in
        :func:`repro.boolean.ops.cofactor`; the cofactor lives on the
        remaining ``n_inputs - len(fixed)`` bits in their original
        order.  Its grids are basic slices of this context's: the
        products are elementwise, so a slice of ``cost * p`` equals the
        product of the slices bit for bit, and so does a slice of
        ``w1 - w0`` in either dtype.

        The cofactor inherits this context's verdict, bound and unit
        included.  Its supported weights are a subset of the parent's on
        the same costs, so its least dyadic unit ``U`` can only rise and
        its exact total ``T`` and largest ``|w1 - w0|`` only fall: its
        entries are multiples of the parent's ``2**U`` within the
        parent's bound, so every limit the parent's verdict passed, the
        cofactor passes too.  An ``"f32"`` parent has exact f32
        cofactors and an ``"f64"`` parent exact f64 ones (float32
        partial sums where the half's table shape allows); a rejected
        parent sends its cofactors to the reference.  The only loss is a
        cofactor that could have run a narrower tier than its parent.
        """
        index = ops.cofactor_index(self.n_inputs, fixed)
        w0, w1 = self.weights()
        view = KernelContext.__new__(KernelContext)
        view.n_inputs = self.n_inputs - len(fixed)
        view._costs = view._p = None
        view._verdict = self.verdict
        view._w0, view._w1 = w0[index], w1[index]
        view._wdiff = {}
        view._zero_total = None
        view._parent, view._index = self, index
        return view


def _engaged_tier(context: KernelContext) -> Optional[str]:
    """Production's gate verdict for ``context``, with telemetry.

    ``None`` whenever the fast-path switch is off: then the reference
    runs everything.
    """
    if not caching.fast_paths_enabled():
        return None
    tier = context.tier
    if obs.enabled():
        obs.incr("opt.packed_calls" if tier else "opt.packed_ineligible")
        if tier == "f32":
            obs.incr("opt.packed_f32_calls")
    return tier


def _sweep_dispatch(
    context: KernelContext, rows: int, cols: int
) -> Optional[Tuple[type, type]]:
    """Production's ``(matmul, totals)`` dtypes for one request of
    ``context`` on a ``rows x cols`` table, or ``None`` for the
    reference.  Counts ``opt.packed_f32_sums_calls`` for an ``"f64"``
    context whose matmuls run in float32."""
    if not _engaged_tier(context):
        return None
    dtypes = context.sweep_dtypes(rows, cols)
    if dtypes is _F32_SUMS and obs.enabled():
        obs.incr("opt.packed_f32_sums_calls")
    return dtypes


class _ExactSweep:
    """Hoisted state + buffers for the exact sweep.

    The entire sweep runs off ``diff = d1 - d0`` plus its per-row sums
    — the full cost matrices are never materialised.  Every cost is
    shifted down by the per-row zero cost: the shift cancels out of
    *all* comparisons (both sides of each strict ``<`` move by the same
    exact float) and re-enters the totals as one per-item scalar offset
    (see :func:`_alternate_exact`).  ``diff`` turns the two
    type-3/type-4 matmuls of the types half-step into one
    (``pattern_cost = diff @ Vᵀ``), the complement cost falls out of
    the hoisted row sums with zero matmuls (``complement = both -
    pattern``), and the patterns half-step only needs the *sign* of
    ``cost_zero - cost_one = (m4 - m3) @ diff`` — one matmul where the
    reference takes four.  Each identity holds *bitwise* — not just
    algebraically — because the gate guarantees every operand and sum
    is an exact float.  Type and pattern selection use strict
    comparisons so ties resolve exactly like the reference (first-index
    ``argmin``; a cost tie in the patterns step picks pattern bit 0,
    matching the reference's strict ``cost_one < cost_zero``).
    """

    __slots__ = (
        "diff", "diff_t", "both", "m01", "b01", "ones",
        "v", "pat", "comp", "m4", "g", "u4", "uvt",
    )

    def __init__(
        self, diff: np.ndarray, row_sums: np.ndarray, z: int, totals_dtype: type
    ) -> None:
        batch, rows, cols = diff.shape
        self.diff = diff
        self.diff_t = diff.transpose(0, 2, 1)
        # the sweep works in (B, Z, rows) orientation throughout — the
        # types come out ready for the masks and the final output with
        # no transposes, and the row reduction runs over the contiguous
        # last axis.  Row-state arrays carry a broadcast axis so the
        # half-steps never rebuild views per sweep.
        self.both = row_sums[:, None, :]
        self.m01 = np.minimum(0.0, row_sums)[:, None, :]
        # constant-row type by reference tie-breaking: ALL_ZERO unless
        # the all-one row is strictly cheaper (argmin prefers index 0)
        self.b01 = np.where(
            row_sums < 0.0, np.int8(_T_ONE), np.int8(_T_ZERO)
        )[:, None, :]
        # exact-sum reduction vector: under the gate a gemv against ones
        # is bitwise equal to ``pat.sum(axis=2)`` in any association
        # order, and roughly halves the dispatch.  Its dtype is the
        # totals' (float64 unless the whole context is "f32": an "f64"
        # context's totals can pass 2**24).  All other scratch follows
        # diff's dtype — float64, or float32 when the gate's bounds
        # prove the narrower significand exact too.
        dtype = diff.dtype
        self.ones = np.ones(rows, dtype=totals_dtype)
        self.v = np.empty((batch, z, cols), dtype=dtype)
        self.pat = np.empty((batch, z, rows), dtype=dtype)
        self.comp = np.empty((batch, z, rows), dtype=dtype)
        self.m4 = np.empty((batch, z, rows), dtype=dtype)
        self.g = np.empty((batch, z, cols), dtype=dtype)
        self.u4 = np.empty((batch, z, rows), dtype=bool)
        self.uvt = np.empty((batch, z, rows), dtype=bool)

    def compact(self, keep: np.ndarray) -> None:
        """Drop converged items; state shrinks, buffers re-slice."""
        self.diff = self.diff[keep]
        self.diff_t = self.diff.transpose(0, 2, 1)
        self.both = self.both[keep]
        self.m01 = self.m01[keep]
        self.b01 = self.b01[keep]
        b = self.diff.shape[0]
        self.v = self.v[:b]
        self.pat = self.pat[:b]
        self.comp = self.comp[:b]
        self.m4 = self.m4[:b]
        self.g = self.g[:b]
        self.u4 = self.u4[:b]
        self.uvt = self.uvt[:b]


def _exact_types_core(
    sweep: _ExactSweep, patterns: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact types half-step: one matmul, pairwise exact selection.

    Returns ``(use4, use_vt, totals)`` — the two selection masks plus
    the per-candidate totals.  The ``int8`` type vectors the reference
    emits are only needed when an item freezes, so the sweep loop
    carries the masks and :func:`_exact_types` materialises types on
    demand (most sweeps never do).  When ``patterns`` is ``None`` the
    candidates already sit in ``sweep.v`` (the patterns half-step
    writes them there as exact 0.0/1.0 floats, skipping a copy).
    """
    if patterns is not None:
        np.copyto(sweep.v, patterns)
    pat = sweep.pat
    np.matmul(sweep.v, sweep.diff_t, out=pat)
    comp = sweep.comp
    np.subtract(sweep.both, pat, out=comp)
    # among {pattern, complement}: argmin prefers the lower index, so
    # COMPLEMENT only on strict improvement
    use4 = np.less(comp, pat, out=sweep.u4)
    np.minimum(pat, comp, out=pat)  # pat now holds the {3,4} best cost
    # among {constants, pattern-group}: constants win ties (indices 0/1)
    use_vt = np.less(pat, sweep.m01, out=sweep.uvt)
    # min() selects the same value that where(use_vt, ...) would
    np.minimum(pat, sweep.m01, out=pat)
    # gemv against ones == pat.sum(axis=2), exact under the gate; a
    # float32 pat meets float64 ones where the totals can pass 2**24
    return use4, use_vt, np.matmul(pat, sweep.ones)


def _exact_types(
    use4: np.ndarray, use_vt: np.ndarray, b01: np.ndarray
) -> np.ndarray:
    """Materialise the reference ``int8`` type vectors from the masks."""
    return np.where(use_vt, use4 + np.int8(_T_PATTERN), b01)


def _exact_patterns_core(
    sweep: _ExactSweep, use4: np.ndarray, use_vt: np.ndarray
) -> np.ndarray:
    """Exact patterns half-step: one matmul, sign test only.

    The reference forms ``cost_zero`` and ``cost_one`` per column and
    compares them, but the alternation loop only consumes the
    *comparison* (its totals are never read — convergence is judged on
    the types half-step).  Under the gate the difference ``cost_zero -
    cost_one = (m4 - m3) @ diff`` is exact, so its sign reproduces the
    reference's strict ``cost_one < cost_zero`` bit for bit.  The 0/1
    result is written straight into ``sweep.v`` as exact floats — the
    very operand the next types half-step multiplies — so neither
    half-step pays a bool→float copy.
    """
    # msign = ((types == COMPLEMENT) - (types == PATTERN)) / 2, built
    # in two ops as use_vt * (use4 - 0.5).  The half-scale factors out
    # of the matmul *exactly* (every product and sum stays dyadic and
    # within the gate's bound), so the sign test below is unchanged
    msign = sweep.m4
    np.subtract(use4, 0.5, out=msign)
    msign *= use_vt
    np.matmul(msign, sweep.diff, out=sweep.g)
    return np.greater(sweep.g, 0.0, out=sweep.v, casting="unsafe")


def _alternate_exact(
    diff: np.ndarray,
    row_sums: np.ndarray,
    patterns: np.ndarray,
    max_sweeps: int,
    totals_offset: np.ndarray,
    totals_dtype: type,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The exact sweep over a stacked batch of partitions.

    ``diff`` is ``d1 - d0`` with shape ``(B, rows, cols)``,
    ``row_sums`` its per-row sums and ``totals_offset`` each item's
    total zero cost (an exact dyadic-integer scalar), which re-bases
    the relative totals to the reference's absolute ones bit for bit.
    The matmuls run in ``diff``'s dtype and the per-candidate totals
    accumulate in ``totals_dtype`` (:meth:`KernelContext.sweep_dtypes`).
    Each item converges (or hits ``max_sweeps``) independently and is
    frozen with exactly the state :func:`_alternate_reference` would
    return for it: the convergence test runs the reference's op order,
    and every item's trajectory is independent of its batchmates.

    Returns ``(patterns, types, totals, sweeps)`` with shapes
    ``(B, Z, cols)``, ``(B, Z, rows)``, ``(B, Z)``, ``(B,)``.
    """
    batch, z = diff.shape[0], patterns.shape[1]
    sweep = _ExactSweep(diff, row_sums, z, totals_dtype)
    use4, use_vt, totals = _exact_types_core(sweep, patterns)
    out_patterns = np.empty_like(patterns)
    out_types = np.empty((batch, z, diff.shape[1]), dtype=np.int8)
    # float64 in every dispatch, like the reference's totals and the
    # ``totals + totals_offset`` of the early returns below
    out_totals = np.empty(totals.shape)
    out_sweeps = np.zeros(batch, dtype=np.int64)
    if max_sweeps < 1:
        types = _exact_types(use4, use_vt, sweep.b01)
        return patterns.copy(), types, totals + totals_offset[:, None], out_sweeps

    if batch == 1:
        # one item: skip the freeze/compaction bookkeeping below — the
        # sequence of core calls is identical, so the bits are too
        sweeps = 0
        while True:
            sweeps += 1
            patterns = _exact_patterns_core(sweep, use4, use_vt)
            use4, use_vt, new_totals = _exact_types_core(sweep)
            converged = bool((new_totals >= totals - 1e-12).all())
            totals = new_totals
            if converged or sweeps >= max_sweeps:
                out_patterns[0] = patterns[0]
                out_sweeps[0] = sweeps
                types = _exact_types(use4, use_vt, sweep.b01)
                return out_patterns, types, totals + totals_offset[:, None], out_sweeps

    active = np.arange(batch)
    done_mask = np.zeros(batch, dtype=bool)
    # convergence-test scratch (re-sliced on compaction): the loop body
    # runs thousands of times per protocol pass, so the handful of
    # small temporaries it would otherwise allocate each iteration are
    # worth hoisting
    slack = np.empty_like(totals)
    slack_ok = np.empty(totals.shape, dtype=bool)
    conv = np.empty(batch, dtype=bool)
    newly_mask = np.empty(batch, dtype=bool)
    sweeps = 0
    while True:
        sweeps += 1
        patterns = _exact_patterns_core(sweep, use4, use_vt)
        use4, use_vt, new_totals = _exact_types_core(sweep)
        # same op order as the reference: (totals - 1e-12) then
        # the compare, so the f32 tier rounds the slack identically
        np.subtract(totals, 1e-12, out=slack)
        np.greater_equal(new_totals, slack, out=slack_ok)
        converged = np.logical_and.reduce(slack_ok, axis=1, out=conv)
        totals = new_totals
        finished = (
            converged
            if sweeps < max_sweeps
            else np.ones(active.size, dtype=bool)
        )
        # boolean ``finished & ~done_mask`` without the two temporaries
        newly = np.flatnonzero(np.greater(finished, done_mask, out=newly_mask))
        if newly.size:
            sel = active[newly]
            out_patterns[sel] = patterns[newly]
            out_types[sel] = _exact_types(
                use4[newly], use_vt[newly], sweep.b01[newly]
            )
            out_totals[sel] = totals[newly]
            out_sweeps[sel] = sweeps
            done_mask[newly] = True
            remaining = active.size - int(np.count_nonzero(done_mask))
            if remaining == 0:
                out_totals += totals_offset[:, None]
                return out_patterns, out_types, out_totals, out_sweeps
            # finished items keep riding the batch (their outputs are
            # frozen above, and every item's trajectory is independent
            # of its batchmates) until a quarter of the slots are dead
            # — at that point the dead matmul flops outweigh the
            # slicing the compaction costs (measured: eager 1/8
            # compaction wins for f64 sweeps but loses once the f32
            # tier halves the flop cost; 1/4 is the robust middle)
            if remaining * 4 <= active.size * 3:
                keep = ~done_mask
                active = active[keep]
                sweep.compact(keep)
                use4 = use4[keep]
                use_vt = use_vt[keep]
                totals = totals[keep]
                done_mask = np.zeros(active.size, dtype=bool)
                b = active.size
                slack = slack[:b]
                slack_ok = slack_ok[:b]
                conv = conv[:b]
                newly_mask = newly_mask[:b]


def _best_of(
    partition: Partition,
    patterns: np.ndarray,
    types: np.ndarray,
    totals: np.ndarray,
) -> OptForPartResult:
    """Pick the best candidate of one item's final alternation state."""
    best = int(totals.argmin())
    # copies detach the winner from the batch arrays (a result must
    # not pin them); _trusted skips re-validating vectors the exact
    # half-steps produced
    decomposition = DisjointDecomposition._trusted(
        partition, patterns[best].copy(), types[best].copy()
    )
    return OptForPartResult(float(totals[best]), decomposition)


def opt_for_part(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = _DEFAULT_MAX_SWEEPS,
    context: Optional[KernelContext] = None,
) -> OptForPartResult:
    """Optimise (V, T) for ``partition`` from random initial patterns.

    Parameters mirror the paper: ``n_initial_patterns`` is ``Z``.  The
    returned error is exact for the given cost model (no sampling).
    ``context`` is the :class:`KernelContext` of ``(costs, p)``; a
    caller that evaluates many partitions of one context passes it so
    the gate verdict and weighted grids are built once.
    """
    if context is None:
        context = KernelContext(costs, p, n_inputs)
    if rng is None:
        rng = np.random.default_rng()
    if n_initial_patterns < 1:
        raise ValueError("n_initial_patterns must be >= 1")
    patterns = rng.integers(
        0, 2, size=(n_initial_patterns, partition.n_cols), dtype=np.uint8
    )
    request = KernelRequest(context, [partition], patterns[None], max_sweeps)
    # Hot path: the disabled-telemetry branch avoids even the no-op
    # span allocation — this function dominates both algorithms.
    if not obs.enabled():
        return _grouped_eval([request])[0][0][0]
    with obs.span(
        "opt.for_part", n_bound=partition.n_bound, n_free=partition.n_free
    ) as span:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        results, sweeps = _grouped_eval([request])[0]
        result = results[0]
        obs.observe("opt.for_part_cpu_seconds", time.thread_time() - cpu_start)
        obs.observe("opt.for_part_seconds", time.perf_counter() - start)
        span.set(sweeps=sweeps, error=result.error)
        obs.incr("opt.calls")
        obs.incr("opt.sweeps", sweeps)
        obs.incr("opt.lut_entries", 2 << (n_inputs - 1))
        return result


def opt_for_part_many(
    costs: BitCosts,
    p: np.ndarray,
    partitions: Sequence[Partition],
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    max_sweeps: int = _DEFAULT_MAX_SWEEPS,
    context: Optional[KernelContext] = None,
    initial_patterns: Optional[Sequence[np.ndarray]] = None,
) -> List[OptForPartResult]:
    """Batched :func:`opt_for_part` over same-shape partitions.

    Every partition must induce the same ``(rows, cols)`` table shape
    (SA neighbours and fixed-``b`` random samples always do).  When
    ``initial_patterns`` is omitted, one ``(Z, cols)`` uint8 draw is
    taken from ``rng`` per partition *in order* — exactly the draws a
    loop of single calls would take, which is what makes a batched
    search bit-identical to the serial one.  Callers that interleave
    other generator use (partition sampling, SA acceptance) pre-draw
    the patterns themselves and pass them in — either as a sequence of
    ``(Z, cols)`` arrays or as one stacked ``(N, Z, cols)`` array (the
    search loops build the stack directly, skipping a re-stack here).

    Results are returned in input order; each is bitwise equal to the
    corresponding single-partition call.  ``context`` is as in
    :func:`opt_for_part`.
    """
    if context is None:
        context = KernelContext(costs, p, n_inputs)
    partitions = list(partitions)
    if not partitions:
        return []
    shape = (partitions[0].n_rows, partitions[0].n_cols)
    for partition in partitions:
        if (partition.n_rows, partition.n_cols) != shape:
            raise ValueError(
                "opt_for_part_many needs partitions of one (free, bound) "
                f"shape; got {(partition.n_rows, partition.n_cols)} and {shape}"
            )
    if initial_patterns is None:
        if n_initial_patterns < 1:
            raise ValueError("n_initial_patterns must be >= 1")
        if rng is None:
            rng = np.random.default_rng()
        # one preallocated stack, one rng draw per partition *in order*
        # — the same generator stream as a loop of single calls
        stacked = np.empty(
            (len(partitions), n_initial_patterns, shape[1]), dtype=np.uint8
        )
        for index, partition in enumerate(partitions):
            stacked[index] = rng.integers(
                0, 2, size=(n_initial_patterns, partition.n_cols), dtype=np.uint8
            )
    elif isinstance(initial_patterns, np.ndarray):
        if initial_patterns.ndim != 3 or len(initial_patterns) != len(partitions):
            raise ValueError(
                "stacked initial patterns must have shape (n_partitions, Z, cols)"
            )
        stacked = initial_patterns
    else:
        initial_patterns = list(initial_patterns)
        if len(initial_patterns) != len(partitions):
            raise ValueError("one initial-pattern array is required per partition")
        for patterns in initial_patterns:
            if patterns.shape != initial_patterns[0].shape:
                raise ValueError("initial-pattern arrays must share one shape")
        stacked = np.stack(initial_patterns)

    request = KernelRequest(context, partitions, stacked, max_sweeps)
    if not obs.enabled():
        return _grouped_eval([request])[0][0]
    with obs.span(
        "opt.for_part_many",
        batch=len(partitions),
        n_bound=partitions[0].n_bound,
        n_free=partitions[0].n_free,
    ) as span:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        results, total_sweeps = _grouped_eval([request])[0]
        obs.observe("opt.for_part_cpu_seconds", time.thread_time() - cpu_start)
        obs.observe("opt.for_part_seconds", time.perf_counter() - start)
        span.set(sweeps=total_sweeps)
        obs.incr("opt.calls", len(partitions))
        obs.incr("opt.sweeps", total_sweeps)
        obs.incr("opt.lut_entries", len(partitions) * (2 << (n_inputs - 1)))
        return results


class KernelRequest:
    """One ``opt_for_part_many`` batch, ready for grouped dispatch.

    Bundles everything :func:`_grouped_eval` consumes — the
    :class:`KernelContext`, the partitions, the pre-drawn ``(N, Z,
    cols)`` pattern stack, and the sweep cap — so requests from
    *different* contexts (the cofactor halves of one ND or
    multi-shared decomposition) can ride one
    :func:`opt_for_part_grouped` pass.  The pattern stack is captured
    by reference; callers must not mutate it until the request
    resolves.
    """

    __slots__ = ("context", "partitions", "stacked", "max_sweeps")

    def __init__(
        self,
        context: KernelContext,
        partitions: Sequence[Partition],
        stacked: np.ndarray,
        max_sweeps: int = _DEFAULT_MAX_SWEEPS,
    ) -> None:
        self.context = context
        self.partitions = list(partitions)
        self.stacked = stacked
        self.max_sweeps = max_sweeps


def opt_for_part_grouped(
    requests: Sequence[KernelRequest],
) -> List[List[OptForPartResult]]:
    """Grouped evaluation of several batches in one kernel pass.

    Items from all requests are grouped by table shape, candidate
    count, sweep cap, and the sweep's dtypes, and executed in stacked chunks up
    to ``_BATCH_LIMIT`` wide — each item bitwise equal to its
    standalone :func:`opt_for_part_many` call.  Returns one result
    list per request, in request order.  Telemetry: a single
    ``opt.for_part_grouped`` span covering the pass and the usual
    ``opt.calls`` / ``opt.sweeps`` / ``opt.lut_entries`` counters.
    """
    requests = list(requests)
    if not requests:
        return []
    total = sum(len(request.partitions) for request in requests)
    if not obs.enabled():
        return [results for results, _ in _grouped_eval(requests)]
    with obs.span(
        "opt.for_part_grouped", requests=len(requests), items=total
    ) as span:
        start = time.perf_counter()
        cpu_start = time.thread_time()
        evaluated = _grouped_eval(requests)
        obs.observe("opt.for_part_cpu_seconds", time.thread_time() - cpu_start)
        obs.observe("opt.for_part_seconds", time.perf_counter() - start)
        total_sweeps = sum(sweeps for _, sweeps in evaluated)
        span.set(sweeps=total_sweeps)
        obs.incr("opt.calls", total)
        obs.incr("opt.sweeps", total_sweeps)
        for request in requests:
            obs.incr(
                "opt.lut_entries",
                len(request.partitions) * (2 << (request.context.n_inputs - 1)),
            )
        return [results for results, _ in evaluated]


@blas.single_threaded
def _grouped_eval(
    requests: List[KernelRequest],
) -> List[Tuple[List[OptForPartResult], int]]:
    """Shared engine behind :func:`opt_for_part`, :func:`opt_for_part_many`
    and :func:`opt_for_part_grouped`.

    Returns ``(results, total_sweeps)`` per request.  Items the gate
    admits run the exact sweep in stacked chunks (with many requests
    the chunks simply interleave items, which the exact sweep keeps
    independent); every other item runs the reference on its own.

    Runs BLAS on one thread (:mod:`repro.blas`): parallelism comes from
    the process pool, and OpenBLAS helper threads in every pool worker
    would oversubscribe the cores.  The bits do not depend on it.
    """
    results: List[List[Optional[OptForPartResult]]] = []
    item_sweeps: List[List[int]] = []
    # (rows, cols, Z, max_sweeps, dtypes) → [(request idx, item idx)];
    # dtypes is the sweep's (matmul, totals) pair, None for the reference
    groups: dict = {}
    for ri, request in enumerate(requests):
        count = len(request.partitions)
        results.append([None] * count)
        item_sweeps.append([0] * count)
        if count:
            rows, cols = request.partitions[0].n_rows, request.partitions[0].n_cols
            gkey = (
                rows,
                cols,
                request.stacked.shape[1],
                request.max_sweeps,
                _sweep_dispatch(request.context, rows, cols),
            )
            groups.setdefault(gkey, []).extend((ri, ii) for ii in range(count))

    for gkey, members in groups.items():
        rows, cols, z, group_sweeps, dtypes = gkey
        for start in range(0, len(members), _BATCH_LIMIT):
            chunk = members[start : start + _BATCH_LIMIT]
            b = len(chunk)
            ri0, ii0 = chunk[0]
            if chunk[-1] == (ri0, ii0 + b - 1) and all(
                item == (ri0, ii0 + k) for k, item in enumerate(chunk)
            ):
                # one request, consecutive items (the common serial
                # case): the caller's stack IS the chunk stack — the
                # sweeps only read it, so skip the per-item copies
                patterns = requests[ri0].stacked[ii0 : ii0 + b]
            else:
                patterns = np.empty(
                    (b, z, cols), dtype=requests[ri0].stacked.dtype
                )
                for j, (ri, ii) in enumerate(chunk):
                    patterns[j] = requests[ri].stacked[ii]
            if dtypes:
                # the exact sweep consumes only diff = d1 - d0 plus each
                # item's *total* zero cost — a single scalar, since the
                # per-row zero costs cancel out of every comparison and
                # re-enter the totals as one exact offset
                dtype, totals_dtype = dtypes
                diff = np.empty((b, rows, cols), dtype=dtype)
                offsets = np.empty(b)
                for j, (ri, ii) in enumerate(chunk):
                    context = requests[ri].context
                    wdiff, offsets[j] = context.exact_weights(dtype)
                    axes = _partition_axes(
                        requests[ri].partitions[ii], context.n_inputs
                    )
                    np.copyto(diff[j].reshape(wdiff.shape), wdiff.transpose(axes))
                # the diff row sums are the only per-row state the
                # exact sweep needs (exact integer-scaled sums under the
                # gate, so any association order gives the same bits);
                # each item's total zero cost re-bases its final totals
                fin_patterns, fin_types, fin_totals, fin_sweeps = (
                    _alternate_exact(
                        diff,
                        diff.sum(axis=2),
                        patterns,
                        group_sweeps,
                        offsets,
                        totals_dtype,
                    )
                )
            else:
                fin_patterns = np.empty_like(patterns)
                fin_types = np.empty((b, z, rows), dtype=np.int8)
                fin_totals = np.empty((b, z))
                fin_sweeps = np.empty(b, dtype=np.int64)
                # C-contiguous tables: the reference's float sums and
                # matmuls are not exact here, so their bits depend on
                # the memory layout, not only on the values
                d0 = np.empty((1, rows, cols))
                d1 = np.empty_like(d0)
                for j, (ri, ii) in enumerate(chunk):
                    context = requests[ri].context
                    w0, w1 = context.weights()
                    # the transposed grid, flattened, is the partition's
                    # (rows x cols) table: one strided copy per matrix
                    axes = _partition_axes(
                        requests[ri].partitions[ii], context.n_inputs
                    )
                    np.copyto(d0.reshape(w0.shape), w0.transpose(axes))
                    np.copyto(d1.reshape(w1.shape), w1.transpose(axes))
                    pat, typ, tot, fin_sweeps[j] = _alternate_reference(
                        d0,
                        d1,
                        patterns[j : j + 1],
                        group_sweeps,
                    )
                    fin_patterns[j], fin_types[j], fin_totals[j] = (
                        pat[0], typ[0], tot[0]
                    )
            # one argmin pass for the whole chunk; ties break exactly
            # like the exhaustive oracle's _best_of (first index wins)
            winners = fin_totals.argmin(axis=1)
            # gather every winner in one fancy-index pass — the result
            # owns its data, so the per-item rows below are views into
            # it rather than 2B separate slice+copy numpy calls
            arange_b = np.arange(b)
            best_patterns = fin_patterns[arange_b, winners]
            best_types = fin_types[arange_b, winners]
            best_totals = fin_totals[arange_b, winners].tolist()
            sweeps_list = fin_sweeps.tolist()
            for j, (ri, ii) in enumerate(chunk):
                decomposition = DisjointDecomposition._trusted(
                    requests[ri].partitions[ii],
                    best_patterns[j],
                    best_types[j],
                )
                results[ri][ii] = OptForPartResult(best_totals[j], decomposition)
                item_sweeps[ri][ii] = sweeps_list[j]

    return [
        (results[ri], sum(item_sweeps[ri]))  # type: ignore[misc]
        for ri in range(len(requests))
    ]


def opt_for_part_bto(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    context: Optional[KernelContext] = None,
) -> OptForPartResult:
    """BTO-restricted ``OptForPart``: all rows are forced to type 3.

    With ``T`` fixed, the optimal ``V`` decomposes per column and is
    found exactly — no random restarts, no alternation, no generator
    use.  ``context`` is as in :func:`opt_for_part`.
    """
    if context is None:
        context = KernelContext(costs, p, n_inputs)
    if obs.enabled():
        # the per-column sums below run on every tier; the verdict
        # only feeds the gate counters
        _engaged_tier(context)
    w0, w1 = context.weights()
    axes = _partition_axes(partition, n_inputs)
    table = (partition.n_rows, partition.n_cols)
    # summed as C-contiguous tables, row after row: outside the gate
    # the sums are not exact, so the order of addition sets the bits
    cost_zero = np.ascontiguousarray(w0.transpose(axes)).reshape(table).sum(axis=0)
    cost_one = np.ascontiguousarray(w1.transpose(axes)).reshape(table).sum(axis=0)
    pattern = (cost_one < cost_zero).astype(np.uint8)
    error = float(np.minimum(cost_zero, cost_one).sum())
    result = OptForPartResult(error, BoundOnlyDecomposition(partition, pattern))
    if obs.enabled():
        obs.incr("opt.bto_calls")
    return result


def opt_for_part_exhaustive(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
) -> OptForPartResult:
    """Global optimum by enumerating every pattern vector.

    Exponential in ``2**b`` — a test oracle for small bound sets
    (``b <= 4``), verifying that the alternating optimisation finds the
    true optimum often and never reports a better-than-possible error.
    Single-partition view of :func:`opt_for_part_exhaustive_many`.
    """
    return opt_for_part_exhaustive_many(costs, p, [partition], n_inputs)[0]


def opt_for_part_exhaustive_many(
    costs: BitCosts,
    p: np.ndarray,
    partitions: Sequence[Partition],
    n_inputs: int,
) -> List[OptForPartResult]:
    """Batched exhaustive oracle over same-shape partitions.

    Accepts the same batched inputs as :func:`opt_for_part_many` (one
    ``(free, bound)`` shape, results in input order) so
    oracle comparisons in the property suites can evaluate a whole
    partition batch without hand-rolled loops.  The oracle always runs
    the *reference* types half-step — it is the thing the exact sweep
    is judged against — and every batch item is bitwise equal to a
    standalone :func:`opt_for_part_exhaustive` call.
    """
    partitions = list(partitions)
    if not partitions:
        return []
    shape = (partitions[0].n_rows, partitions[0].n_cols)
    for partition in partitions:
        if (partition.n_rows, partition.n_cols) != shape:
            raise ValueError(
                "opt_for_part_exhaustive_many needs partitions of one "
                f"(free, bound) shape; got "
                f"{(partition.n_rows, partition.n_cols)} and {shape}"
            )
        if partition.n_bound > 4:
            raise ValueError(
                f"exhaustive search over 2**{partition.n_cols} patterns "
                "refused; use bound sets of size <= 4"
            )
    w0, w1 = KernelContext(costs, p, n_inputs).weights()
    rows, cols = shape
    n_patterns = 1 << cols
    shifts = np.arange(cols, dtype=np.int64)
    patterns = (
        (np.arange(n_patterns, dtype=np.int64)[:, None] >> shifts) & 1
    ).astype(np.uint8)
    # the enumeration axis replaces Z, so the per-item float footprint
    # is 2**b times larger than a search sweep's; scale the chunk size
    # down accordingly
    chunk_size = max(1, (_BATCH_LIMIT * 32) // n_patterns)
    results: List[OptForPartResult] = []
    for start in range(0, len(partitions), chunk_size):
        chunk = partitions[start : start + chunk_size]
        d0 = np.empty((len(chunk), rows, cols))
        d1 = np.empty_like(d0)
        for j, partition in enumerate(chunk):
            axes = _partition_axes(partition, n_inputs)
            np.copyto(d0[j].reshape(w0.shape), w0.transpose(axes))
            np.copyto(d1[j].reshape(w1.shape), w1.transpose(axes))
        stacked = np.broadcast_to(patterns, (len(chunk), n_patterns, cols))
        types, totals = _optimal_types_core(d0, d1, stacked, *_row_sums(d0, d1))
        for j, partition in enumerate(chunk):
            results.append(_best_of(partition, patterns, types[j], totals[j]))
    return results
