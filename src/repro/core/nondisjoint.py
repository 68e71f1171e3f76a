"""Approximate non-disjoint decomposition (paper §IV-B1).

A non-disjoint decomposition ``f(X) = F(φ(B), A, x_s)`` shares one
bound variable ``x_s`` with the free part.  By Eq. (2) of the paper,
minimising its MED is equivalent to independently minimising the MEDs
of the two cofactor functions ``t_0 = t|x_s=0`` and ``t_1 = t|x_s=1``
under the corresponding conditional input distributions — each a plain
disjoint-decomposition problem over ``X \\ {x_s}`` that ``OptForPart``
solves.

The shared bit is unknown a priori; :func:`optimize_nondisjoint`
enumerates every bound variable and keeps the best.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .. import caching
from ..boolean import ops
from ..boolean.decomposition import MultiSharedDecomposition, NonDisjointDecomposition
from ..boolean.partition import Partition
from .cost import BitCosts
from .opt_for_part import (
    KernelContext,
    KernelRequest,
    opt_for_part,
    opt_for_part_grouped,
)

__all__ = [
    "NonDisjointResult",
    "MultiSharedResult",
    "optimize_nondisjoint",
    "optimize_nondisjoint_shared",
    "optimize_multi_shared",
]


@dataclass(frozen=True)
class NonDisjointResult:
    """Best non-disjoint decomposition found for a partition."""

    error: float
    decomposition: NonDisjointDecomposition

    @property
    def shared(self) -> int:
        return self.decomposition.shared


def _reduced_partition(partition: Partition, shared: int) -> Partition:
    """Partition over the reduced variable numbering (``x_s`` deleted)."""

    def shift(v: int) -> int:
        return v - 1 if v > shared else v

    return Partition(
        tuple(shift(v) for v in partition.free),
        tuple(shift(v) for v in partition.bound if v != shared),
    )


def _half_problem(
    costs: BitCosts, p: np.ndarray, n_inputs: int, fixed: Dict[int, int]
) -> Tuple[BitCosts, np.ndarray]:
    """Conditional cost vectors + weights for one shared-bit assignment.

    ``fixed`` maps each shared bit to its value; the cofactor slices of
    the cost vectors and of the (unnormalised) conditional distribution
    are indexed by the reduced input word.  The serial reference loops
    solve these copies as standalone problems; the batched loops solve
    the same halves as :meth:`KernelContext.cofactor` views of the
    parent, bit for bit the same problems.
    """
    half_costs = BitCosts(
        costs.k,
        ops.cofactor(costs.cost0, n_inputs, fixed),
        ops.cofactor(costs.cost1, n_inputs, fixed),
    )
    weights = ops.cofactor(np.asarray(p, dtype=np.float64), n_inputs, fixed)
    return half_costs, weights


def optimize_nondisjoint_shared(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    shared: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> NonDisjointResult:
    """Optimal ND decomposition for a *given* shared bound variable.

    Splits the per-input cost vectors by the value of ``x_s`` and
    solves the two conditional disjoint problems; the reported error is
    the sum of the two conditional (probability-weighted, unnormalised)
    errors, i.e. exactly the total MED contribution of this output bit.
    """
    if shared not in partition.bound:
        raise ValueError(f"shared variable {shared} not in bound set")
    if partition.n_bound < 2:
        raise ValueError(
            "non-disjoint decomposition needs a bound set of size >= 2 "
            "(removing the shared bit must leave a non-empty bound table)"
        )
    reduced = _reduced_partition(partition, shared)

    halves = []
    total_error = 0.0
    for j in (0, 1):
        half_costs, weights = _half_problem(costs, p, n_inputs, {shared: j})
        result = opt_for_part(
            half_costs,
            weights,
            reduced,
            n_inputs - 1,
            n_initial_patterns=n_initial_patterns,
            rng=rng,
        )
        halves.append(result.decomposition)
        total_error += result.error

    decomposition = NonDisjointDecomposition(
        partition,
        shared,
        halves[0].pattern,
        halves[0].types,
        halves[1].pattern,
        halves[1].types,
    )
    return NonDisjointResult(total_error, decomposition)


def optimize_nondisjoint(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
    shared_candidates: Optional[Iterable[int]] = None,
) -> NonDisjointResult:
    """Enumerate shared-bit choices over the bound set, keep the best.

    ``shared_candidates`` restricts the enumeration (defaults to the
    full bound set, as the paper does).

    With the fast paths on and an explicit ``rng``, the whole
    enumeration is *batched*: the per-half initial patterns are pre-drawn
    in exactly the serial call order, every conditional half problem
    becomes a :class:`~repro.core.opt_for_part.KernelRequest` over a
    :meth:`~repro.core.opt_for_part.KernelContext.cofactor` view of the
    parent context (one weighting and one gate verdict for all halves),
    and all ``2 * len(candidates)`` halves run in one
    :func:`~repro.core.opt_for_part.opt_for_part_grouped` pass.  The
    generator stream and every returned bit match the serial loop;
    strict ``<`` keeps the first-best tie-breaking.
    """
    candidates = (
        tuple(shared_candidates) if shared_candidates is not None else partition.bound
    )
    if not candidates:
        raise ValueError("at least one shared-bit candidate is required")
    # validates the shapes for both loops
    context = KernelContext(costs, p, n_inputs)
    if rng is not None and caching.fast_paths_enabled():
        return _optimize_nondisjoint_fused(
            context, partition, candidates, n_initial_patterns, rng
        )
    best: Optional[NonDisjointResult] = None
    for shared in candidates:
        result = optimize_nondisjoint_shared(
            costs,
            p,
            partition,
            n_inputs,
            shared,
            n_initial_patterns=n_initial_patterns,
            rng=rng,
        )
        if best is None or result.error < best.error:
            best = result
    assert best is not None
    return best


def _optimize_nondisjoint_fused(
    context: KernelContext,
    partition: Partition,
    candidates: Tuple[int, ...],
    n_initial_patterns: int,
    rng: np.random.Generator,
) -> NonDisjointResult:
    """Batched shared-bit enumeration; bitwise equal to the serial loop."""
    if partition.n_bound < 2:
        raise ValueError(
            "non-disjoint decomposition needs a bound set of size >= 2 "
            "(removing the shared bit must leave a non-empty bound table)"
        )
    for shared in candidates:
        if shared not in partition.bound:
            raise ValueError(f"shared variable {shared} not in bound set")
    if n_initial_patterns < 1:
        raise ValueError("n_initial_patterns must be >= 1")
    requests: List[KernelRequest] = []
    for shared in candidates:
        reduced = _reduced_partition(partition, shared)
        for j in (0, 1):
            # the serial loop's opt_for_part draws happen candidate-
            # major, half-minor — replicate that exact stream here
            patterns = rng.integers(
                0, 2, size=(n_initial_patterns, reduced.n_cols), dtype=np.uint8
            )
            requests.append(
                KernelRequest(context.cofactor({shared: j}), [reduced], patterns[None])
            )
    evaluated = opt_for_part_grouped(requests)
    best: Optional[NonDisjointResult] = None
    for index, shared in enumerate(candidates):
        half0 = evaluated[2 * index][0]
        half1 = evaluated[2 * index + 1][0]
        error = half0.error + half1.error
        if best is None or error < best.error:
            decomposition = NonDisjointDecomposition(
                partition,
                shared,
                half0.decomposition.pattern,
                half0.decomposition.types,
                half1.decomposition.pattern,
                half1.decomposition.types,
            )
            best = NonDisjointResult(error, decomposition)
    assert best is not None
    return best


@dataclass(frozen=True)
class MultiSharedResult:
    """Best generalised (multi-shared-bit) decomposition found."""

    error: float
    decomposition: MultiSharedDecomposition

    @property
    def shared(self) -> Tuple[int, ...]:
        return self.decomposition.shared


def optimize_multi_shared(
    costs: BitCosts,
    p: np.ndarray,
    partition: Partition,
    n_inputs: int,
    shared: Iterable[int],
    *,
    n_initial_patterns: int = 30,
    rng: Optional[np.random.Generator] = None,
) -> MultiSharedResult:
    """Optimal generalised ND decomposition for a given shared set ``C``.

    Extends the paper's Eq. (2) to ``|C| = s`` shared bits: the total
    MED splits into ``2**s`` conditional disjoint problems over
    ``X \\ C``, each solved independently by ``OptForPart``.  Costs grow
    as ``2**s`` free tables, which is exactly why the paper stops at
    ``s = 1``; this function exists to quantify that trade-off (see the
    ``bench_ablations`` shared-bits study).
    """
    shared = tuple(sorted(int(v) for v in shared))
    if not shared:
        raise ValueError("at least one shared variable is required")
    if len(set(shared)) != len(shared):
        raise ValueError(f"shared variables must be distinct, got {shared}")
    for v in shared:
        if v not in partition.bound:
            raise ValueError(f"shared variable {v} not in bound set")
    if len(shared) >= partition.n_bound:
        raise ValueError("|C| must be smaller than the bound set")
    # validates the shapes for both loops
    context = KernelContext(costs, p, n_inputs)

    shared_set = set(shared)

    def shift(v: int) -> int:
        return v - sum(1 for s in shared if s < v)

    reduced = Partition(
        tuple(shift(v) for v in partition.free),
        tuple(shift(v) for v in partition.bound if v not in shared_set),
    )

    def assignment(j: int) -> Dict[int, int]:
        """Values of the shared bits in cofactor ``j`` (bit ``i`` -> ``shared[i]``)."""
        return {bit: (j >> i) & 1 for i, bit in enumerate(shared)}

    patterns = []
    types = []
    total_error = 0.0
    if rng is not None and caching.fast_paths_enabled():
        # batched: pre-draw each cofactor's patterns in the serial call
        # order and solve all 2**s conditional problems, as views of
        # the parent context, in one grouped kernel pass — bitwise
        # equal to the loop below
        if n_initial_patterns < 1:
            raise ValueError("n_initial_patterns must be >= 1")
        requests = []
        for j in range(1 << len(shared)):
            draw = rng.integers(
                0, 2, size=(n_initial_patterns, reduced.n_cols), dtype=np.uint8
            )
            requests.append(
                KernelRequest(context.cofactor(assignment(j)), [reduced], draw[None])
            )
        for (result,) in opt_for_part_grouped(requests):
            patterns.append(result.decomposition.pattern)
            types.append(result.decomposition.types)
            total_error += result.error
        decomposition = MultiSharedDecomposition(
            partition, shared, tuple(patterns), tuple(types)
        )
        return MultiSharedResult(total_error, decomposition)
    for j in range(1 << len(shared)):
        half_costs, weights = _half_problem(costs, p, n_inputs, assignment(j))
        result = opt_for_part(
            half_costs,
            weights,
            reduced,
            n_inputs - len(shared),
            n_initial_patterns=n_initial_patterns,
            rng=rng,
        )
        patterns.append(result.decomposition.pattern)
        types.append(result.decomposition.types)
        total_error += result.error

    decomposition = MultiSharedDecomposition(
        partition, shared, tuple(patterns), tuple(types)
    )
    return MultiSharedResult(total_error, decomposition)
