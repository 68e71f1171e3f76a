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
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..boolean.decomposition import MultiSharedDecomposition, NonDisjointDecomposition
from ..boolean.partition import Partition
from .cost import BitCosts
from .opt_for_part import (
    KernelContext,
    KernelRequest,
    draw_patterns,
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


def _reduced_partition(partition: Partition, shared: Tuple[int, ...]) -> Partition:
    """Partition over the reduced variable numbering (the ``shared``
    bits deleted)."""

    def shift(v: int) -> int:
        return v - sum(1 for s in shared if s < v)

    return Partition(
        tuple(shift(v) for v in partition.free),
        tuple(shift(v) for v in partition.bound if v not in shared),
    )


def _check_candidates(partition: Partition, candidates: Tuple[int, ...]) -> None:
    """The ND argument checks, made before any draw."""
    if partition.n_bound < 2:
        raise ValueError(
            "non-disjoint decomposition needs a bound set of size >= 2 "
            "(removing the shared bit must leave a non-empty bound table)"
        )
    if not candidates:
        raise ValueError("at least one shared-bit candidate is required")
    for shared in candidates:
        if shared not in partition.bound:
            raise ValueError(f"shared variable {shared} not in bound set")


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
    This is :func:`optimize_nondisjoint` with ``shared`` its one
    candidate.
    """
    return optimize_nondisjoint(
        costs,
        p,
        partition,
        n_inputs,
        n_initial_patterns=n_initial_patterns,
        rng=rng,
        shared_candidates=(shared,),
    )


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

    The whole enumeration is one batch: every conditional half problem
    becomes a :class:`~repro.core.opt_for_part.KernelRequest` over a
    :meth:`~repro.core.opt_for_part.KernelContext.cofactor` view of the
    parent context (one weighting and one gate verdict for all halves),
    its initial patterns drawn candidate-major, half-minor, and all
    ``2 * len(candidates)`` halves run in one
    :func:`~repro.core.opt_for_part.opt_for_part_grouped` pass.  Strict
    ``<`` keeps the first-best on ties.  Without ``rng`` the patterns
    come from one fresh ``np.random.default_rng()``.
    """
    candidates = (
        tuple(shared_candidates) if shared_candidates is not None else partition.bound
    )
    _check_candidates(partition, candidates)
    context = KernelContext(costs, p, n_inputs)
    # every reduced partition has the same shape
    halves = [
        (shared, j, _reduced_partition(partition, (shared,)))
        for shared in candidates
        for j in (0, 1)
    ]
    draws = draw_patterns(
        rng or np.random.default_rng(),
        [reduced for _, _, reduced in halves],
        n_initial_patterns,
    )
    evaluated = opt_for_part_grouped(
        [
            KernelRequest(
                context.cofactor({shared: j}), [reduced], draws[i : i + 1]
            )
            for i, (shared, j, reduced) in enumerate(halves)
        ]
    )
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
    context = KernelContext(costs, p, n_inputs)
    reduced = _reduced_partition(partition, shared)

    def assignment(j: int) -> Dict[int, int]:
        """Values of the shared bits in cofactor ``j`` (bit ``i`` -> ``shared[i]``)."""
        return {bit: (j >> i) & 1 for i, bit in enumerate(shared)}

    # all 2**s conditional problems, as views of the parent context, in
    # one grouped kernel pass; patterns drawn in cofactor order
    count = 1 << len(shared)
    draws = draw_patterns(
        rng or np.random.default_rng(), [reduced] * count, n_initial_patterns
    )
    results = opt_for_part_grouped(
        [
            KernelRequest(context.cofactor(assignment(j)), [reduced], draws[j : j + 1])
            for j in range(count)
        ]
    )
    decomposition = MultiSharedDecomposition(
        partition,
        shared,
        tuple(result.decomposition.pattern for (result,) in results),
        tuple(result.decomposition.types for (result,) in results),
    )
    return MultiSharedResult(
        sum(result.error for (result,) in results), decomposition
    )
