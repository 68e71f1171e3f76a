"""Property tests of the OptForPart kernel against exact oracles.

Three invariants back the performance layer (hypothesis-driven):

* the alternating heuristic can never *beat* the exhaustive pattern
  search — for bound sets small enough to enumerate, the exhaustive
  result is the true optimum of the (V, T) space;
* the reported error always equals the independently recomputed
  weighted cost of the returned decomposition (no drift between the
  kernel's matrix arithmetic and the semantic evaluation path); and
* both half-steps are exact coordinate minimisations, so alternation
  totals are monotonically non-increasing from any start.
"""

import importlib

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.boolean import Partition
from repro.boolean.truth_table import to_matrix
from repro.core import (
    cost_vectors_fixed,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_exhaustive,
    opt_for_part_exhaustive_many,
    opt_for_part_many,
)
from repro.metrics import distributions

# the package re-exports the function under the module's name, so the
# module itself has to be imported explicitly
_kernel = importlib.import_module("repro.core.opt_for_part")

#: slack for comparing error totals computed along different reduction
#: orders (the values themselves are exact sums of probabilities)
_TOL = 1e-9


@st.composite
def bounded_instances(draw):
    """A random (costs, p, partition) instance with ``|B| <= 4``."""
    n = draw(st.integers(4, 6))
    bound_size = draw(st.integers(1, min(4, n - 1)))
    seed = draw(st.integers(0, 2**31 - 1))
    uniform = draw(st.booleans())
    z = draw(st.integers(1, 12))
    rng = np.random.default_rng(seed)
    variables = [int(v) for v in rng.permutation(n)]
    partition = Partition(
        tuple(variables[bound_size:]), tuple(variables[:bound_size])
    )
    bits = rng.integers(0, 2, size=1 << n, dtype=np.int64)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    if uniform:
        p = distributions.uniform(n)
    else:
        raw = rng.random(1 << n) + 1e-3
        p = raw / raw.sum()
    return n, partition, costs, p, z, seed


@st.composite
def bounded_batches(draw):
    """A cost context plus several same-shape partitions (``|B| <= 3``)."""
    n = draw(st.integers(4, 6))
    bound_size = draw(st.integers(1, min(3, n - 1)))
    count = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    partitions = []
    for _ in range(count):
        variables = [int(v) for v in rng.permutation(n)]
        partitions.append(
            Partition(tuple(variables[bound_size:]), tuple(variables[:bound_size]))
        )
    bits = rng.integers(0, 2, size=1 << n, dtype=np.int64)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    return n, partitions, costs, distributions.uniform(n), seed


class TestExhaustiveOracle:
    @settings(max_examples=40, deadline=None)
    @given(bounded_instances())
    def test_alternation_never_beats_exhaustive(self, instance):
        n, partition, costs, p, z, seed = instance
        exact = opt_for_part_exhaustive(costs, p, partition, n)
        heuristic = opt_for_part(
            costs,
            p,
            partition,
            n,
            n_initial_patterns=z,
            rng=np.random.default_rng(seed),
        )
        assert heuristic.error >= exact.error - _TOL

    @settings(max_examples=40, deadline=None)
    @given(bounded_instances())
    def test_bto_never_beats_exhaustive(self, instance):
        n, partition, costs, p, _, _ = instance
        exact = opt_for_part_exhaustive(costs, p, partition, n)
        bto = opt_for_part_bto(costs, p, partition, n)
        assert bto.error >= exact.error - _TOL


class TestBatchedOracle:
    @settings(max_examples=25, deadline=None)
    @given(bounded_batches())
    def test_batched_oracle_equals_serial(self, instance):
        """``exhaustive_many`` is bitwise a loop of single oracle calls."""
        n, partitions, costs, p, _ = instance
        batched = opt_for_part_exhaustive_many(costs, p, partitions, n)
        for partition, item in zip(partitions, batched):
            serial = opt_for_part_exhaustive(costs, p, partition, n)
            assert item.error == serial.error
            assert np.array_equal(item.pattern, serial.pattern)
            assert np.array_equal(item.types, serial.types)

    @settings(max_examples=25, deadline=None)
    @given(bounded_batches())
    def test_batched_alternation_never_beats_batched_oracle(self, instance):
        n, partitions, costs, p, seed = instance
        oracles = opt_for_part_exhaustive_many(costs, p, partitions, n)
        heuristics = opt_for_part_many(
            costs,
            p,
            partitions,
            n,
            n_initial_patterns=6,
            rng=np.random.default_rng(seed),
        )
        for heuristic, oracle in zip(heuristics, oracles):
            assert heuristic.error >= oracle.error - _TOL


class TestReportedError:
    @settings(max_examples=40, deadline=None)
    @given(bounded_instances())
    def test_error_equals_recomputed_cost(self, instance):
        n, partition, costs, p, z, seed = instance
        result = opt_for_part(
            costs,
            p,
            partition,
            n,
            n_initial_patterns=z,
            rng=np.random.default_rng(seed),
        )
        recomputed = costs.evaluate(result.decomposition.evaluate(n), p)
        assert np.isclose(result.error, recomputed, rtol=0, atol=_TOL)

    @settings(max_examples=20, deadline=None)
    @given(bounded_instances())
    def test_exhaustive_error_equals_recomputed_cost(self, instance):
        n, partition, costs, p, _, _ = instance
        result = opt_for_part_exhaustive(costs, p, partition, n)
        recomputed = costs.evaluate(result.decomposition.evaluate(n), p)
        assert np.isclose(result.error, recomputed, rtol=0, atol=_TOL)


def _assignment_totals(d0, d1, patterns, types):
    """Cost of each candidate's ``(V, T)``, summed row by row.

    ``d0``/``d1`` are ``(1, rows, cols)``, ``patterns`` ``(1, Z, cols)``
    and ``types`` ``(1, Z, rows)``; returns ``(1, Z)``.  Written from the
    row-type definitions, not from the kernel's half-steps.
    """
    v = patterns.astype(np.float64)[:, :, None, :]  # (1, Z, 1, cols)
    d0z, d1z = d0[:, None], d1[:, None]  # (1, 1, rows, cols)
    per_type = np.broadcast_arrays(
        d0z.sum(axis=3),  # all-0 row
        d1z.sum(axis=3),  # all-1 row
        (d0z * (1 - v) + d1z * v).sum(axis=3),  # the pattern
        (d0z * v + d1z * (1 - v)).sum(axis=3),  # its complement
    )
    rows = np.choose(types.astype(np.intp) - 1, per_type)
    return rows.sum(axis=2)


class TestMonotoneAlternation:
    @settings(max_examples=40, deadline=None)
    @given(bounded_instances())
    def test_totals_non_increasing(self, instance):
        n, partition, costs, p, z, seed = instance
        rng = np.random.default_rng(seed)
        d0, d1 = (to_matrix(w, partition, n)[None] for w in costs.weighted(p))
        sums = _kernel._row_sums(d0, d1)
        patterns = rng.integers(
            0, 2, size=(1, z, partition.n_cols), dtype=np.uint8
        )
        types, totals = _kernel._optimal_types_core(d0, d1, patterns, *sums)
        assert np.allclose(
            totals, _assignment_totals(d0, d1, patterns, types), rtol=0, atol=_TOL
        )
        previous = totals
        for _ in range(6):
            patterns = _kernel._optimal_patterns_core(d0, d1, types)
            after_patterns = _assignment_totals(d0, d1, patterns, types)
            assert np.all(after_patterns <= previous + _TOL)
            types, after_types = _kernel._optimal_types_core(
                d0, d1, patterns, *sums
            )
            assert np.all(after_types <= after_patterns + _TOL)
            previous = after_types
