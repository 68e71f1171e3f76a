"""Unit tests for the generalised multi-shared-bit decomposition."""

import numpy as np
import pytest

from repro.boolean import (
    MultiSharedDecomposition,
    NonDisjointDecomposition,
    Partition,
)
from repro.core import (
    cost_vectors_fixed,
    optimize_multi_shared,
    optimize_nondisjoint_shared,
)
from repro.metrics import distributions

from ..conftest import random_bits
from .test_nondisjoint import (
    ND_CONTEXTS,
    layout_context,
    nd_context,
    switch_digests,
)


def _costs(bits):
    bits = np.asarray(bits, dtype=np.int64)
    return cost_vectors_fixed(bits, np.zeros_like(bits), 0)


@pytest.fixture
def instance(rng):
    n = 6
    bits = random_bits(n, rng)
    return n, _costs(bits), distributions.uniform(n), Partition((4, 5), (0, 1, 2, 3))


class TestMultiSharedDecomposition:
    def _build(self, rng, shared=(1, 3)):
        partition = Partition((4, 5), (0, 1, 2, 3))
        count = 1 << len(shared)
        reduced_cols = partition.n_cols >> len(shared)
        patterns = tuple(
            rng.integers(0, 2, size=reduced_cols).astype(np.uint8)
            for _ in range(count)
        )
        types = tuple(
            rng.integers(1, 5, size=partition.n_rows).astype(np.int8)
            for _ in range(count)
        )
        return MultiSharedDecomposition(partition, shared, patterns, types)

    def test_validation(self, rng):
        partition = Partition((4, 5), (0, 1, 2, 3))
        with pytest.raises(ValueError, match="at least one"):
            MultiSharedDecomposition(partition, (), (), ())
        with pytest.raises(ValueError, match="not in the bound set"):
            self._build(rng, shared=(4, 1))
        with pytest.raises(ValueError, match="< |B|".replace("|", r"\|")):
            self._build(rng, shared=(0, 1, 2, 3))

    def test_cofactor_identity(self, rng):
        """Restricting the shared bits recovers the j-th half."""
        dec = self._build(rng)
        bits = dec.evaluate(6)
        halves = dec.halves()
        for x in range(64):
            j = ((x >> 1) & 1) | (((x >> 3) & 1) << 1)  # shared = (1, 3)
            reduced = (x & 1) | (((x >> 2) & 1) << 1) | ((x >> 4) << 2)
            assert bits[x] == halves[j].evaluate(4)[reduced]

    def test_bound_table_merges(self, rng):
        dec = self._build(rng)
        merged = dec.bound_table()
        # bound address packs (x1, x2, x3, x4); shared are x2, x4
        for col in range(16):
            j = ((col >> 1) & 1) | (((col >> 3) & 1) << 1)
            reduced = (col & 1) | (((col >> 2) & 1) << 1)
            assert merged[col] == dec.patterns[j][reduced]

    def test_lut_entries_scale(self, rng):
        dec1 = self._build(rng, shared=(1,))
        dec2 = self._build(rng, shared=(1, 3))
        rows = dec1.partition.n_rows
        assert dec1.lut_entries() == 16 + 2 * 2 * rows
        assert dec2.lut_entries() == 16 + 4 * 2 * rows

    def test_single_shared_matches_paper_class(self, rng):
        """s = 1 must coincide with NonDisjointDecomposition."""
        partition = Partition((4, 5), (0, 1, 2, 3))
        pattern0 = rng.integers(0, 2, size=8).astype(np.uint8)
        pattern1 = rng.integers(0, 2, size=8).astype(np.uint8)
        types0 = rng.integers(1, 5, size=4).astype(np.int8)
        types1 = rng.integers(1, 5, size=4).astype(np.int8)
        paper = NonDisjointDecomposition(
            partition, 2, pattern0, types0, pattern1, types1
        )
        general = MultiSharedDecomposition(
            partition, (2,), (pattern0, pattern1), (types0, types1)
        )
        np.testing.assert_array_equal(paper.evaluate(6), general.evaluate(6))
        np.testing.assert_array_equal(paper.bound_table(), general.bound_table())


class TestOptimizeMultiShared:
    def test_error_is_exact(self, instance, rng):
        n, costs, p, partition = instance
        result = optimize_multi_shared(
            costs, p, partition, n, [1, 3], n_initial_patterns=8, rng=rng
        )
        recomputed = costs.evaluate(result.decomposition.evaluate(n), p)
        assert result.error == pytest.approx(recomputed)

    def test_matches_single_shared_api(self, instance):
        """s = 1 via the general path equals the paper-faithful path."""
        n, costs, p, partition = instance
        single = optimize_nondisjoint_shared(
            costs,
            p,
            partition,
            n,
            2,
            n_initial_patterns=32,
            rng=np.random.default_rng(0),
        )
        general = optimize_multi_shared(
            costs,
            p,
            partition,
            n,
            [2],
            n_initial_patterns=32,
            rng=np.random.default_rng(0),
        )
        assert general.error == pytest.approx(single.error)

    def test_more_shared_bits_never_hurt_with_oracle_budget(self, instance):
        """With generous restarts on tiny halves, s=2 <= s=1 <= s=0 error."""
        n, costs, p, partition = instance
        from repro.core import opt_for_part

        rng = np.random.default_rng(1)
        disjoint = opt_for_part(
            costs, p, partition, n, n_initial_patterns=64, rng=rng
        )
        one = optimize_multi_shared(
            costs, p, partition, n, [1], n_initial_patterns=64, rng=rng
        )
        two = optimize_multi_shared(
            costs, p, partition, n, [1, 3], n_initial_patterns=64, rng=rng
        )
        assert one.error <= disjoint.error + 1e-9
        assert two.error <= one.error + 1e-9

    def test_validation(self, instance, rng):
        n, costs, p, partition = instance
        with pytest.raises(ValueError, match="at least one"):
            optimize_multi_shared(costs, p, partition, n, [], rng=rng)
        with pytest.raises(ValueError, match="not in bound set"):
            optimize_multi_shared(costs, p, partition, n, [5], rng=rng)
        with pytest.raises(ValueError, match="smaller than"):
            optimize_multi_shared(costs, p, partition, n, [0, 1, 2, 3], rng=rng)

    @pytest.mark.parametrize("fused", [True, False])
    def test_repeated_shared_bit_rejected(self, instance, fused):
        n, costs, p, partition = instance
        rng = np.random.default_rng(0) if fused else None
        with pytest.raises(ValueError, match="must be distinct"):
            optimize_multi_shared(costs, p, partition, n, [3, 3], rng=rng)

    #: sha256 of the serial reference loop's results (one copied
    #: ``opt_for_part`` problem per cofactor), captured before that loop
    #: was deleted; see ``switch_digests``
    DIGESTS = {
        "every-cofactor": {
            "sparse-bits": (
                "fc84eb89a037728b83f07a25e1aad2d364550379c69050aea411c24febd329f2"
            ),
            "subnormal-half": (
                "bf0eb696ab6ef9019c510567983b7b82f68774a7e76d5f8a6de5908cadaf6bbf"
            ),
            "truncated-gaussian": (
                "6be96b7b43906121578aab9ea43319fc5d1f04c64803ca4b82d7c0455bd00b09"
            ),
            "uniform-12": (
                "e3492c0c0513c06bc17fd6ea8617d4a630eda4f4a0f832259165064bf0b2aea0"
            ),
            "uniform-8": (
                "5df8791dd2dd0a01edb70bf40f9e0934a9de04b2ef17e2325e5fedb4955e4760"
            ),
        },
        "inside-the-bound-range": {
            "truncated-gaussian": (
                "122b8aa4eb3835b2d1121d95cc996625461fd795cce0d207a8b59233e5750859"
            ),
            "geometric": (
                "ee290f2d78096de7888d50579fc0d44814850a8be49e8229f1c8d732ad1448f0"
            ),
        },
    }

    @pytest.mark.parametrize("name", sorted(ND_CONTEXTS))
    def test_fused_byte_identical_to_serial(self, name):
        """All 2**s cofactors as views of the parent reach the loop's bytes."""
        costs, p, n_inputs, partition = nd_context(name)
        shared = partition.bound[1:3]
        digests = switch_digests(
            [
                lambda rng: optimize_multi_shared(
                    costs, p, partition, n_inputs, shared,
                    n_initial_patterns=4, rng=rng,
                )
            ]
        )
        want = self.DIGESTS["every-cofactor"][name]
        assert digests == {True: want, False: want}

    @pytest.mark.parametrize("distribution", ["truncated-gaussian", "geometric"])
    def test_shared_bit_inside_the_bound_range(self, distribution):
        """Gate-rejected cofactors of shared bit 5, bound bits 3-6."""
        solves = []
        for seed in range(12):
            costs, p, n_inputs, partition = layout_context(distribution, seed)
            solves.append(
                lambda rng, costs=costs, p=p: optimize_multi_shared(
                    costs, p, partition, n_inputs, [5],
                    n_initial_patterns=4, rng=rng,
                )
            )
        want = self.DIGESTS["inside-the-bound-range"][distribution]
        assert switch_digests(solves) == {True: want, False: want}


class TestMultiSharedHardware:
    def test_design_functional(self, rng):
        from repro.boolean import BooleanFunction
        from repro.core import Setting, SettingSequence
        from repro.hardware import MultiSharedNdDesign, verify_design

        n = 6
        table = rng.integers(0, 4, size=64).astype(np.int64)
        target = BooleanFunction(n, 2, table, name="ms")
        partition = Partition((4, 5), (0, 1, 2, 3))
        p = distributions.uniform(n)
        settings = []
        for k in range(2):
            rest = target.table & ~np.int64(1 << k)
            costs = cost_vectors_fixed(target.table, rest, k)
            result = optimize_multi_shared(
                costs, p, partition, n, [0, 2], n_initial_patterns=8, rng=rng
            )
            settings.append(Setting(result.error, result.decomposition))
        design = MultiSharedNdDesign(
            "ms", target, SettingSequence(2, settings), n_shared_max=2
        )
        assert verify_design(design, exhaustive=True).passed

    def test_hosts_disjoint_settings(self, rng):
        from repro.core import AlgorithmConfig, run_bssa
        from repro.hardware import MultiSharedNdDesign, verify_design

        from ..conftest import random_function

        target = random_function(6, 3, rng, name="host")
        compiled = run_bssa(target, AlgorithmConfig.fast(seed=2), rng=rng)
        design = MultiSharedNdDesign(
            "host", target, compiled.sequence, n_shared_max=2
        )
        assert verify_design(design, n_vectors=64).passed

    def test_area_grows_with_shared_max(self, rng):
        from repro.core import AlgorithmConfig, run_bssa
        from repro.hardware import MultiSharedNdDesign

        from ..conftest import random_function

        target = random_function(6, 2, rng, name="area")
        compiled = run_bssa(target, AlgorithmConfig.fast(seed=2), rng=rng)
        small = MultiSharedNdDesign("s1", target, compiled.sequence, 1)
        large = MultiSharedNdDesign("s2", target, compiled.sequence, 2)
        assert large.area_um2() > small.area_um2()
