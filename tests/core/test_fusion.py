"""Cross-layer kernel fusion: widened gate, grouped engine, hub, runs.

Four contracts, each pinned differentially against the serial /
reference code paths:

* the exactness gate admits general weighted input distributions
  exactly when every kernel intermediate is provably exact (dyadic
  weights within the integer-float range) and the exact sweep stays
  byte-identical to the reference under it — for non-dyadic weights
  the gate must refuse and the reference run;
* :class:`repro.boolean.packed.WeightPlanes` computes exact weighted
  popcounts (the gate's certificate arithmetic);
* :func:`repro.core.opt_for_part.opt_for_part_grouped` returns, for
  every request, exactly what that request's own
  ``opt_for_part_many`` call would return;
* a :class:`repro.core.fusion.FusionHub` (and its run-level wrapper
  :func:`repro.experiments.parallel.run_specs_fused`) leaves every
  party's results and generator stream byte-identical to standalone
  execution, across BS-SA and DALTA on all architectures.
"""

from __future__ import annotations

import importlib
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import caching, compile_api
from repro.boolean import random_partition
from repro.boolean.packed import WeightPlanes, pack_bits
from repro.core import cost_vectors_fixed, opt_for_part_many
from repro.core.fusion import FusionHub, current_hub
from repro.core.opt_for_part import (
    KernelContext,
    KernelRequest,
    opt_for_part_grouped,
)
from repro.experiments.parallel import run_specs_fused
from repro.metrics import distributions

from ..conftest import random_bits
from .test_fast_paths import _run_fingerprint, _same_result

ofp = importlib.import_module("repro.core.opt_for_part")

_SUPPRESS = [HealthCheck.function_scoped_fixture]


@pytest.fixture(autouse=True)
def fresh_caches():
    caching.clear_caches()
    yield
    caching.clear_caches()


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
        for fused_results, serial_results in zip(grouped, serial):
            assert len(fused_results) == len(serial_results)
            for a, b in zip(fused_results, serial_results):
                _same_result(a, b)

    def test_reference_and_packed_requests_coexist(self):
        """Ineligible (random-p) and eligible requests fuse correctly."""
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


class TestFusionHub:
    def test_no_ambient_hub_by_default(self):
        assert current_hub() is None

    def test_party_installs_and_restores(self):
        hub = FusionHub(parties=1)
        with hub.party():
            assert current_hub() is hub
        assert current_hub() is None

    def test_parties_fuse_byte_identical_to_serial(self):
        costs = _integer_costs(6, seed=50)
        p = distributions.uniform(6)

        def batch(seed):
            sample = np.random.default_rng(seed)
            partitions = [random_partition(6, 3, sample) for _ in range(3)]
            return partitions, np.random.default_rng(seed + 1)

        serial = {}
        for seed in (60, 70, 80):
            caching.clear_caches()
            partitions, rng = batch(seed)
            serial[seed] = opt_for_part_many(
                costs, p, partitions, 6, n_initial_patterns=4, rng=rng
            )
        caching.clear_caches()
        hub = FusionHub(parties=3)
        fused = {}

        def party(seed):
            partitions, rng = batch(seed)
            with hub.party():
                fused[seed] = opt_for_part_many(
                    costs, p, partitions, 6, n_initial_patterns=4, rng=rng
                )

        threads = [
            threading.Thread(target=party, args=(seed,))
            for seed in (60, 70, 80)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert current_hub() is None
        for seed in (60, 70, 80):
            for a, b in zip(fused[seed], serial[seed]):
                _same_result(a, b)

    def test_departed_party_does_not_stall_groupmates(self):
        """A party that dies off-kernel deregisters; the rest still flush.

        (Kernel-level errors *inside* a flush are relayed to every
        co-flushed party — isolation is at the spec level, which
        ``TestFusedRuns.test_one_failure_never_poisons_the_group``
        pins.)
        """
        costs = _integer_costs(6, seed=90)
        p = distributions.uniform(6)
        hub = FusionHub(parties=2)
        outcomes = {}

        def good():
            sample = np.random.default_rng(1)
            partitions = [random_partition(6, 3, sample)]
            with hub.party():
                outcomes["good"] = opt_for_part_many(
                    costs,
                    p,
                    partitions,
                    6,
                    n_initial_patterns=2,
                    rng=np.random.default_rng(2),
                )

        def bad():
            try:
                with hub.party():
                    raise RuntimeError("died before any kernel call")
            except RuntimeError as exc:
                outcomes["bad"] = exc

        threads = [threading.Thread(target=good), threading.Thread(target=bad)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert "good" in outcomes and len(outcomes["good"]) == 1
        assert isinstance(outcomes["bad"], RuntimeError)


class TestFusedRuns:
    """run_specs_fused: full-algorithm byte identity, all architectures."""

    COMBOS = [
        ("bs-sa", "normal"),
        ("bs-sa", "bto-normal"),
        ("bs-sa", "bto-normal-nd"),
        ("dalta", "normal"),
    ]

    def _specs(self):
        from repro.experiments.parallel import RunSpec

        target = compile_api.build_target(benchmark="cos", bits=6)
        return [
            RunSpec.for_function(
                algorithm,
                target,
                compile_api.budget_config("fast", seed=index),
                base_seed=None,
                spawn_index=index,
                architecture=architecture,
                direct_seed=index,
            )
            for index, (algorithm, architecture) in enumerate(self.COMBOS)
        ]

    def test_fused_specs_byte_identical_to_serial(self):
        serial = []
        for spec in self._specs():
            serial.append(_run_fingerprint(spec.execute()))
        outcomes = run_specs_fused(self._specs())
        assert [status for status, _ in outcomes] == ["ok"] * len(serial)
        fused = [_run_fingerprint(result) for _, result in outcomes]
        assert fused == serial

    def test_one_failure_never_poisons_the_group(self):
        specs = self._specs()[:2]
        from repro.experiments.parallel import RunSpec

        broken = RunSpec.for_function(
            "bs-sa",
            compile_api.build_target(benchmark="cos", bits=6),
            compile_api.budget_config("fast", seed=9),
            base_seed=None,
            spawn_index=9,
            direct_seed=9,
        )
        broken.architecture = "no-such-architecture"  # raises in run_bssa
        expected = [_run_fingerprint(spec.execute()) for spec in self._specs()[:2]]
        outcomes = run_specs_fused([specs[0], broken, specs[1]])
        assert outcomes[0][0] == "ok" and outcomes[2][0] == "ok"
        assert outcomes[1][0] == "error"
        assert "no-such-architecture" in outcomes[1][1]
        assert [
            _run_fingerprint(outcomes[0][1]),
            _run_fingerprint(outcomes[2][1]),
        ] == expected
