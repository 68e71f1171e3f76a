"""Telemetry gating of the OptForPart hot path.

The kernel sits inside the innermost search loops, so its counter
increments must be guarded behind ``obs.enabled()`` — with no active
session the code must not even *call* into the telemetry layer, let
alone emit records (the PR-1 regression this pins down: an
unconditional ``obs.incr("opt.bto_calls")`` on every BTO evaluation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import caching, obs
from repro.boolean import Partition
from repro.core import (
    cost_vectors_fixed,
    memo_context,
    opt_for_part,
    opt_for_part_bto,
    run_bssa,
)

from ..conftest import random_bits, random_function
from ..core.test_fast_paths import TestPipelineBitExact


@pytest.fixture(autouse=True)
def fresh_caches():
    caching.clear_caches()
    yield
    caching.clear_caches()


def _instance(n_inputs=6, seed=17):
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    p = np.full(1 << n_inputs, 1.0 / (1 << n_inputs))
    return costs, p, Partition((2, 3, 4, 5), (0, 1))


class TestDisabled:
    def test_bto_emits_nothing_without_session(self, monkeypatch):
        calls = []
        monkeypatch.setattr(obs, "incr", lambda *a, **k: calls.append(a))
        assert not obs.enabled()
        costs, p, partition = _instance()
        memo = memo_context(costs, p)
        # compute path, then the memo-hit path — both must stay silent
        opt_for_part_bto(costs, p, partition, 6, memo=memo)
        opt_for_part_bto(costs, p, partition, 6, memo=memo)
        assert calls == []

    def test_normal_path_emits_nothing_without_session(self, monkeypatch):
        calls = []
        monkeypatch.setattr(obs, "incr", lambda *a, **k: calls.append(a))
        assert not obs.enabled()
        costs, p, partition = _instance()
        opt_for_part(costs, p, partition, 6, rng=np.random.default_rng(0))
        assert calls == []


class TestEnabled:
    def test_bto_counter_counts_hits_and_misses(self):
        costs, p, partition = _instance()
        memo = memo_context(costs, p)
        sink = obs.MemorySink()
        with obs.session(sink):
            opt_for_part_bto(costs, p, partition, 6, memo=memo)  # compute
            opt_for_part_bto(costs, p, partition, 6, memo=memo)  # memo hit
        assert sink.counters().get("opt.bto_calls") == 2

    def test_cache_counters_surface_in_session(self):
        costs, p, partition = _instance()
        memo = memo_context(costs, p)
        sink = obs.MemorySink()
        with obs.session(sink):
            opt_for_part(
                costs, p, partition, 6, rng=np.random.default_rng(3), memo=memo
            )
            opt_for_part(
                costs, p, partition, 6, rng=np.random.default_rng(3), memo=memo
            )
        counters = sink.counters()
        assert counters.get("opt.cache_miss") == 1
        assert counters.get("opt.cache_hit") == 1
        assert counters.get("cache.opt.memo.hit") == 1

    def test_gate_counters_of_a_fixed_nd_run(self):
        """One verdict count per kernel request, ND halves included.

        The halves inherit their parent's verdict instead of gating
        their own copies; on this run (TestPipelineBitExact's 8-bit
        ``bto-normal-nd`` run) every request is f32 either way, so the
        counts are the ones the per-half gate produced.
        """
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        sink = obs.MemorySink()
        with obs.session(sink):
            run_bssa(
                target,
                TestPipelineBitExact.CONFIG,
                rng=np.random.default_rng(2024),
                architecture="bto-normal-nd",
            )
        counters = sink.counters()
        assert counters.get("opt.packed_calls") == 140
        assert counters.get("opt.packed_f32_calls") == 140
        assert counters.get("opt.packed_ineligible", 0) == 0
