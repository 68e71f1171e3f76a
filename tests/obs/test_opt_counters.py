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
    BitCosts,
    cost_vectors_fixed,
    opt_for_part,
    opt_for_part_bto,
    run_bssa,
    run_dalta,
)
from repro.core.opt_for_part import KernelContext
from repro.obs.summarize import summarize

from ..conftest import random_bits, random_function
from ..core.test_fast_paths import TestPipelineBitExact


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
        # without a context, then twice with a shared one — every call
        # must stay silent
        context = KernelContext(costs, p, 6)
        opt_for_part_bto(costs, p, partition, 6)
        opt_for_part_bto(costs, p, partition, 6, context=context)
        opt_for_part_bto(costs, p, partition, 6, context=context)
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
        """Every BTO call counts once, whatever context it shares."""
        costs, p, partition = _instance()
        context = KernelContext(costs, p, 6)
        sink = obs.MemorySink()
        with obs.session(sink):
            opt_for_part_bto(costs, p, partition, 6, context=context)
            opt_for_part_bto(costs, p, partition, 6, context=context)
        assert sink.counters().get("opt.bto_calls") == 2

    def test_cache_counters_surface_in_session(self):
        cache = caching.LruCache("t.local", maxsize=1)
        sink = obs.MemorySink()
        with obs.session(sink):
            assert cache.get("k") is None  # miss
            cache.put("k", 1)
            assert cache.get("k") == 1  # hit
        counters = sink.counters()
        assert counters.get("cache.t.local.miss") == 1
        assert counters.get("cache.t.local.hit") == 1

    def test_gate_counters_of_a_fixed_nd_run(self):
        """One verdict count per kernel request, ND halves included.

        The halves inherit their parent's verdict instead of gating
        their own copies; on this run (TestPipelineBitExact's 8-bit
        ``bto-normal-nd`` run) every request runs float32 totals either
        way, so the counts are the ones the per-half gate produced.
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



class TestTelemetryPin:
    """The kernel's span, counter and histogram counts on fixed runs.

    ``repro summarize`` and ``perfbench/tracer.py`` read these names
    and per-call counts, so a refactor of the kernel
    entry points must leave every one of them unchanged.  The runs are
    TestPipelineBitExact's seeded 8-bit ones.
    """

    @pytest.mark.parametrize(
        "algorithm,architecture,spans,counters,observations",
        [
            (
                "dalta",
                "normal",
                {"opt.for_part_many": 8},
                (64, 261, 16384, 0),
                8,
            ),
            (
                "bs-sa",
                "bto-normal",
                {"opt.for_part": 11, "opt.for_part_many": 33},
                (88, 344, 22528, 32),
                44,
            ),
            (
                "bs-sa",
                "bto-normal-nd",
                {
                    "opt.for_part": 11,
                    "opt.for_part_many": 33,
                    "opt.for_part_grouped": 8,
                },
                (152, 521, 30720, 32),
                52,
            ),
        ],
    )
    def test_seeded_run(self, algorithm, architecture, spans, counters, observations):
        target = random_function(8, 4, np.random.default_rng(77), name="t")
        rng = np.random.default_rng(2024)
        sink = obs.MemorySink()
        with obs.session(sink):
            if algorithm == "dalta":
                run_dalta(target, TestPipelineBitExact.CONFIG, rng=rng)
            else:
                run_bssa(
                    target,
                    TestPipelineBitExact.CONFIG,
                    rng=rng,
                    architecture=architecture,
                )
        seen = {}
        for span in sink.spans():
            if span["name"].startswith("opt.for_part"):
                seen[span["name"]] = seen.get(span["name"], 0) + 1
        assert seen == spans
        totals = sink.counters()
        assert tuple(
            totals.get(name, 0)
            for name in ("opt.calls", "opt.sweeps", "opt.lut_entries", "opt.bto_calls")
        ) == counters
        histograms = summarize(sink.records).histograms
        for name in ("opt.for_part_seconds", "opt.for_part_cpu_seconds"):
            assert histograms[name].count == observations

def _rejected(reason):
    """A 6-input ``(costs, p)`` the gate rejects for ``reason``."""
    costs, p, _ = _instance()
    if reason == "cost":
        return BitCosts(costs.k, costs.cost0 + 0.5, costs.cost1), p
    if reason == "weight":
        # 1/3 has a 53-bit odd mantissa
        thirds = np.full(64, 1.0 / 3.0)
        thirds[0] = 2.0 / 3.0
        return costs, thirds
    if reason == "total":
        return BitCosts(costs.k, costs.cost0 + 2.0**53, costs.cost1), p
    assert reason == "unit"
    # the half-step's unit 2**-1075 is no float64
    return costs, np.full(64, 2.0**-1074)


class TestGateReasons:
    """Why the gate decided: one count per scanned context."""

    @pytest.mark.parametrize("reason", ["cost", "weight", "total", "unit"])
    def test_one_count_per_rejected_context(self, reason):
        costs, p = _rejected(reason)
        _, _, partition = _instance()
        context = KernelContext(costs, p, 6)
        sink = obs.MemorySink()
        with obs.session(sink):
            for seed in range(2):
                opt_for_part(
                    costs, p, partition, 6,
                    rng=np.random.default_rng(seed), context=context,
                )
        counters = sink.counters()
        rejected = {
            name: value
            for name, value in counters.items()
            if name.startswith("opt.packed_rejected_")
        }
        assert rejected == {f"opt.packed_rejected_{reason}": 1}
        assert counters.get("opt.packed_ineligible") == 2
        assert counters.get("opt.packed_calls", 0) == 0

    def test_float32_sums_dispatch_is_counted(self):
        """An admitted context with ``T = 2**25`` units (float64
        totals) whose 16 x 4 tables keep ``M * 16 = 2**23``: float32
        partial sums, one count per kernel request."""
        costs, p, partition = _instance()
        assert np.all(costs.cost0 + costs.cost1 == 1.0)
        scaled = BitCosts(costs.k, costs.cost0 * 2.0**19, costs.cost1 * 2.0**19)
        context = KernelContext(scaled, p, 6)
        assert context.verdict.reason is None
        assert context.sweep_dtypes(16, 4) == (np.float32, np.float64)
        sink = obs.MemorySink()
        with obs.session(sink):
            for seed in range(2):
                opt_for_part(
                    scaled, p, partition, 6,
                    rng=np.random.default_rng(seed), context=context,
                )
        counters = sink.counters()
        assert counters.get("opt.packed_calls") == 2
        assert counters.get("opt.packed_f32_sums_calls") == 2
        assert counters.get("opt.packed_f32_calls", 0) == 0
        assert not any(name.startswith("opt.packed_rejected_") for name in counters)
