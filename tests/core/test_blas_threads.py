"""The one-BLAS-thread scope (``repro.blas``).

Every search (``run_bssa``, ``run_dalta``) and every OptForPart kernel
call runs inside :func:`repro.blas.single_thread`, which pins numpy's
OpenBLAS to one thread and restores the caller's count afterwards.
These tests pin the scope itself — restore on exit and on error,
nesting, threads entering at once, a fork, a missing library, the
searches' own dot products — and that the kernel's pin changes time
only: the kernel returns the same bytes on one thread as when forced
onto two, on both exact tiers, on the reference path and for ND halves,
at 14 bits with b = 7 and 16 bits with b = 9, Z = 30.  OpenBLAS splits
the 16-bit shape's 30x512x128 matmuls across its threads; builds with a
small-matrix path (SkylakeX, for one) run the 14-bit 30x128x128 ones on
one thread whatever the setting.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import blas, caching, workloads
from repro.boolean import random_partition
from repro.core import (
    AlgorithmConfig,
    BitCosts,
    cost_vectors_fixed,
    opt_for_part_many,
    run_bssa,
    run_dalta,
)
from repro.core.opt_for_part import (
    KernelContext,
    KernelRequest,
    opt_for_part,
    opt_for_part_grouped,
)
from repro.metrics import distributions
from repro.metrics import error as error_metrics
from repro.obs import RunManifest

from ..conftest import random_bits
from .test_fast_paths import _same_result

ofp = importlib.import_module("repro.core.opt_for_part")

pytestmark = pytest.mark.skipif(
    blas.thread_count() is None, reason="no OpenBLAS library found"
)

_WAIT = 10.0


@pytest.fixture
def two_threads():
    """OpenBLAS on two threads for the test, the prior count after it."""
    library = blas._load()
    before = library.get()
    library.set(2)
    yield library
    library.set(before)


@contextmanager
def _forced_two_threads():
    """Stands in for the kernel's scope: two BLAS threads, not one."""
    library = blas._load()
    before = library.get()
    library.set(2)
    try:
        yield
    finally:
        library.set(before)


@pytest.fixture
def observed(monkeypatch):
    """The BLAS thread counts seen inside each kernel alternation."""
    seen = []
    for name in ("_alternate_exact", "_alternate_reference"):
        inner = getattr(ofp, name)

        def spy(*args, _inner=inner, **kwargs):
            seen.append(blas.thread_count())
            return _inner(*args, **kwargs)

        monkeypatch.setattr(ofp, name, spy)
    return seen


class TestScope:
    def test_restores_count_on_exit(self, two_threads):
        with blas.single_thread():
            assert blas.thread_count() == 1
        assert blas.thread_count() == 2

    def test_restores_count_on_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with blas.single_thread():
                assert blas.thread_count() == 1
                raise RuntimeError("boom")
        assert blas.thread_count() == 2

    def test_nested_scopes_restore_once(self, two_threads):
        with blas.single_thread():
            with blas.single_thread():
                assert blas.thread_count() == 1
            assert blas.thread_count() == 1
        assert blas.thread_count() == 2

    def test_one_thread_default_is_left_alone(self, two_threads):
        two_threads.set(1)
        with blas.single_thread():
            assert blas.thread_count() == 1
        assert blas.thread_count() == 1

    def test_two_threads_at_once(self, two_threads):
        """The first thread out leaves the pin; the last one restores."""
        inside = threading.Barrier(3, timeout=_WAIT)
        release = [threading.Event(), threading.Event()]
        errors = []

        def hold(index):
            try:
                with blas.single_thread():
                    inside.wait()
                    assert release[index].wait(_WAIT)
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        workers = [threading.Thread(target=hold, args=(i,)) for i in range(2)]
        for worker in workers:
            worker.start()
        inside.wait()
        assert blas.thread_count() == 1
        release[0].set()
        workers[0].join(_WAIT)
        assert not workers[0].is_alive()
        assert blas.thread_count() == 1
        release[1].set()
        workers[1].join(_WAIT)
        assert not workers[1].is_alive()
        assert errors == []
        assert blas.thread_count() == 2

    def test_many_threads_stress(self, two_threads):
        """More threads than cores, switching every microsecond: a lost
        update to the scope count would leave the pin on or drop it
        while a scope is still open."""
        errors = []

        def churn():
            try:
                for _ in range(300):
                    with blas.single_thread():
                        if blas.thread_count() != 1:
                            errors.append("unpinned inside a scope")
            except BaseException as exc:  # surfaced in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(_WAIT)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert blas._depth == 0
        assert blas.thread_count() == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_keeps_one_thread(self, two_threads):
        """A child forked while a scope is open runs no scope, and keeps
        one BLAS thread as its default: its own scopes leave the count
        alone, so OpenBLAS never starts a helper thread in it."""
        with blas.single_thread():
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                ok = blas.thread_count() == 1 and blas._depth == 0
                with blas.single_thread():
                    ok = ok and blas.thread_count() == 1
                ok = ok and blas.thread_count() == 1 and blas._depth == 0
                os._exit(0 if ok else 1)
            _, status = os.waitpid(pid, 0)
            assert blas.thread_count() == 1
        assert os.waitstatus_to_exitcode(status) == 0
        assert blas.thread_count() == 2

    @pytest.mark.skipif(
        not os.path.exists(f"/proc/{os.getpid()}/stat"), reason="needs /proc"
    )
    def test_pool_worker_does_not_spin(self, two_threads):
        """A pool worker's CPU after a tiny job shows no OpenBLAS spin.

        A worker forked on the parent's two threads starts a helper
        thread when its first scope restores that count, and the helper
        spins about a tenth of a second of CPU beside the job's own
        thread.  The pool forks its workers inside a scope, so they never
        raise the count: no thread but the worker's main one runs.
        """
        from repro.experiments.pool import WorkerPool
        from repro.experiments.runner import repeat_specs

        (spec,) = repeat_specs(
            "dalta", workloads.get("cos", 6), AlgorithmConfig.fast(), 1, 7
        )
        tick = os.sysconf("SC_CLK_TCK")

        def helper_cpu_seconds(pid):
            """CPU of every thread of ``pid`` but its main one."""
            total = 0
            for tid in os.listdir(f"/proc/{pid}/task"):
                if int(tid) == pid:
                    continue
                try:
                    with open(f"/proc/{pid}/task/{tid}/stat") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                except FileNotFoundError:  # the thread exited meanwhile
                    continue
                total += int(fields[11]) + int(fields[12])
            return total / tick

        with WorkerPool(1) as pool:
            pool.submit(0, spec)
            events = []
            deadline = time.monotonic() + 60.0
            while not events and time.monotonic() < deadline:
                events = pool.wait(1.0)
            assert [event.kind for event in events] == ["ok"]
            # a spinning helper would be done within half a second
            time.sleep(0.5)
            spun = helper_cpu_seconds(pool._workers[0].process.pid)
        assert spun < 0.02
        assert blas.thread_count() == 2

    def test_missing_library_is_a_no_op(self, monkeypatch, two_threads):
        monkeypatch.setattr(blas, "_find", lambda: None)
        monkeypatch.setattr(blas, "_library", blas._UNSET)
        with blas.single_thread():
            assert two_threads.get() == 2
            assert blas.thread_count() is None
        assert two_threads.get() == 2
        assert blas.describe()["kernel_threads"] == "uncontrolled"
        # the kernel still runs, on the caller's BLAS threads
        costs, p = _instance("f32", 6)
        partition = random_partition(6, 3, np.random.default_rng(0))
        result = opt_for_part(
            costs, p, partition, 6, rng=np.random.default_rng(1)
        )
        assert np.isfinite(result.error)

    @pytest.mark.parametrize("algorithm", ["bs-sa", "dalta"])
    def test_search_runs_on_one_thread(self, monkeypatch, two_threads, algorithm):
        """The search's own MED dot products run inside the scope too."""
        seen = []
        inner = error_metrics.med

        def spy(*args, **kwargs):
            seen.append(blas.thread_count())
            return inner(*args, **kwargs)

        monkeypatch.setattr(error_metrics, "med", spy)
        target = workloads.get("cos", 6)
        config = AlgorithmConfig.fast(seed=0)
        if algorithm == "dalta":
            run_dalta(target, config)
        else:
            run_bssa(target, config, architecture="bto-normal-nd")
        assert seen and set(seen) == {1}
        assert blas.thread_count() == 2

    def test_manifest_records_the_conditions(self, two_threads):
        recorded = RunManifest.build(command="t").blas
        assert recorded["kernel_threads"] == 1
        assert recorded["default_threads"] == 2
        assert "openblas" in recorded["library"]
        assert recorded["version"]


def _instance(kind, n_inputs, seed=0):
    """Costs and p whose gate verdict is ``kind``.

    Integer 0/1 costs under uniform p pass as ``"f32"``; scaled by
    2**12 their exact total needs more than 24 bits, so ``"f64"``; a
    random non-dyadic ``p`` is rejected (``None``, the reference).
    """
    rng = np.random.default_rng(seed)
    bits = random_bits(n_inputs, rng)
    costs = cost_vectors_fixed(bits, np.zeros_like(bits), 0)
    p = distributions.uniform(n_inputs)
    if kind == "f64":
        costs = BitCosts(costs.k, costs.cost0 * 4096.0, costs.cost1 * 4096.0)
    elif kind is None:
        raw = rng.random(1 << n_inputs) + 1e-3
        p = raw / raw.sum()
    assert KernelContext(costs, p, n_inputs).tier == kind
    return costs, p


_SHAPES = [(14, 7), (16, 9)]


def _batch(costs, p, n_inputs, bound, count=2, seed=1):
    rng = np.random.default_rng(seed)
    partitions = [random_partition(n_inputs, bound, rng) for _ in range(count)]
    patterns = rng.integers(
        0, 2, size=(count, 30, partitions[0].n_cols), dtype=np.uint8
    )
    return opt_for_part_many(
        costs, p, partitions, n_inputs, initial_patterns=patterns
    )


def _one_vs_two(monkeypatch, observed, run):
    """``run()`` under the kernel's scope, then forced onto two threads."""
    pinned = run()
    assert observed and set(observed) == {1}
    observed.clear()
    monkeypatch.setattr(blas, "single_thread", _forced_two_threads)
    forced = run()
    assert observed and set(observed) == {2}
    return pinned, forced


def _assert_same(pinned, forced):
    assert len(pinned) == len(forced)
    for a, b in zip(pinned, forced):
        _same_result(a, b)


class TestBitsDoNotDependOnThreads:
    @pytest.mark.parametrize("n_inputs,bound", _SHAPES)
    @pytest.mark.parametrize("tier", ["f32", "f64"])
    def test_exact_tiers(self, monkeypatch, observed, n_inputs, bound, tier):
        costs, p = _instance(tier, n_inputs)
        pinned, forced = _one_vs_two(
            monkeypatch, observed, lambda: _batch(costs, p, n_inputs, bound)
        )
        _assert_same(pinned, forced)

    @pytest.mark.parametrize("n_inputs,bound", _SHAPES)
    @pytest.mark.parametrize("fast", [True, False], ids=["production", "reference"])
    def test_gate_rejected_reference(
        self, monkeypatch, observed, n_inputs, bound, fast
    ):
        costs, p = _instance(None, n_inputs)

        def run():
            with caching.fast_paths(fast):
                return _batch(costs, p, n_inputs, bound, count=1)

        pinned, forced = _one_vs_two(monkeypatch, observed, run)
        _assert_same(pinned, forced)

    @pytest.mark.parametrize("tier", ["f32", None])
    @pytest.mark.parametrize("n_inputs", [16, 17])
    def test_nondisjoint_halves(self, monkeypatch, observed, tier, n_inputs):
        """Both cofactor halves of a context in one grouped pass: compile16's
        15-bit halves, and 16-bit ones whose matmuls are 30x512x128."""
        shared = n_inputs - 1
        costs, p = _instance(tier, n_inputs)
        context = KernelContext(costs, p, n_inputs)
        rng = np.random.default_rng(2)
        partition = random_partition(n_inputs - 1, 9, rng)
        patterns = rng.integers(0, 2, size=(1, 30, partition.n_cols), dtype=np.uint8)
        requests = [
            KernelRequest(context.cofactor({shared: j}), [partition], patterns)
            for j in (0, 1)
        ]

        def run():
            return [r for results in opt_for_part_grouped(requests) for r in results]

        pinned, forced = _one_vs_two(monkeypatch, observed, run)
        _assert_same(pinned, forced)
