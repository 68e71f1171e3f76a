"""Unit tests for the warm pool and its building blocks.

Covers the cache eviction counters, the shared-memory table arena,
``resolve_jobs``, pool execution through ``run_many`` and the engine
(including fault recovery), the supervisor idling through a lease
wait, and workers exiting once their parent is gone.  The full
serial-vs-pool differential is in
``tests/engine/test_backend_equivalence.py``.
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import caching, faults, obs, workloads
from repro.core.config import AlgorithmConfig
from repro.experiments import pool as pool_mod
from repro.experiments.engine import Engine, EngineConfig, resolve_jobs
from repro.experiments.parallel import run_many
from repro.experiments.runner import repeat_specs
from repro.experiments.store import SharedDirStore

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _specs(n_runs=2, base_seed=7, algorithm="dalta"):
    target = workloads.get("cos", n_inputs=6)
    return repeat_specs(
        algorithm, target, AlgorithmConfig.fast(), n_runs, base_seed
    )


def _final_counters(sink):
    merged = {}
    for record in sink.records:
        if record.get("type") == "counters":
            for name, value in record.get("values", {}).items():
                merged[name] = merged.get(name, 0) + value
    return merged


class TestCacheSharingHooks:
    def test_eviction_counters_emitted(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            cache = caching.LruCache("t.evict", maxsize=1)
            cache.put("a", 1)
            cache.put("b", 2)
        counters = _final_counters(sink)
        assert counters.get("cache.t.evict.eviction") == 1
        assert cache.evictions == 1


class TestTableArena:
    def test_publish_dedups_by_content(self):
        arena = pool_mod.TableArena()
        try:
            table = np.arange(16, dtype=np.int64)
            first = arena.publish(table)
            second = arena.publish(table.copy())
            assert first["name"] == second["name"]
            assert len(arena) == 1
            third = arena.publish(table + 1)
            assert third["name"] != first["name"]
            assert len(arena) == 2
        finally:
            arena.close()

    def test_attached_view_is_read_only_and_equal(self):
        """A Table-II-shaped (12-bit) table arrives as a zero-copy view."""
        arena = pool_mod.TableArena()
        segments, tables = {}, {}
        try:
            table = np.random.default_rng(0).integers(
                0, 1 << 12, size=1 << 12, dtype=np.int64
            )
            ref = arena.publish(table)
            assert arena.bytes == table.nbytes
            view = pool_mod._table_view(segments, tables, ref)
            assert view.dtype == table.dtype
            assert view.tobytes() == table.tobytes()
            assert not view.flags.owndata
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 99
            assert pool_mod._table_view(segments, tables, ref) is view
        finally:
            del view
            tables.clear()
            for segment in segments.values():
                segment.close()
            arena.close()


class TestResolveJobs:
    def test_default_uses_cpu_count(self):
        assert resolve_jobs(None) >= 1

    def test_clamped_to_job_count(self):
        assert resolve_jobs(None, 3) <= 3
        assert resolve_jobs(8, 3) == 3
        assert resolve_jobs(2, 100) == 2

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs(-4, 10)

    def test_zero_jobs_still_one_worker(self):
        assert resolve_jobs(None, 0) == 1


class TestPoolExecution:
    def test_run_many_pool_matches_serial(self):
        specs = _specs(n_runs=3)
        serial = run_many(specs)
        pooled = run_many(specs, n_jobs=2)
        assert [r.med for r in pooled] == [r.med for r in serial]
        assert [r.round_history for r in pooled] == [
            r.round_history for r in serial
        ]

    def test_engine_pool_crash_recovered(self):
        specs = _specs(n_runs=2)
        engine = Engine(
            config=EngineConfig(n_jobs=2),
            faults=faults.FaultPlan.parse("crash@0"),
        )
        outcome = engine.run(specs)
        assert outcome.complete
        assert outcome.retries == 1
        baseline = run_many(specs)
        assert [r.med for r in outcome.results] == [r.med for r in baseline]

    def test_engine_pool_poison_quarantined(self):
        specs = _specs(n_runs=2)
        engine = Engine(
            config=EngineConfig(n_jobs=2, max_retries=1),
            faults=faults.FaultPlan.parse("crash@0#*"),
        )
        outcome = engine.run(specs)
        assert not outcome.complete
        assert outcome.results[0] is None
        assert outcome.results[1] is not None
        assert [f.index for f in outcome.quarantined] == [0]

    def test_workers_share_the_parent_resource_tracker(self):
        """No worker runs a tracker that unlinks the parent's segments.

        Run in a fresh interpreter, where no resource tracker is running
        yet: a worker that started its own would, on exit, unlink the
        table segments it attached and warn about them.
        """
        code = (
            "from repro.experiments.parallel import run_many\n"
            "from tests.experiments.test_pool import _specs\n"
            "run_many(_specs(), n_jobs=2)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=_ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr

    def test_pool_counters_recorded(self):
        specs = _specs(n_runs=2)
        sink = obs.MemorySink()
        with obs.session(sink):
            Engine(config=EngineConfig(n_jobs=2)).run(specs)
        counters = _final_counters(sink)
        assert counters.get("pool.jobs") == 2
        assert counters.get("pool.workers_started", 0) >= 1
        assert counters.get("pool.shm_tables") == 1
        assert counters.get("pool.shm_bytes", 0) > 0


class TestIdleWait:
    def test_wait_with_nothing_in_flight_sleeps_its_timeout(self):
        with pool_mod.WorkerPool(1) as pool:
            started = time.perf_counter()
            assert pool.wait(0.2) == []
            assert time.perf_counter() - started >= 0.15

    def test_parent_idles_while_a_sibling_holds_the_lease(self, tmp_path):
        """A job deferred behind a live sibling lease costs no parent CPU.

        Nothing is in flight while the supervision loop waits for the
        sibling's lease to expire; the loop must sleep through that
        wait, not spin on an empty pool.
        """
        campaign_dir = str(tmp_path / "campaign")
        sibling = SharedDirStore(campaign_dir, owner="sibling", lease_ttl=3.0)
        sibling.prepare()
        assert sibling.try_claim(0)
        engine = Engine(
            campaign_dir,
            EngineConfig(n_jobs=1, store="shared", lease_ttl=3.0),
            faults=faults.FaultPlan(),
        )
        cpu = time.process_time()
        wall = time.perf_counter()
        outcome = engine.run(_specs(n_runs=1))
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - wall
        assert outcome.complete
        assert wall >= 2.0, "the job ran before the sibling's lease expired"
        assert cpu < 0.5 * wall, f"{cpu:.2f} s of parent CPU in {wall:.2f} s"


def _child_env():
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([os.path.join(_ROOT, "src"), _ROOT]),
    )


def _alive(pid):
    """Is ``pid`` a live (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_pool_parent_is_killed(self):
        """SIGKILL the pool's parent: its workers notice and exit.

        Forked workers hold each other's pipe ends, so no EOF reaches
        them; they poll for a changed ``os.getppid()`` instead.
        """
        code = (
            "import os, signal\n"
            "from repro.experiments.pool import WorkerPool\n"
            "pool = WorkerPool(2)\n"
            "print(*(w.process.pid for w in pool._workers), flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=_ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        pids = [int(pid) for pid in proc.stdout.split()]
        assert len(pids) == 2
        deadline = time.monotonic() + 3.0
        while any(_alive(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(pid) for pid in pids), "orphaned workers linger"


class TestEngineConfigValidation:
    def test_backend_validated(self):
        """The engine has one transport; ``backend`` is not an option."""
        for backend in ("spawn", "pool"):
            with pytest.raises(TypeError):
                EngineConfig(backend=backend)
