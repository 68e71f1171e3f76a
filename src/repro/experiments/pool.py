"""The warm worker pool: every multi-process job runs here.

The campaign engine (:mod:`repro.experiments.engine`) and the serve
daemon run their jobs on:

* a :class:`WorkerPool` of persistent worker processes, started once
  and fed jobs over per-worker pipes (no shared queue, so killing a
  hung worker can never corrupt another worker's channel);
* a :class:`TableArena` that publishes truth tables into
  ``multiprocessing.shared_memory`` segments, content-addressed by
  digest — workers attach once per distinct table and hand the
  algorithms a zero-copy read-only numpy view instead of a pickle.

Determinism: workers run :meth:`RunSpec.execute` exactly as the
in-process ``run_many`` loop does, and every run re-seeds from the
same ``SeedSequence.spawn`` draw, so results are byte-identical to
that loop — the differential tests in
``tests/engine/test_backend_equivalence.py`` pin this for Table II
and Fig. 5.  A run leaves
no per-partition state behind in the worker, so a warm worker's memory
does not grow with the jobs it has run.

Telemetry: with ``capture_telemetry`` a worker returns its job's
telemetry records inside the job's reply, and the owner folds them in
when it takes the result — nothing else crosses the pipe mid-job.  The
pool reports to no one: its owner (the engine's supervision loop, the
serve dispatcher) reads :meth:`WorkerPool.stats` and publishes it.

Fault injection: the pool accepts :class:`repro.faults.Fault`
objects — ``crash``/``hang`` fire inside the worker before
computation (the supervisor restarts the worker), ``corrupt`` makes
the worker ship a truncated payload the parent must reject.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection, resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import multiprocessing

import numpy as np

from .. import blas, obs
from .. import faults as faults_mod
from ..core.config import AlgorithmConfig
from .parallel import RunSpec

__all__ = ["TableArena", "PoolEvent", "WorkerPool"]

#: the truncated payload an injected ``corrupt`` fault produces
_CORRUPT_PAYLOAD = '{"schema": 1, "med": 0.0, "settings": [{"trunc'


def _preferred_context():
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    )


# ======================================================================
# Shared-memory truth-table transport
# ======================================================================
class TableArena:
    """Content-addressed store of truth tables in shared memory.

    ``publish`` is idempotent per table content: the eight benchmarks
    of a Table-II campaign occupy eight segments no matter how many
    hundreds of jobs reference them.  Only the parent creates and
    unlinks segments; workers attach read-only by name and read the
    raw ``int64`` entries in place.
    """

    def __init__(self) -> None:
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, Dict]] = {}
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._segments)

    def publish(self, table: np.ndarray) -> Dict[str, Any]:
        """Copy ``table`` into shared memory (once) and return its ref."""
        table = np.ascontiguousarray(table, dtype=np.int64)
        digest = hashlib.sha1(table.tobytes()).hexdigest()
        cached = self._segments.get(digest)
        if cached is not None:
            return cached[1]
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, table.nbytes)
        )
        view = np.ndarray(table.shape, dtype=table.dtype, buffer=segment.buf)
        view[...] = table
        ref = {"name": segment.name, "shape": list(table.shape), "digest": digest}
        self._segments[digest] = (segment, ref)
        self.bytes += table.nbytes
        obs.incr("pool.shm_tables")
        obs.incr("pool.shm_bytes", table.nbytes)
        return ref

    def close(self) -> None:
        for segment, _ in self._segments.values():
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self.bytes = 0


def _attach(segments: Dict[str, shared_memory.SharedMemory], name: str):
    """Worker-side segment attachment cache (attach once per name)."""
    segment = segments.get(name)
    if segment is None:
        segment = shared_memory.SharedMemory(name=name)
        segments[name] = segment
    return segment


def _table_view(
    segments: Dict[str, shared_memory.SharedMemory],
    tables: Dict[str, np.ndarray],
    ref: Dict[str, Any],
) -> np.ndarray:
    """A zero-copy read-only view of a published table (once per digest)."""
    view = tables.get(ref["digest"])
    if view is None:
        view = np.ndarray(
            tuple(ref["shape"]),
            dtype=np.int64,
            buffer=_attach(segments, ref["name"]).buf,
        )
        view.flags.writeable = False
        tables[ref["digest"]] = view
    return view


# ======================================================================
# Worker process
# ======================================================================
def _spec_message(spec: RunSpec) -> Dict[str, Any]:
    """The picklable, table-free half of a RunSpec."""
    return {
        "algorithm": spec.algorithm,
        "n_inputs": spec.n_inputs,
        "n_outputs": spec.n_outputs,
        "name": spec.name,
        "config": spec.config,
        "base_seed": spec.base_seed,
        "spawn_index": spec.spawn_index,
        "architecture": spec.architecture,
        "direct_seed": spec.direct_seed,
    }


def _spec_from_message(fields: Dict[str, Any], table: np.ndarray) -> RunSpec:
    config = fields["config"]
    assert isinstance(config, AlgorithmConfig)
    return RunSpec(
        fields["algorithm"],
        table,
        fields["n_inputs"],
        fields["n_outputs"],
        fields["name"],
        config,
        fields["base_seed"],
        fields["spawn_index"],
        fields["architecture"],
        fields["direct_seed"],
    )


def _pool_worker(parent: int, tasks, results) -> None:
    """Persistent worker loop: recv job → execute → reply.

    Import ordering note: this function runs in a child of the pool
    parent, so numpy/repro are already imported under the fork start
    method — the pool's whole point.  Under spawn the first job pays
    the import once and the rest stay warm.
    """
    from ..core.serialize import setting_to_dict  # noqa: F401  (warm import)
    from .engine import result_to_payload

    segments: Dict[str, shared_memory.SharedMemory] = {}
    tables: Dict[str, np.ndarray] = {}

    # Under the fork start method every worker inherits its siblings'
    # pipe ends, so a SIGKILLed pool parent never produces an EOF on
    # ``tasks`` — the write end survives in the other orphans.  Poll
    # with a timeout and watch for re-parenting instead: a worker whose
    # parent died exits on its own rather than lingering forever.
    # ``parent`` is the pool's pid as the parent saw it: read here, a
    # parent killed before this line ran would leave the worker
    # comparing against its new parent and never exiting.
    orphaned = False
    while True:
        try:
            while not tasks.poll(1.0):
                if os.getppid() != parent:
                    orphaned = True
                    break
            if orphaned:
                break
            message = tasks.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        fault = message["fault"]
        faults_mod.inject_worker_fault(fault)
        table = _table_view(segments, tables, message["table"])
        spec = _spec_from_message(message["spec"], table)
        sink = obs.MemorySink()
        try:
            with obs.session(sink):
                result = spec.execute()
        except Exception:
            results.send(
                {
                    "kind": "error",
                    "index": message["index"],
                    "attempt": message["attempt"],
                    "detail": traceback.format_exc(limit=8),
                }
            )
            continue
        raw: Optional[str] = None
        if fault is not None and fault.kind == "corrupt":
            payload: Dict[str, Any] = {}
            raw = _CORRUPT_PAYLOAD
        else:
            payload = result_to_payload(spec, result)
            if message["capture"]:
                payload["telemetry"] = sink.records
        results.send(
            {
                "kind": "ok",
                "index": message["index"],
                "attempt": message["attempt"],
                "payload": payload,
                "raw": raw,
            }
        )


# ======================================================================
# The pool
# ======================================================================
@dataclass
class PoolEvent:
    """One completion observed by :meth:`WorkerPool.wait`.

    ``kind`` is ``"ok"`` (payload valid or ``raw`` corrupt text),
    ``"error"`` (the job raised inside a healthy worker) or ``"died"``
    (the worker process exited mid-job — e.g. an injected crash).
    """

    kind: str
    index: int
    attempt: int
    worker_id: int
    payload: Optional[Dict[str, Any]] = None
    raw: Optional[str] = None
    detail: str = ""
    exitcode: Optional[int] = None


class _WorkerHandle:
    __slots__ = ("worker_id", "process", "task_send", "result_recv", "job")

    def __init__(self, worker_id, process, task_send, result_recv) -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_send = task_send
        self.result_recv = result_recv
        #: (job index, attempt) while busy, else None
        self.job: Optional[Tuple[int, int]] = None


class WorkerPool:
    """Persistent pre-warmed workers with shared-memory tables.

    The lifecycle is ``submit`` / ``wait`` (driven by the engine's
    supervision loop or the serve dispatcher), then :meth:`close` —
    which stops the workers and tears down every shared-memory segment.
    """

    def __init__(
        self,
        n_workers: int,
        capture_telemetry: bool = False,
        context=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.capture_telemetry = capture_telemetry
        self._context = context if context is not None else _preferred_context()
        self.arena = TableArena()
        self._workers: List[_WorkerHandle] = []
        self._closed = False
        # Start the shared-memory resource tracker before the workers:
        # they then register the table segments they attach with this
        # tracker.  A worker started first would run a tracker of its
        # own, which unlinks every segment the worker attached (still in
        # use by the parent and its siblings) when the worker exits.
        resource_tracker.ensure_running()
        for worker_id in range(n_workers):
            self._workers.append(self._spawn(worker_id))

    # -- worker lifecycle ---------------------------------------------
    def _spawn(self, worker_id: int) -> _WorkerHandle:
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_pool_worker,
            args=(os.getpid(), task_recv, result_send),
            daemon=True,
        )
        # forked on one BLAS thread, the worker keeps one (repro.blas):
        # raising the count in the child would start an OpenBLAS helper
        # that spins for about a tenth of a second of CPU
        with blas.single_thread():
            process.start()
        # the parent keeps only its ends; the worker holds the others
        task_recv.close()
        result_send.close()
        obs.incr("pool.workers_started")
        return _WorkerHandle(worker_id, process, task_send, result_recv)

    def _restart(self, handle: _WorkerHandle) -> None:
        self._teardown(handle)
        replacement = self._spawn(handle.worker_id)
        self._workers[self._workers.index(handle)] = replacement
        obs.incr("pool.worker_restarts")

    @staticmethod
    def _teardown(handle: _WorkerHandle) -> None:
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join()
        handle.process.close()
        handle.task_send.close()
        handle.result_recv.close()

    # -- scheduling ----------------------------------------------------
    def idle_workers(self) -> List[_WorkerHandle]:
        return [w for w in self._workers if w.job is None]

    def has_idle(self) -> bool:
        return any(w.job is None for w in self._workers)

    def busy_count(self) -> int:
        return sum(1 for w in self._workers if w.job is not None)

    def stats(self) -> Dict[str, Any]:
        """Worker counts for the live hub's ``pool`` block.

        Only the owning thread may call this (like ``submit``/``wait``
        — the pool is not thread-safe); the serve dispatcher and the
        campaign engine both satisfy that by construction, and publish
        the result to their live metrics hub.
        """
        return {
            "workers": self.n_workers,
            "busy": self.busy_count(),
            "alive": sum(1 for w in self._workers if w.process.is_alive()),
            "arena_tables": len(self.arena),
        }

    def submit(
        self,
        index: int,
        spec: RunSpec,
        attempt: int = 0,
        fault: Optional[faults_mod.Fault] = None,
    ) -> int:
        """Dispatch one job to the lowest-numbered idle worker."""
        idle = self.idle_workers()
        if not idle:
            raise RuntimeError("no idle worker available")
        handle = idle[0]
        if not handle.process.is_alive():  # pragma: no cover - defensive
            # died while idle (should not happen) — replace silently
            self._restart(handle)
            handle = self.idle_workers()[0]
        message = {
            "index": index,
            "attempt": attempt,
            "spec": _spec_message(spec),
            "table": self.arena.publish(spec.table),
            "fault": fault,
            "capture": self.capture_telemetry,
        }
        handle.task_send.send(message)
        handle.job = (index, attempt)
        return handle.worker_id

    def wait(self, timeout: Optional[float]) -> List[PoolEvent]:
        """Collect finished jobs (and dead workers) within ``timeout``.

        With nothing in flight there is nothing to wait on, so the call
        sleeps out its timeout rather than returning at once — a caller
        polling in a loop then idles instead of spinning.
        Results are drained before death checks so a worker that
        replied and then crashed still counts its job as finished.
        """
        busy = [w for w in self._workers if w.job is not None]
        if not busy:
            if timeout:
                time.sleep(timeout)
            return []
        waitees: List[Any] = [w.result_recv for w in busy]
        waitees.extend(w.process.sentinel for w in busy)
        ready = set(connection.wait(waitees, timeout))
        events: List[PoolEvent] = []
        for handle in busy:
            if handle.result_recv not in ready:
                continue
            try:
                message = handle.result_recv.recv()
            except (EOFError, OSError):
                continue  # worker died mid-send; sentinel path handles it
            index, attempt = handle.job  # type: ignore[misc]
            handle.job = None
            if message["kind"] == "ok":
                obs.incr("pool.jobs")
                events.append(
                    PoolEvent(
                        "ok",
                        index,
                        attempt,
                        handle.worker_id,
                        payload=message["payload"],
                        raw=message.get("raw"),
                    )
                )
            else:
                events.append(
                    PoolEvent(
                        "error",
                        index,
                        attempt,
                        handle.worker_id,
                        detail=message.get("detail", ""),
                    )
                )
        for handle in busy:
            if handle.job is None or handle.process.is_alive():
                continue
            index, attempt = handle.job
            handle.job = None
            exitcode = handle.process.exitcode
            events.append(
                PoolEvent(
                    "died",
                    index,
                    attempt,
                    handle.worker_id,
                    exitcode=exitcode,
                )
            )
            self._restart(handle)
        return events

    def kill_job(self, index: int) -> bool:
        """Kill the worker running job ``index`` (timeout enforcement)."""
        for handle in self._workers:
            if handle.job is not None and handle.job[0] == index:
                handle.job = None
                self._restart(handle)
                return True
        return False

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Stop workers and free shared memory."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.task_send.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline_join = 2.0
        for handle in self._workers:
            handle.process.join(timeout=deadline_join)
            self._teardown(handle)
        self._workers = []
        self.arena.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
