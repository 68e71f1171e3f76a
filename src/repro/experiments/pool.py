"""Warm-pool execution backend: persistent workers over shared memory.

The per-job-spawn backend in :mod:`repro.experiments.engine` pays a
cold interpreter + numpy import per job and pickles every truth table
over the pipe.  This module provides the throughput-oriented
alternative the engine and :func:`repro.experiments.parallel.run_many`
can select per campaign:

* a :class:`WorkerPool` of persistent worker processes, started once
  and fed jobs over per-worker pipes (no shared queue, so killing a
  hung worker can never corrupt another worker's channel);
* a :class:`TableArena` that publishes truth tables into
  ``multiprocessing.shared_memory`` segments, content-addressed by
  digest — workers attach once per distinct table and hand the
  algorithms a zero-copy read-only numpy view instead of a pickle;
* a :class:`MemoLog`, the campaign-shared ``OptForPart`` memo: an
  append-only shared-memory log of pickled ``(key, value)`` entries.
  The parent is the single writer; each job message carries the
  committed length, so workers never observe a torn frame.  Workers
  import new entries before a job and journal the entries the job
  computed (see ``LruCache.journal``); the parent dedups and appends
  them.  Keys are the content digests from
  :mod:`repro.core.opt_for_part`, so a memo hit is bit-exact by
  construction and sharing cannot change any output bit;
* an optional on-disk snapshot (``optmemo.pkl`` under ``memo_dir``)
  saved on pool shutdown and republished on startup, so repeated
  Table-II / Fig-5 campaigns start warm.

Determinism: workers run :meth:`RunSpec.execute` with
``fresh_caches=False`` (the shared memo must survive across jobs) but
every run still re-seeds from the same ``SeedSequence.spawn`` draw and
pre-draws its SA patterns before any memo lookup, so results are
byte-identical to the serial and per-job-spawn backends — the
differential test in ``tests/engine/test_backend_equivalence.py`` pins
this.  Worker *telemetry counters* (cache hits) legitimately differ
with memo warmth; manifests are compared modulo timings and cache
counters.

Fault injection: the pool accepts the same :class:`repro.faults.Fault`
objects as the spawn backend — ``crash``/``hang`` fire inside the
worker before computation (the supervisor restarts the worker),
``corrupt`` makes the worker ship the same truncated payload the spawn
worker writes.  The spawn backend remains the fault-isolation
reference and the chaos suite is pinned to it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
import threading
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple

import multiprocessing

import numpy as np

from .. import faults as faults_mod
from .. import obs
from ..obs import exposition
from ..boolean.packed import PackedTable
from ..core.config import AlgorithmConfig
from ..core.opt_for_part import result_memo
from .parallel import RunSpec, run_specs_fused

__all__ = [
    "DEFAULT_MEMO_CAPACITY",
    "MEMO_SNAPSHOT_FILE",
    "TableArena",
    "MemoLog",
    "PoolEvent",
    "WorkerPool",
    "load_memo_snapshot",
    "save_memo_snapshot",
]

#: default bound on the number of shared memo entries per campaign
DEFAULT_MEMO_CAPACITY = 1 << 16

#: snapshot file name inside ``--memo-dir``
MEMO_SNAPSHOT_FILE = "optmemo.pkl"

#: length prefix of one memo-log frame
_FRAME = struct.Struct("<Q")

#: the truncated payload an injected ``corrupt`` fault produces — the
#: same garbage the spawn backend's worker writes to its checkpoint
_CORRUPT_PAYLOAD = '{"schema": 1, "med": 0.0, "settings": [{"trunc'

_SNAPSHOT_FORMAT = "repro-optmemo"
_SNAPSHOT_SCHEMA = 1


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
    unlinks segments; workers attach read-only by name.

    Non-negative integer tables are published as
    :class:`~repro.boolean.packed.PackedTable` bit-planes instead of raw
    ``int64`` entries whenever that page is smaller — ``n_outputs`` bits
    per entry rather than 64 (5.3x smaller for the default 12-bit
    Table-II functions), which directly raises arena capacity.  The ref
    is still content-addressed by the digest of the *raw* table bytes,
    so packed and raw pages of the same table share an address, and
    workers unpack once per digest back to the byte-identical ``int64``
    array — the algorithms never see the representation.
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
        packed = None
        if table.ndim == 1 and table.size and int(table.min()) >= 0:
            candidate = PackedTable(
                table, max(1, int(table.max()).bit_length())
            )
            # tiny tables can pack *larger* (one word per plane) — keep
            # whichever page is smaller
            if candidate.nbytes < table.nbytes:
                packed = candidate
        payload = packed.planes if packed is not None else table
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, payload.nbytes)
        )
        view = np.ndarray(payload.shape, dtype=payload.dtype, buffer=segment.buf)
        view[...] = payload
        ref = {
            "name": segment.name,
            "shape": list(table.shape),
            "dtype": str(table.dtype),
            "digest": digest,
        }
        if packed is not None:
            ref["packed"] = {
                "length": packed.length,
                "n_outputs": packed.n_outputs,
                "words": int(packed.planes.shape[-1]),
            }
        self._segments[digest] = (segment, ref)
        self.bytes += payload.nbytes
        obs.incr("pool.shm_tables")
        obs.incr("pool.shm_bytes", payload.nbytes)
        if packed is not None:
            obs.incr("pool.shm_packed_pages")
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
    """Materialise a read-only view of a published table.

    Raw pages are zero-copy views of the segment; packed pages are
    unpacked (once per digest per worker) back to the byte-identical
    ``int64`` entry array the algorithms expect.
    """
    view = tables.get(ref["digest"])
    if view is None:
        segment = _attach(segments, ref["name"])
        packed = ref.get("packed")
        if packed is not None:
            planes = np.ndarray(
                (packed["n_outputs"], packed["words"]),
                dtype=np.dtype("<u8"),
                buffer=segment.buf,
            )
            view = (
                PackedTable._trusted(
                    packed["length"], packed["n_outputs"], np.array(planes)
                )
                .to_table(np.dtype(ref["dtype"]))
                .reshape(tuple(ref["shape"]))
            )
        else:
            view = np.ndarray(
                tuple(ref["shape"]),
                dtype=np.dtype(ref["dtype"]),
                buffer=segment.buf,
            )
        view.flags.writeable = False
        tables[ref["digest"]] = view
    return view


# ======================================================================
# The campaign-shared OptForPart memo log
# ======================================================================
class MemoLog:
    """Append-only shared-memory log of memo entries, parent as writer.

    Frames are length-prefixed pickled lists of ``(key, value)`` pairs.
    Workers read ``[their offset, committed)`` where ``committed``
    arrives inside each job message — the parent never sends a length
    it has not finished writing, so a torn read is impossible.  Growth
    rotates to a doubled segment, copying the committed bytes so every
    worker offset stays valid; retired segments are kept until
    :meth:`close` so a worker attaching a just-rotated name never
    races an unlink.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_MEMO_CAPACITY,
        initial_bytes: int = 1 << 20,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.committed = 0
        self.dropped = 0
        self._segment = shared_memory.SharedMemory(
            create=True, size=initial_bytes
        )
        self._retired: List[shared_memory.SharedMemory] = []
        self._keys = set()
        self._entries: List[Tuple[Any, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def ref(self) -> Tuple[str, int]:
        """``(segment name, committed length)`` for a job message."""
        return (self._segment.name, self.committed)

    def entries(self) -> List[Tuple[Any, Any]]:
        """Every published entry (for the disk snapshot)."""
        return list(self._entries)

    def publish(self, pairs: Sequence[Tuple[Any, Any]]) -> int:
        """Append entries not yet in the log; returns how many were new.

        Entries beyond ``capacity`` are dropped (counted in
        ``dropped`` and the ``pool.memo_dropped`` counter) — the log is
        a bounded cache, not an unbounded journal.
        """
        fresh: List[Tuple[Any, Any]] = []
        for key, value in pairs:
            if value is None or key in self._keys:
                continue
            if len(self._entries) + len(fresh) >= self.capacity:
                self.dropped += 1
                obs.incr("pool.memo_dropped")
                continue
            self._keys.add(key)
            fresh.append((key, value))
        if not fresh:
            return 0
        frame = pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL)
        needed = self.committed + _FRAME.size + len(frame)
        if needed > self._segment.size:
            self._rotate(needed)
        buffer = self._segment.buf
        _FRAME.pack_into(buffer, self.committed, len(frame))
        buffer[self.committed + _FRAME.size : needed] = frame
        self.committed = needed
        self._entries.extend(fresh)
        obs.incr("pool.memo_published", len(fresh))
        return len(fresh)

    def _rotate(self, needed: int) -> None:
        size = self._segment.size
        while size < needed:
            size *= 2
        replacement = shared_memory.SharedMemory(create=True, size=size)
        replacement.buf[: self.committed] = self._segment.buf[: self.committed]
        self._retired.append(self._segment)
        self._segment = replacement
        obs.incr("pool.memo_rotations")

    def close(self) -> None:
        for segment in self._retired + [self._segment]:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._retired = []


def read_memo_frames(buffer, start: int, end: int) -> List[Tuple[Any, Any]]:
    """Decode the log frames in ``[start, end)`` (worker import path)."""
    entries: List[Tuple[Any, Any]] = []
    offset = start
    while offset < end:
        (length,) = _FRAME.unpack_from(buffer, offset)
        offset += _FRAME.size
        entries.extend(pickle.loads(bytes(buffer[offset : offset + length])))
        offset += length
    return entries


# ======================================================================
# Disk snapshot (--memo-dir)
# ======================================================================
def load_memo_snapshot(memo_dir: str) -> List[Tuple[Any, Any]]:
    """Entries from ``memo_dir``'s snapshot, or ``[]`` when absent/bad."""
    path = os.path.join(memo_dir, MEMO_SNAPSHOT_FILE)
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return []
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _SNAPSHOT_FORMAT
        or payload.get("schema") != _SNAPSHOT_SCHEMA
    ):
        return []
    return list(payload.get("entries", []))


def save_memo_snapshot(
    memo_dir: str, entries: Sequence[Tuple[Any, Any]]
) -> str:
    """Atomically write the snapshot (temp file + rename); returns path."""
    os.makedirs(memo_dir, exist_ok=True)
    path = os.path.join(memo_dir, MEMO_SNAPSHOT_FILE)
    payload = {
        "format": _SNAPSHOT_FORMAT,
        "schema": _SNAPSHOT_SCHEMA,
        "entries": list(entries),
    }
    fd, tmp_path = tempfile.mkstemp(
        prefix=MEMO_SNAPSHOT_FILE + ".tmp-", dir=memo_dir
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


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


def _stream_telemetry(
    results, send_lock, current_job, stop, interval: float
) -> None:
    """Daemon thread: ship cumulative telemetry snapshots mid-job.

    Each message carries the *whole* current-job session so arrival
    order does not matter; the parent keeps only the latest snapshot
    per worker and drops it the moment the job's authoritative
    end-of-job records are absorbed (no double counting).  A torn
    snapshot (the main thread mutating a dict mid-copy) is simply
    skipped — the next tick replaces it.
    """
    while not stop.wait(interval):
        job = current_job["job"]
        session = obs.current()
        if job is None or session is None:
            continue
        try:
            counters = dict(session.counters)
            gauges = dict(session.gauges)
            histograms = {
                name: hist.to_dict()
                for name, hist in dict(session.histograms).items()
            }
        except RuntimeError:  # resized mid-copy; retry next tick
            continue
        message = {
            "kind": "telemetry",
            "job": list(job),
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }
        try:
            with send_lock:
                results.send(message)
        except (BrokenPipeError, OSError):
            return


def _pool_worker(
    worker_id: int,
    tasks,
    results,
    memo_capacity: int,
    metrics_interval: Optional[float] = None,
) -> None:
    """Persistent worker loop: recv job → sync memo → execute → reply.

    Import ordering note: this function runs in a child of the pool
    parent, so numpy/repro are already imported under the fork start
    method — the pool's whole point.  Under spawn the first job pays
    the import once and the rest stay warm.

    With ``metrics_interval`` a daemon thread streams cumulative
    telemetry snapshots of the in-flight job over the same result pipe
    (serialised by a send lock); the computation itself is untouched.
    """
    from ..core.serialize import setting_to_dict  # noqa: F401  (warm import)
    from .engine import result_to_payload

    memo = result_memo()
    if memo_capacity > memo.maxsize:
        memo.resize(memo_capacity)
    segments: Dict[str, shared_memory.SharedMemory] = {}
    tables: Dict[str, np.ndarray] = {}
    log_offset = 0
    send_lock = threading.Lock()
    current_job: Dict[str, Any] = {"job": None}
    stop_streaming = threading.Event()
    if metrics_interval:
        threading.Thread(
            target=_stream_telemetry,
            args=(
                results,
                send_lock,
                current_job,
                stop_streaming,
                metrics_interval,
            ),
            name=f"repro-pool-stream-{worker_id}",
            daemon=True,
        ).start()

    def _send(message: Dict[str, Any]) -> None:
        with send_lock:
            results.send(message)

    # Under the fork start method every worker inherits its siblings'
    # pipe ends, so a SIGKILLed pool parent never produces an EOF on
    # ``tasks`` — the write end survives in the other orphans.  Poll
    # with a timeout and watch for re-parenting instead: a worker whose
    # parent died exits on its own rather than lingering forever.
    parent = os.getppid()
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
        imported = 0
        log_ref = message["memo_log"]
        if log_ref is not None:
            log_name, committed = log_ref
            if committed > log_offset:
                segment = _attach(segments, log_name)
                entries = read_memo_frames(segment.buf, log_offset, committed)
                imported = memo.import_entries(entries)
                log_offset = committed
        fused_fields = message.get("fused")
        if fused_fields is not None:
            # Fused job: several specs share this worker and run under
            # one FusionHub (run_specs_fused), so their kernel batches
            # merge into wide grouped passes.  Per-spec failures come
            # back inside the payload — the job itself replies "ok"
            # unless the whole group machinery blows up.
            specs = [
                _spec_from_message(fields, _table_view(segments, tables, ref))
                for fields, ref in zip(fused_fields, message["tables"])
            ]
            group_journal: List[Tuple[Any, Any]] = []
            memo.journal = group_journal
            sink = obs.MemorySink()
            current_job["job"] = (message["index"], message["attempt"])
            try:
                with obs.session(sink):
                    outcomes = run_specs_fused(specs, fresh_caches=False)
            except Exception:
                current_job["job"] = None
                memo.journal = None
                _send(
                    {
                        "kind": "error",
                        "index": message["index"],
                        "attempt": message["attempt"],
                        "detail": traceback.format_exc(limit=8),
                        "memo_delta": None,
                        "imported": imported,
                    }
                )
                continue
            current_job["job"] = None
            memo.journal = None
            raw = None
            if fault is not None and fault.kind == "corrupt":
                payload = {}
                raw = _CORRUPT_PAYLOAD
            else:
                entries: List[Dict[str, Any]] = []
                for spec, (status, value) in zip(specs, outcomes):
                    if status == "ok":
                        entries.append({"ok": result_to_payload(spec, value)})
                    else:
                        entries.append({"error": value})
                payload = {"fused": entries}
                if message["capture"]:
                    payload["telemetry"] = sink.records
            delta = (
                pickle.dumps(group_journal, protocol=pickle.HIGHEST_PROTOCOL)
                if group_journal
                else None
            )
            _send(
                {
                    "kind": "ok",
                    "index": message["index"],
                    "attempt": message["attempt"],
                    "payload": payload,
                    "raw": raw,
                    "memo_delta": delta,
                    "imported": imported,
                }
            )
            continue
        table = _table_view(segments, tables, message["table"])
        spec = _spec_from_message(message["spec"], table)
        journal: List[Tuple[Any, Any]] = []
        memo.journal = journal
        sink = obs.MemorySink()
        current_job["job"] = (message["index"], message["attempt"])
        try:
            with obs.session(sink):
                result = spec.execute(fresh_caches=False)
        except Exception:
            current_job["job"] = None
            memo.journal = None
            _send(
                {
                    "kind": "error",
                    "index": message["index"],
                    "attempt": message["attempt"],
                    "detail": traceback.format_exc(limit=8),
                    "memo_delta": None,
                    "imported": imported,
                }
            )
            continue
        current_job["job"] = None
        memo.journal = None
        raw: Optional[str] = None
        if fault is not None and fault.kind == "corrupt":
            payload: Dict[str, Any] = {}
            raw = _CORRUPT_PAYLOAD
        else:
            payload = result_to_payload(spec, result)
            if message["capture"]:
                payload["telemetry"] = sink.records
        delta = (
            pickle.dumps(journal, protocol=pickle.HIGHEST_PROTOCOL)
            if journal
            else None
        )
        _send(
            {
                "kind": "ok",
                "index": message["index"],
                "attempt": message["attempt"],
                "payload": payload,
                "raw": raw,
                "memo_delta": delta,
                "imported": imported,
            }
        )
    stop_streaming.set()


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
    """Persistent pre-warmed workers with shared tables and memo.

    The lifecycle is ``submit`` / ``wait`` (used by the engine's
    supervision loop) or the one-shot :meth:`run` (used by
    ``run_many``), then :meth:`close` — which persists the memo
    snapshot when ``memo_dir`` is set and tears down every
    shared-memory segment.
    """

    def __init__(
        self,
        n_workers: int,
        memo_capacity: int = DEFAULT_MEMO_CAPACITY,
        memo_dir: Optional[str] = None,
        capture_telemetry: bool = False,
        metrics_interval: Optional[float] = None,
        context=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if metrics_interval is not None and metrics_interval <= 0:
            raise ValueError("metrics_interval must be positive")
        self.n_workers = n_workers
        self.memo_capacity = memo_capacity
        self.memo_dir = memo_dir
        self.capture_telemetry = capture_telemetry
        #: seconds between mid-job telemetry snapshots (None = off)
        self.metrics_interval = metrics_interval
        self._context = context if context is not None else _preferred_context()
        self.arena = TableArena()
        self.memo_log = MemoLog(capacity=memo_capacity)
        self._workers: List[_WorkerHandle] = []
        self._closed = False
        if memo_dir is not None:
            seeded = self.memo_log.publish(load_memo_snapshot(memo_dir))
            if seeded:
                obs.incr("pool.memo_snapshot_loaded", seeded)
                obs.event(
                    "pool.memo_snapshot_loaded",
                    entries=seeded,
                    memo_dir=memo_dir,
                )
        for worker_id in range(n_workers):
            self._workers.append(self._spawn(worker_id))

    # -- worker lifecycle ---------------------------------------------
    def _spawn(self, worker_id: int) -> _WorkerHandle:
        task_recv, task_send = self._context.Pipe(duplex=False)
        result_recv, result_send = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_pool_worker,
            args=(
                worker_id,
                task_recv,
                result_send,
                self.memo_capacity,
                self.metrics_interval,
            ),
            daemon=True,
        )
        process.start()
        # the parent keeps only its ends; the worker holds the others
        task_recv.close()
        result_send.close()
        obs.incr("pool.workers_started")
        hub = exposition.active_hub()
        if hub is not None:
            hub.worker_seen(worker_id)
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
        """Service-facing snapshot (the serve daemon's ``/state`` block).

        Only the owning thread may call this (like ``submit``/``wait``
        — the pool is not thread-safe); the serve dispatcher and the
        campaign engine both satisfy that by construction.
        """
        return {
            "workers": self.n_workers,
            "busy": self.busy_count(),
            "alive": sum(1 for w in self._workers if w.process.is_alive()),
            "memo_entries": len(self.memo_log),
            "memo_capacity": self.memo_capacity,
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
            "memo_log": self.memo_log.ref,
            "fault": fault,
            "capture": self.capture_telemetry,
        }
        handle.task_send.send(message)
        handle.job = (index, attempt)
        hub = exposition.active_hub()
        if hub is not None:
            hub.worker_seen(handle.worker_id, job=[index, attempt])
        return handle.worker_id

    def submit_fused(
        self,
        index: int,
        specs: Sequence[RunSpec],
        attempt: int = 0,
        fault: Optional[faults_mod.Fault] = None,
    ) -> int:
        """Dispatch one *fused* job — several specs on one worker.

        The worker runs the whole group through
        :func:`repro.experiments.parallel.run_specs_fused`, so the
        specs' kernel batches merge into wide grouped ``OptForPart``
        passes while each spec's result stays byte-identical to an
        individual :meth:`submit`.  The completion arrives as a single
        ``"ok"`` event whose payload carries one ``{"ok": payload}`` /
        ``{"error": traceback}`` entry per spec, in input order; only
        a wholesale group failure surfaces as an ``"error"`` event.
        """
        specs = list(specs)
        if not specs:
            raise ValueError("submit_fused needs at least one spec")
        idle = self.idle_workers()
        if not idle:
            raise RuntimeError("no idle worker available")
        handle = idle[0]
        if not handle.process.is_alive():  # pragma: no cover - defensive
            self._restart(handle)
            handle = self.idle_workers()[0]
        message = {
            "index": index,
            "attempt": attempt,
            "fused": [_spec_message(spec) for spec in specs],
            "tables": [self.arena.publish(spec.table) for spec in specs],
            "memo_log": self.memo_log.ref,
            "fault": fault,
            "capture": self.capture_telemetry,
        }
        handle.task_send.send(message)
        handle.job = (index, attempt)
        obs.incr("pool.fused_jobs")
        obs.observe("pool.fused_job_width", len(specs))
        hub = exposition.active_hub()
        if hub is not None:
            hub.worker_seen(handle.worker_id, job=[index, attempt])
        return handle.worker_id

    def wait(self, timeout: Optional[float]) -> List[PoolEvent]:
        """Collect finished jobs (and dead workers) without blocking long.

        Results are drained before death checks so a worker that
        replied and then crashed still counts its job as finished.
        Memo deltas shipped with each result are published to the
        shared log here — the parent is the log's only writer.
        """
        busy = [w for w in self._workers if w.job is not None]
        if not busy:
            return []
        waitees: List[Any] = [w.result_recv for w in busy]
        waitees.extend(w.process.sentinel for w in busy)
        ready = set(connection.wait(waitees, timeout))
        events: List[PoolEvent] = []
        for handle in busy:
            if handle.result_recv not in ready:
                continue
            # Drain streamed telemetry snapshots (never surfaced as
            # PoolEvents) until the completion message, if one is in.
            message = None
            try:
                while True:
                    message = handle.result_recv.recv()
                    if message.get("kind") != "telemetry":
                        break
                    self._stream_report(handle, message)
                    if not handle.result_recv.poll():
                        message = None
                        break
            except (EOFError, OSError):
                continue  # worker died mid-send; sentinel path handles it
            if message is None:
                continue
            index, attempt = handle.job  # type: ignore[misc]
            handle.job = None
            hub = exposition.active_hub()
            if hub is not None:
                hub.worker_clear(handle.worker_id)
            obs.incr("pool.memo_imported", message.get("imported", 0))
            delta = message.get("memo_delta")
            if delta:
                self.memo_log.publish(pickle.loads(delta))
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
            hub = exposition.active_hub()
            if hub is not None:
                hub.worker_gone(handle.worker_id)
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

    def _stream_report(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        """Route one streamed snapshot to the live hub (if any).

        Snapshots whose ``(index, attempt)`` no longer match the
        worker's current job are stale (the job completed or was
        killed between the worker's send and our recv) and count only
        as a liveness heartbeat — accepting them would double-count a
        job already folded into the session.
        """
        hub = exposition.active_hub()
        if hub is None:
            return
        job = message.get("job")
        if handle.job is None or job is None or tuple(job) != handle.job:
            hub.worker_seen(handle.worker_id)
            return
        hub.worker_report(
            handle.worker_id,
            list(job),
            counters=message.get("counters"),
            gauges=message.get("gauges"),
            histograms=message.get("histograms"),
        )

    def kill_job(self, index: int) -> bool:
        """Kill the worker running job ``index`` (timeout enforcement)."""
        for handle in self._workers:
            if handle.job is not None and handle.job[0] == index:
                handle.job = None
                hub = exposition.active_hub()
                if hub is not None:
                    hub.worker_gone(handle.worker_id)
                self._restart(handle)
                return True
        return False

    # -- one-shot driver for run_many ---------------------------------
    def run(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Execute all specs, returning payloads in spec order.

        No retry semantics — a worker error or death raises, matching
        ``ProcessPoolExecutor`` behaviour in ``run_many``.  Use the
        engine for supervision.
        """
        payloads: List[Optional[Dict[str, Any]]] = [None] * len(specs)
        pending = deque(range(len(specs)))
        remaining = len(specs)
        while remaining:
            while pending and self.has_idle():
                index = pending.popleft()
                self.submit(index, specs[index])
            for event in self.wait(0.05):
                if event.kind == "ok":
                    payloads[event.index] = event.payload
                    remaining -= 1
                elif event.kind == "error":
                    raise RuntimeError(
                        f"pool job {event.index} raised:\n{event.detail}"
                    )
                else:
                    raise RuntimeError(
                        f"pool worker died on job {event.index} "
                        f"(exit {event.exitcode})"
                    )
        return payloads  # type: ignore[return-value]

    # -- shutdown ------------------------------------------------------
    def close(self) -> None:
        """Stop workers, persist the memo snapshot, free shared memory."""
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
        if self.memo_dir is not None:
            entries = self.memo_log.entries()
            path = save_memo_snapshot(self.memo_dir, entries)
            obs.incr("pool.memo_snapshot_saved", len(entries))
            obs.event(
                "pool.memo_snapshot_saved", entries=len(entries), path=path
            )
        self.memo_log.close()
        self.arena.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
