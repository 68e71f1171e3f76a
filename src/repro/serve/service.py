"""The serve daemon's compile queue: coalescing, batching, execution.

Request flow
------------

``submit()`` (called from HTTP handler threads) checks the artifact
cache, then the in-flight table — a request whose fingerprint is
already queued or executing *coalesces* onto the existing job and
shares its result — and otherwise enqueues a new job.

A single dispatcher thread drains the queue: it gathers up to
``max_batch`` jobs inside a ``batch_window`` and executes the batch on
the backend — the warm :class:`WorkerPool` (jobs fan out across
persistent workers sharing the ``TableArena``) or
``"inline"`` (in-process, for tests and single-core hosts).  Every job
of a batch is dispatched on its own, one pool job per request; the
kernel batching happens inside each compile (one stacked call per
search generation).  Worker deaths and errors are retried up to
``max_retries`` times — the pool replaces dead workers itself, so a
mid-batch kill costs retries, not the daemon.

Everything the dispatcher computes goes through
:func:`repro.compile_api.artifact_from_result` — the same code path
as offline ``repro compile`` — and lands in the
:class:`~repro.serve.cache.ArtifactCache` before any future resolves,
so concurrent duplicates and later requests all see one byte-identical
artifact.

Only the dispatcher thread touches the pool (the ``WorkerPool`` is
not thread-safe); handler threads only touch the queue, the cache and
the in-flight table, each behind its lock.
"""

from __future__ import annotations

import dataclasses
import json
import queue
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from .. import compile_api, obs
from ..experiments.engine import result_from_payload
from ..experiments.pool import WorkerPool
from ..obs.exposition import MetricsHub
from .cache import ArtifactCache
from .schema import CompileRequest

__all__ = ["CompileService", "ServeConfig", "ServiceError"]


class ServiceError(Exception):
    """A request that cannot be served; ``status`` is the HTTP code."""

    def __init__(self, message: str, status: int = 500) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Daemon knobs (CLI flags map one-to-one onto these fields)."""

    jobs: int = 2
    backend: str = "pool"
    artifact_dir: Optional[str] = None
    cache_size: int = 256
    batch_window: float = 0.02
    max_batch: int = 16
    max_retries: int = 2
    rate: Optional[float] = None
    burst: int = 16
    request_timeout: float = 600.0

    def __post_init__(self) -> None:
        if self.backend not in ("pool", "inline"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                "choose 'pool' or 'inline'"
            )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")


class CompileFuture:
    """One caller's pending result (shared by coalesced requests)."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self._payload: Optional[Dict[str, Any]] = None
        self._source = "computed"
        self._error: Optional[Tuple[int, str]] = None

    def _resolve(self, payload: Dict[str, Any], source: str) -> None:
        self._payload = payload
        self._source = source
        self._done.set()

    def _fail(self, status: int, message: str) -> None:
        self._error = (status, message)
        self._done.set()

    def result(
        self, timeout: Optional[float] = None
    ) -> Tuple[Dict[str, Any], str]:
        """Block for the artifact; returns ``(payload, source)``.

        ``source`` is ``"memory"`` / ``"disk"`` (cache hit),
        ``"coalesced"`` (shared an in-flight computation) or
        ``"computed"``.
        """
        if not self._done.wait(timeout):
            raise ServiceError("compile timed out", status=504)
        if self._error is not None:
            raise ServiceError(self._error[1], status=self._error[0])
        assert self._payload is not None
        return self._payload, self._source


class _Job:
    __slots__ = ("request", "key", "futures", "attempts")

    def __init__(self, request: CompileRequest, future: CompileFuture) -> None:
        self.request = request
        self.key = request.fingerprint
        self.futures: List[CompileFuture] = [future]
        self.attempts = 0


#: queued by :meth:`CompileService.stop` to wake and end the dispatcher
_STOP = object()


class CompileService:
    """Owns the cache, the queue, the dispatcher and the backend."""

    def __init__(
        self, config: ServeConfig, hub: Optional[MetricsHub] = None
    ) -> None:
        self.config = config
        self.hub = hub
        self.cache = ArtifactCache(
            capacity=config.cache_size, artifact_dir=config.artifact_dir
        )
        self._queue: "queue.Queue[Any]" = queue.Queue()  # _Job or _STOP
        self._inflight: Dict[str, _Job] = {}
        self._lock = threading.Lock()
        self._metrics_lock = threading.Lock()
        self._stopping = threading.Event()
        self._pool: Optional[WorkerPool] = None
        self._thread: Optional[threading.Thread] = None
        self.requests = 0
        self.completed = 0
        self.failed = 0
        #: last pool snapshot, refreshed by the dispatcher after each
        #: batch (the pool itself is single-owner and must not be
        #: touched from handler threads)
        self._pool_stats: Optional[Dict[str, Any]] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "CompileService":
        if self._thread is not None:
            raise RuntimeError("service already started")
        if self.config.backend == "pool":
            self._pool = WorkerPool(self.config.jobs)
        self._campaign_update(state="serving", running=0)
        self._thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stopping.set()
        # Wake the dispatcher now rather than at its next idle tick; it
        # finishes the jobs queued ahead of the sentinel first.
        self._queue.put(_STOP)
        self._thread.join(timeout=30)
        self._thread = None
        # Fail anything still queued — handler threads must not hang.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not _STOP:
                self._finish_error(job, 503, "server shutting down")
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._campaign_update(state="stopped", running=0)

    def __enter__(self) -> "CompileService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request side (handler threads) --------------------------------
    def submit(self, request: CompileRequest) -> CompileFuture:
        """Resolve from cache, coalesce onto an in-flight job, or enqueue."""
        key = request.fingerprint
        future = CompileFuture()
        with self._lock:
            self.requests += 1
            obs.incr("serve.requests")
        cached = self.cache.get(key)
        if cached is not None:
            payload, layer = cached
            future._resolve(payload, layer)
            return future
        with self._lock:
            if self._stopping.is_set():
                future._fail(503, "server shutting down")
                return future
            job = self._inflight.get(key)
            if job is not None:
                job.futures.append(future)
                future._source = "coalesced"
                obs.incr("serve.coalesced")
                return future
            job = _Job(request, future)
            self._inflight[key] = job
        self._queue.put(job)
        return future

    def record_request(self, elapsed_seconds: float) -> None:
        """Observe one HTTP request's latency (called by the daemon)."""
        with self._metrics_lock:
            obs.observe("serve.request_seconds", elapsed_seconds)

    def state(self) -> Dict[str, Any]:
        """Service block for ``/state`` consumers and tests."""
        with self._lock:
            inflight = len(self._inflight)
            pool_stats = self._pool_stats
            counts = {
                "requests": self.requests,
                "completed": self.completed,
                "failed": self.failed,
            }
        state = {
            "backend": self.config.backend,
            "jobs": self.config.jobs,
            "inflight": inflight,
            "cache": self.cache.stats(),
            **counts,
        }
        if pool_stats is not None:
            state["pool"] = pool_stats
        return state

    # -- dispatcher ----------------------------------------------------
    def _campaign_update(self, **fields: Any) -> None:
        if self.hub is not None:
            self.hub.campaign_update(
                experiment="serve", backend=self.config.backend, **fields
            )

    def _refresh_pool_stats(self) -> None:
        """Snapshot the pool for ``/state`` readers (dispatcher only).

        Also called on idle dispatcher ticks: ``/healthz`` and
        ``/state`` previously served the snapshot from the *last batch*
        indefinitely, so a worker that died while the queue was empty
        kept reporting as alive until the next compile arrived.
        """
        if self._pool is None:
            return
        stats = self._pool.stats()
        with self._lock:
            self._pool_stats = stats

    def _dispatch_loop(self) -> None:
        while True:
            try:
                job = self._queue.get(timeout=0.05)
            except queue.Empty:
                self._refresh_pool_stats()
                continue
            if job is _STOP:
                return
            batch = [job]
            deadline = time.monotonic() + self.config.batch_window
            while len(batch) < self.config.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                try:
                    job = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if job is _STOP:
                    self._execute_batch(batch)
                    return
                batch.append(job)
            self._execute_batch(batch)

    def _execute_batch(self, batch: List[_Job]) -> None:
        obs.incr("serve.batches")
        obs.observe("serve.batch_size", len(batch))
        if len(batch) > 1:
            obs.incr("serve.batched_jobs", len(batch))
        self._campaign_update(running=len(batch))
        if self._pool is not None:
            results = self._run_pool_batch(batch)
        else:
            results = self._run_inline_batch(batch)
        for job in batch:
            outcome = results.get(job.key)
            if isinstance(outcome, Exception):
                self._finish_error(job, 500, f"compile failed: {outcome}")
            elif outcome is None:
                self._finish_error(job, 500, "compile produced no result")
            else:
                self.cache.put(job.key, outcome)
                self._finish_ok(job, outcome)
        self._refresh_pool_stats()
        self._campaign_update(running=0)

    def _run_inline_batch(self, batch: List[_Job]) -> Dict[str, Any]:
        results: Dict[str, Any] = {}
        for job in batch:
            try:
                result = job.request.spec.execute()
                artifact = compile_api.artifact_from_result(
                    job.request.spec, result
                )
                results[job.key] = artifact.payload
                obs.incr("serve.executed")
            except Exception as exc:  # resolve the future, keep serving
                results[job.key] = exc
        return results

    def _absorb_payload(
        self, job: _Job, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Worker result payload → cached artifact payload.

        Same canonicalising round-trip the campaign engine performs on
        checkpoint payloads; raises on anything malformed so the
        caller can charge a retry.
        """
        canonical = json.loads(
            json.dumps(payload, sort_keys=True, default=str)
        )
        result = result_from_payload(job.request.spec, canonical)
        artifact = compile_api.artifact_from_result(job.request.spec, result)
        return artifact.payload

    def _run_pool_batch(self, batch: List[_Job]) -> Dict[str, Any]:
        assert self._pool is not None
        pool = self._pool
        results: Dict[str, Any] = {}
        attempts = [0] * len(batch)
        pending = list(range(len(batch)))
        active: Dict[int, _Job] = {}
        remaining = len(batch)

        def retry(index: int, detail: str) -> None:
            nonlocal remaining
            attempts[index] += 1
            if attempts[index] > self.config.max_retries:
                results[batch[index].key] = RuntimeError(detail)
                remaining -= 1
                obs.incr("serve.errors")
            else:
                obs.incr("serve.retries")
                pending.append(index)

        while remaining:
            while pending and pool.has_idle():
                index = pending.pop(0)
                job = batch[index]
                pool.submit(index, job.request.spec, attempt=attempts[index])
                active[index] = job
            for event in pool.wait(0.05):
                job = active.pop(event.index)
                if event.kind == "ok" and event.payload is not None:
                    try:
                        results[job.key] = self._absorb_payload(job, event.payload)
                        remaining -= 1
                        obs.incr("serve.executed")
                    except Exception as exc:
                        retry(event.index, f"invalid worker payload: {exc}")
                elif event.kind == "ok":
                    retry(event.index, "worker returned a corrupt payload")
                elif event.kind == "error":
                    retry(event.index, f"worker raised: {event.detail}")
                else:
                    retry(
                        event.index,
                        f"worker died (exit {event.exitcode})",
                    )
        return results

    # -- completion ----------------------------------------------------
    def _pop_job(self, job: _Job) -> List[CompileFuture]:
        with self._lock:
            self._inflight.pop(job.key, None)
            return list(job.futures)

    def _finish_ok(self, job: _Job, payload: Dict[str, Any]) -> None:
        futures = self._pop_job(job)
        with self._lock:
            self.completed += 1
        self._campaign_update(
            total=self.requests, done=self.completed
        )
        for future in futures:
            future._resolve(payload, future._source)

    def _finish_error(self, job: _Job, status: int, message: str) -> None:
        futures = self._pop_job(job)
        with self._lock:
            self.failed += 1
        obs.incr("serve.failed_requests", len(futures))
        for future in futures:
            future._fail(status, message)
