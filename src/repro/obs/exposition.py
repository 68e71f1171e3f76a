"""Live metrics exposition: Prometheus text + healthz over stdlib HTTP.

A :class:`MetricsHub` is the thread-safe live view of a running
campaign or serve daemon: the parent session's counters and
histograms, campaign bookkeeping (jobs done/running/retried/
quarantined), and the worker pool's counts as the pool's owner last
published them.  :class:`MetricsServer` serves that view over plain
``http.server``:

``/metrics``
    Prometheus text exposition (version 0.0.4).
``/healthz``
    Small JSON health document: campaign state, the pool block,
    quarantine count.
``/state``
    The full hub snapshot as JSON — consumed by ``repro top``.

Everything here is stdlib-only and strictly read-only with respect to
the computation: scraping the endpoint can never change an
algorithm's outcome.

Pool workers report telemetry only in their end-of-job records, which
the parent folds into its session when it takes the job's result, so
live counters and histograms change when a job completes and equal the
post-hoc aggregation once the campaign drains.  The hub is passed to
its publishers: the engine and the serve service.
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from .core import Histogram, Telemetry

__all__ = [
    "HardenedHTTPServer",
    "MetricsHub",
    "MetricsServer",
    "render_prometheus",
    "render_top",
    "sanitize_metric_name",
    "sparkline",
]

#: per-connection socket timeout — a client that stops sending (or
#: reading) mid-request is disconnected instead of wedging its handler
#: thread forever
REQUEST_TIMEOUT = 30.0

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_]")


def _copy_dict(source: Dict[str, Any]) -> Dict[str, Any]:
    """Best-effort snapshot of a dict another thread may be mutating."""
    for _ in range(5):
        try:
            return dict(source)
        except RuntimeError:  # resized mid-copy; retry
            continue
    return {}


class MetricsHub:
    """Thread-safe aggregation point for one campaign's live metrics."""

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._lock = threading.Lock()
        self._telemetry = telemetry
        self.started = time.time()
        self.campaign: Dict[str, Any] = {
            "state": "starting",
            "total": 0,
            "done": 0,
            "running": 0,
            "retried": 0,
            "timeouts": 0,
            "quarantined": 0,
            "resumed": 0,
        }
        #: the last :meth:`WorkerPool.stats` its owner published
        self.pool: Dict[str, Any] = {}

    # -- publishing (campaign / supervisor side) ----------------------
    def campaign_update(self, **fields: Any) -> None:
        with self._lock:
            self.campaign.update(fields)

    def pool_update(self, stats: Dict[str, Any]) -> None:
        """Publish the pool's counts (called by the pool's owner)."""
        with self._lock:
            self.pool = dict(stats)

    # -- reading (HTTP handler side) ----------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The session's totals plus the published campaign and pool."""
        telemetry = self._telemetry
        counters: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        if telemetry is not None:
            counters = _copy_dict(telemetry.counters)
            histograms = {
                name: hist.to_dict()
                for name, hist in _copy_dict(telemetry.histograms).items()
            }
        with self._lock:
            campaign = dict(self.campaign)
            pool = dict(self.pool)
        return {
            "time": time.time(),
            "uptime": round(time.time() - self.started, 3),
            "campaign": campaign,
            "pool": pool,
            "counters": counters,
            "histograms": histograms,
        }

    def healthz(self) -> Dict[str, Any]:
        """Light health document for ``/healthz``.

        ``degraded`` means a job was quarantined or a pool worker is
        down; a busy worker is healthy however long its job runs.
        """
        with self._lock:
            campaign = dict(self.campaign)
            pool = dict(self.pool)
        degraded = campaign.get("quarantined", 0) > 0 or pool.get(
            "alive", 0
        ) < pool.get("workers", 0)
        return {
            "status": "degraded" if degraded else "ok",
            "campaign": campaign,
            "uptime": round(time.time() - self.started, 3),
            "pool": pool,
            "quarantine_count": campaign.get("quarantined", 0),
        }


# ----------------------------------------------------------------------
# Prometheus text rendering
# ----------------------------------------------------------------------


def sanitize_metric_name(name: str) -> str:
    """Dotted internal name -> valid, ``repro_``-prefixed metric name."""
    return "repro_" + _INVALID_CHARS.sub("_", str(name))


def _format_value(value: Any) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_prometheus(snapshot: Dict[str, Any]) -> str:
    """Render a hub snapshot as Prometheus text exposition format."""
    lines: List[str] = []

    campaign = snapshot.get("campaign", {})
    jobs = [
        'repro_campaign_jobs{state="%s"} %s'
        % (field, _format_value(campaign[field]))
        for field in (
            "total", "done", "running", "retried", "quarantined", "resumed"
        )
        if field in campaign
    ]
    if jobs:
        lines.append("# TYPE repro_campaign_jobs gauge")
        lines.extend(jobs)
    state = campaign.get("state")
    if state is not None:
        lines.append("# TYPE repro_campaign_running gauge")
        lines.append(
            "repro_campaign_running %d" % (1 if state == "running" else 0)
        )

    pool = snapshot.get("pool", {})
    workers = [
        'repro_pool_workers{state="%s"} %s' % (label, _format_value(pool[key]))
        for label, key in (
            ("total", "workers"), ("alive", "alive"), ("busy", "busy")
        )
        if key in pool
    ]
    if workers:
        lines.append("# TYPE repro_pool_workers gauge")
        lines.extend(workers)

    for name in sorted(snapshot.get("counters", {})):
        metric = sanitize_metric_name(name) + "_total"
        lines.append("# TYPE %s counter" % metric)
        lines.append(
            "%s %s" % (metric, _format_value(snapshot["counters"][name]))
        )

    for name in sorted(snapshot.get("histograms", {})):
        payload = snapshot["histograms"][name]
        metric = sanitize_metric_name(name)
        lines.append("# TYPE %s histogram" % metric)
        buckets = {
            int(idx): int(count)
            for idx, count in payload.get("buckets", {}).items()
        }
        cumulative = 0
        for idx in sorted(buckets):
            cumulative += buckets[idx]
            le = Histogram.bucket_upper_bound(idx)
            lines.append(
                '%s_bucket{le="%s"} %d' % (metric, repr(le), cumulative)
            )
        lines.append('%s_bucket{le="+Inf"} %d' % (metric, payload.get("count", 0)))
        lines.append("%s_sum %s" % (metric, _format_value(payload.get("total", 0.0))))
        lines.append("%s_count %d" % (metric, payload.get("count", 0)))

    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Terminal rendering (``repro top``)
# ----------------------------------------------------------------------

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(payload: Dict[str, Any], width: int = 24) -> str:
    """Histogram payload -> a fixed-width unicode sparkline."""
    buckets = {
        int(idx): int(count) for idx, count in payload.get("buckets", {}).items()
    }
    if not buckets:
        return " " * width
    low, high = min(buckets), max(buckets)
    span = max(high - low + 1, 1)
    cells = [0] * width
    for idx, count in buckets.items():
        cell = min(int((idx - low) * width / span), width - 1)
        cells[cell] += count
    peak = max(cells)
    out = []
    for value in cells:
        if value == 0:
            out.append(" ")
        else:
            out.append(_BLOCKS[min(int(value * 8 / peak), 7)])
    return "".join(out)


def _fmt_quantiles(hist: Histogram) -> str:
    return (
        f"p50={hist.quantile(0.5):.4g} p90={hist.quantile(0.9):.4g} "
        f"p99={hist.quantile(0.99):.4g} max={hist.max:.4g}"
    )


def render_top(state: Dict[str, Any]) -> str:
    """Render a ``/state`` snapshot as a terminal dashboard frame."""
    campaign = state.get("campaign", {})
    counters = state.get("counters", {})
    histograms = state.get("histograms", {})
    lines = []
    lines.append(
        "campaign: {state} — {done}/{total} done "
        "({running} running, {retried} retried, {quarantined} quarantined, "
        "{resumed} resumed)".format(
            state=campaign.get("state", "?"),
            done=campaign.get("done", 0),
            total=campaign.get("total", 0),
            running=campaign.get("running", 0),
            retried=campaign.get("retried", 0),
            quarantined=campaign.get("quarantined", 0),
            resumed=campaign.get("resumed", 0),
        )
    )
    experiment = campaign.get("experiment")
    if experiment:
        lines.append(f"  experiment={experiment}")

    pool = state.get("pool", {})
    if pool:
        lines.append(
            "pool: {workers} workers — {busy} busy, {alive} alive".format(
                workers=pool.get("workers", 0),
                busy=pool.get("busy", 0),
                alive=pool.get("alive", 0),
            )
        )

    serve_requests = counters.get("serve.requests", 0)
    if serve_requests:
        lines.append(
            "serve: {requests} requests — {hits} cache hits, "
            "{coalesced} coalesced, {batched} batched jobs".format(
                requests=int(serve_requests),
                hits=int(counters.get("serve.cache_hit", 0)),
                coalesced=int(counters.get("serve.coalesced", 0)),
                batched=int(counters.get("serve.batched_jobs", 0)),
            )
        )

    for name in (
        "run.med",
        "engine.job_seconds",
        "opt.for_part_seconds",
        "serve.request_seconds",
        "serve.batch_size",
    ):
        payload = histograms.get(name)
        if not payload or not payload.get("count"):
            continue
        hist = Histogram.from_dict(payload)
        lines.append(
            f"{name} [{sparkline(payload)}] n={hist.count} {_fmt_quantiles(hist)}"
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# HTTP server
# ----------------------------------------------------------------------


class HardenedHTTPServer(ThreadingHTTPServer):
    """`ThreadingHTTPServer` hardened for long-lived daemons.

    ``allow_reuse_address`` sets ``SO_REUSEADDR`` before bind, so a
    daemon restarted right after a crash can rebind its port instead
    of dying with ``EADDRINUSE`` while the old socket sits in
    ``TIME_WAIT``.  Handler threads are daemonic: a wedged connection
    never blocks process exit.  The listen backlog is raised from
    socketserver's default of 5 — a burst of concurrent clients (the
    serve daemon's normal load) must queue, not get connection resets.
    (The per-connection socket timeout lives on the handler class —
    see ``_Handler.timeout``.)

    :meth:`serve_forever` blocks on the listening socket *and* a wake
    socket instead of polling, so :meth:`shutdown` returns as soon as
    the loop sees its wake byte rather than after a poll interval.
    """

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 128

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._loop_done = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Handle requests until :meth:`shutdown` (``poll_interval`` is
        accepted for signature compatibility and unused)."""
        self._loop_done.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while True:
                    ready = [key.fileobj for key, _ in selector.select()]
                    if self._wake_reader in ready:
                        self._wake_reader.recv(1)
                        return
                    self._handle_request_noblock()
        finally:
            self._loop_done.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` (running in another thread) and
        wait until it has returned; a no-op once it has."""
        if not self._loop_done.is_set():
            self._wake_writer.send(b"\0")
            self._loop_done.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()


class MetricsServer:
    """Serve a hub over HTTP from a daemon thread.

    ``port=0`` binds an ephemeral port; read the chosen one from
    ``server.port`` after construction.  Binding is loopback-only by
    default — forward the port if a remote Prometheus must scrape it.

    ``handler_base`` lets callers mount extra routes (the serve daemon
    adds ``POST /compile``) by passing a ``_Handler`` subclass;
    ``request_timeout`` tunes the per-connection socket timeout.
    """

    def __init__(
        self,
        hub: MetricsHub,
        port: int = 0,
        host: str = "127.0.0.1",
        handler_base: Optional[type] = None,
        request_timeout: float = REQUEST_TIMEOUT,
    ) -> None:
        self.hub = hub
        handler = type(
            "_HubHandler",
            (handler_base or _Handler,),
            {"hub": hub, "timeout": request_timeout},
        )
        self._httpd = HardenedHTTPServer((host, port), handler)
        self.host = host
        self.port = self._httpd.server_address[1]
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


class _Handler(BaseHTTPRequestHandler):
    hub: MetricsHub  # injected via subclass in MetricsServer

    #: per-connection socket timeout (StreamRequestHandler applies it
    #: in setup(); a stalled client trips socket.timeout and the
    #: connection is closed instead of wedging its thread)
    timeout: float = REQUEST_TIMEOUT

    def route_get(self, path: str) -> Optional[Tuple[bytes, str]]:
        """Resolve a GET path to ``(body, content_type)`` or ``None``.

        Subclasses (the serve daemon) extend this and fall back to
        ``super().route_get(path)`` for the stock endpoints.
        """
        if path == "/metrics":
            return (
                render_prometheus(self.hub.snapshot()).encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/healthz":
            return (
                json.dumps(self.hub.healthz(), sort_keys=True).encode(),
                "application/json",
            )
        if path == "/state":
            return (
                json.dumps(
                    self.hub.snapshot(), sort_keys=True, default=str
                ).encode(),
                "application/json",
            )
        return None

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        try:
            resolved = self.route_get(path)
        except Exception as exc:  # never let a scrape kill the server
            self.send_error(500, f"snapshot failed: {exc}")
            return
        if resolved is None:
            self.send_error(404, "unknown path (try /metrics, /healthz)")
            return
        body, ctype = resolved
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        pass  # scrapes must not spam the campaign's stderr
