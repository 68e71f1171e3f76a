"""repro.obs — zero-dependency telemetry for the BS-SA/DALTA pipeline.

Off by default.  The instrumented hot paths call :func:`span`,
:func:`incr`, and :func:`event`; while telemetry is disabled those are
a single ``None`` check (``span`` returns a shared no-op object), so
disabled overhead stays well under 2%.

Enable with sinks for the current process::

    from repro import obs
    from repro.obs import JsonlSink, MemorySink, StderrSink

    with obs.session(JsonlSink("trace.jsonl"), StderrSink(verbose=True)):
        run_bssa(target, config)

or via the CLI: ``python -m repro experiment table2 --trace out.jsonl
--verbose``.  ``repro.obs.summarize.summarize("out.jsonl")`` turns the
trace into a per-phase breakdown; :mod:`repro.obs.manifest` records
config hashes, seeds, and git revisions alongside the outputs.

See ``docs/observability.md`` for the span taxonomy and sink guide.
"""

from __future__ import annotations

from contextlib import contextmanager
from importlib import import_module
from typing import Optional

from .core import NOOP_SPAN, Histogram, Span, Telemetry
from .manifest import RunManifest, config_hash, git_revision
from .sinks import JsonlSink, MemorySink, NullSink, Sink, StderrSink
from . import manifest  # noqa: F401  (re-exported)

__all__ = [
    "Telemetry",
    "Span",
    "Histogram",
    "Sink",
    "MemorySink",
    "JsonlSink",
    "NullSink",
    "StderrSink",
    "RunManifest",
    "config_hash",
    "git_revision",
    "enabled",
    "current",
    "enable",
    "disable",
    "session",
    "span",
    "incr",
    "gauge",
    "observe",
    "event",
    "exposition",
    "manifest",
    "summarize",
]

#: submodules loaded on first attribute access (PEP 562): the HTTP
#: exposition server alone pulls in ``http.server``, ``socket`` and
#: ``ssl``, which a compile never needs
_LAZY_SUBMODULES = ("exposition", "summarize")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: the active session, or None — the module-level enabled flag
_current: Optional[Telemetry] = None


def enabled() -> bool:
    """True when a telemetry session is active in this process."""
    return _current is not None


def current() -> Optional[Telemetry]:
    """The active :class:`Telemetry`, or ``None`` when disabled."""
    return _current


def enable(*sinks: Sink) -> Telemetry:
    """Start a telemetry session, replacing any active one."""
    global _current
    if _current is not None:
        _current.close()
    _current = Telemetry(sinks)
    return _current


def disable() -> None:
    """End the active session, flushing and closing its sinks."""
    global _current
    if _current is not None:
        _current.close()
        _current = None


@contextmanager
def session(*sinks: Sink):
    """Scoped telemetry session; restores the previous one on exit."""
    global _current
    previous = _current
    telemetry = Telemetry(sinks)
    _current = telemetry
    try:
        yield telemetry
    finally:
        _current = previous
        telemetry.close()


# ----------------------------------------------------------------------
# Hot-path API: each function is one global load + None check when
# telemetry is disabled.
# ----------------------------------------------------------------------


def span(name: str, **attributes):
    """A timed span context manager (no-op singleton when disabled)."""
    telemetry = _current
    if telemetry is None:
        return NOOP_SPAN
    return telemetry.span(name, **attributes)


def incr(name: str, value: float = 1) -> None:
    """Increment a counter (no-op when disabled)."""
    telemetry = _current
    if telemetry is not None:
        telemetry.incr(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op when disabled)."""
    telemetry = _current
    if telemetry is not None:
        telemetry.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record an observation into a histogram (no-op when disabled)."""
    telemetry = _current
    if telemetry is not None:
        telemetry.observe(name, value)


def event(name: str, **attributes) -> None:
    """Emit a point-in-time event (no-op when disabled)."""
    telemetry = _current
    if telemetry is not None:
        telemetry.event(name, **attributes)
