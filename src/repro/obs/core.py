"""Telemetry primitives: spans, counters, and the session object.

The module keeps one process-wide :class:`Telemetry` instance (or
``None`` when telemetry is off).  Everything here is stdlib-only and
written so the *disabled* path costs a single attribute load and
``None`` check — instrumented hot loops pay well under the 2% budget
documented in ``docs/observability.md``.

Records are plain dicts with a ``type`` discriminator:

``span``
    Emitted when a span closes: name, nesting depth, span/parent ids,
    wall-clock start (``ts``), duration in seconds (``dur``), and the
    structured attributes passed to :meth:`Telemetry.span`.
``event``
    A point-in-time occurrence (e.g. ``run.completed``).
``counters``
    A snapshot of the accumulated counters/gauges/histograms, emitted
    on flush.
``manifest``
    A run manifest (see :mod:`repro.obs.manifest`).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Any, Dict, List, Optional, Union

__all__ = ["Span", "NOOP_SPAN", "Histogram", "Telemetry"]


class Histogram:
    """Fixed log-bucket histogram: mergeable, with bounded-error quantiles.

    Observations land in geometrically spaced magnitude buckets (growth
    factor :data:`BASE` per bucket) mirrored around a zero bucket, so
    signed values are covered: bucket ``+i`` holds positive values with
    magnitude in ``(REF * BASE**(i-1), REF * BASE**i]``, bucket ``-i``
    the same magnitudes negated, and bucket ``0`` everything with
    magnitude at most :data:`REF`.  The layout is *fixed* — no
    rescaling — so merging two histograms is plain integer bucket-count
    addition: associative and commutative by construction, which is
    what lets worker deltas stream into a live campaign view in any
    arrival order.

    :meth:`quantile` is nearest-rank over the buckets: it returns the
    value-side bound of the bucket holding the ranked sample, clamped
    to the observed ``[min, max]``, and is therefore within one bucket
    (a relative factor of ``BASE``, ~19%) of the true empirical
    quantile.
    """

    #: geometric growth per bucket (~19% relative resolution)
    BASE = 2 ** 0.25
    #: magnitude of the zero bucket's edge; ``|v| <= REF`` lands in bucket 0
    REF = 1e-9
    #: largest bucket index; covers magnitudes up to ``REF * BASE**MAX_INDEX``
    MAX_INDEX = 320

    __slots__ = ("buckets", "count", "total", "min", "max")

    _LOG_BASE = math.log(BASE)

    def __init__(self) -> None:
        #: signed bucket index -> observation count (sparse)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    @classmethod
    def _index(cls, value: float) -> int:
        """Signed bucket index for ``value`` (0 for tiny magnitudes)."""
        magnitude = abs(value)
        if magnitude <= cls.REF:
            return 0
        idx = math.ceil(math.log(magnitude / cls.REF) / cls._LOG_BASE)
        idx = min(max(idx, 1), cls.MAX_INDEX)
        return idx if value > 0 else -idx

    @classmethod
    def bucket_upper_bound(cls, index: int) -> float:
        """Largest value that maps into bucket ``index``.

        For negative buckets this is the bound *closest to zero* (the
        smallest magnitude in the bucket), keeping the within-one-bucket
        quantile guarantee symmetric around zero.
        """
        if index == 0:
            return cls.REF
        if index > 0:
            return cls.REF * cls.BASE ** index
        return -(cls.REF * cls.BASE ** (-index - 1))

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        idx = self._index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: Union["Histogram", Dict[str, Any]]) -> None:
        """Fold another histogram (or its ``to_dict`` payload) into this one."""
        if not isinstance(other, Histogram):
            other = Histogram.from_dict(other)
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (NaN when empty)."""
        if self.count == 0:
            return math.nan
        q = min(max(float(q), 0.0), 1.0)
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= rank:
                bound = self.bucket_upper_bound(idx) if idx != 0 else 0.0
                return min(max(bound, self.min), self.max)
        return self.max  # pragma: no cover - cumulative always reaches count

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe payload (bucket keys become strings)."""
        return {
            "buckets": {str(idx): n for idx, n in self.buckets.items()},
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Histogram":
        hist = cls()
        hist.buckets = {
            int(idx): int(n) for idx, n in payload.get("buckets", {}).items()
        }
        hist.count = int(payload.get("count", 0))
        hist.total = float(payload.get("total", 0.0))
        low, high = payload.get("min"), payload.get("max")
        hist.min = math.inf if low is None else float(low)
        hist.max = -math.inf if high is None else float(high)
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.count:
            return "Histogram(empty)"
        return (
            f"Histogram(count={self.count}, min={self.min:.4g}, "
            f"p50={self.quantile(0.5):.4g}, max={self.max:.4g})"
        )


class _NoopSpan:
    """Shared do-nothing span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set(self, **attributes) -> None:
        pass


#: the singleton handed out by ``obs.span`` when telemetry is off
NOOP_SPAN = _NoopSpan()


class Span:
    """One timed, attributed region of the program.

    Use as a context manager; the record is emitted to the sinks when
    the span closes.  Nesting is tracked by the owning
    :class:`Telemetry` via a span stack, so ``depth`` and ``parent``
    come for free.
    """

    __slots__ = (
        "telemetry",
        "name",
        "attributes",
        "span_id",
        "parent_id",
        "depth",
        "ts",
        "_start",
        "duration",
    )

    def __init__(self, telemetry: "Telemetry", name: str, attributes: Dict[str, Any]):
        self.telemetry = telemetry
        self.name = name
        self.attributes = attributes
        self.span_id: Optional[int] = None
        self.parent_id: Optional[int] = None
        self.depth = 0
        self.ts = 0.0
        self._start = 0.0
        self.duration: Optional[float] = None

    def set(self, **attributes) -> None:
        """Attach extra attributes mid-span."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        self.telemetry._open(self)
        self.ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.duration = time.perf_counter() - self._start
        self.telemetry._close(self, error=exc_type is not None)
        return False


class Telemetry:
    """A telemetry session: a span stack, counters, and output sinks.

    The session is process-global, and the serve daemon's HTTP handler
    threads and dispatcher thread mutate it concurrently — a re-entrant
    lock guards every mutation (span bookkeeping, counters, histograms,
    sink emission) so increments are never lost and sink lines never
    interleave.  The uncontended acquire is ~0.1µs, far inside the
    documented overhead budget.
    """

    def __init__(self, sinks=()) -> None:
        self.sinks = list(sinks)
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._stack: List[Span] = []
        self._next_id = 1
        self._lock = threading.RLock()

    # -- spans ---------------------------------------------------------
    def span(self, name: str, **attributes) -> Span:
        return Span(self, name, attributes)

    def _open(self, span: Span) -> None:
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            span.parent_id = self._stack[-1].span_id if self._stack else None
            span.depth = len(self._stack)
            self._stack.append(span)

    def _close(self, span: Span, error: bool = False) -> None:
        with self._lock:
            # Tolerate mispaired exits instead of corrupting the stack.
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            elif span in self._stack:
                while self._stack and self._stack.pop() is not span:
                    pass
            record = {
                "type": "span",
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "depth": span.depth,
                "ts": span.ts,
                "dur": span.duration,
            }
            if span.attributes:
                record["attrs"] = span.attributes
            if error:
                record["error"] = True
            self.emit(record)

    # -- counters / gauges --------------------------------------------
    def incr(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one observation into the named histogram."""
        with self._lock:
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.observe(value)

    def merge_counters(self, counters: Dict[str, float]) -> None:
        """Fold counters from another session (e.g. a worker process)."""
        with self._lock:
            for name, value in counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    def merge_gauges(
        self, gauges: Dict[str, float], worker: Optional[Any] = None
    ) -> None:
        """Fold gauges from another session, last writer wins.

        Unlike counters, gauges are point-in-time values that cannot be
        summed; when ``worker`` is given each gauge is stored under a
        worker-labelled key (``name#worker=N``) so concurrent workers
        never clobber each other's readings.  Exposition parses the
        suffix back into a Prometheus label.
        """
        with self._lock:
            for name, value in gauges.items():
                if worker is None or "#" in name:  # already labelled upstream
                    key = name
                else:
                    key = f"{name}#worker={worker}"
                self.gauges[key] = value

    def merge_histograms(self, histograms: Dict[str, Any]) -> None:
        """Fold histogram payloads (``Histogram`` or dict) from elsewhere."""
        with self._lock:
            for name, payload in histograms.items():
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram()
                hist.merge(payload)

    # -- events / records ---------------------------------------------
    def event(self, name: str, **attributes) -> None:
        record: Dict[str, Any] = {"type": "event", "name": name, "ts": time.time()}
        if attributes:
            record["attrs"] = attributes
        self.emit(record)

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.record(record)

    def absorb(self, records, **extra_attrs) -> None:
        """Replay records captured in another process into this session.

        Counter snapshots are folded into this session's counters;
        span/event records are re-emitted verbatim (plus
        ``extra_attrs``, e.g. a worker index) so one trace file holds
        the whole multi-process run.
        """
        for record in records:
            if record.get("type") == "counters":
                self.merge_counters(record.get("values", {}))
                gauges = record.get("gauges")
                if gauges:
                    self.merge_gauges(gauges, worker=extra_attrs.get("worker"))
                histograms = record.get("histograms")
                if histograms:
                    self.merge_histograms(histograms)
                continue
            if extra_attrs:
                record = dict(record)
                attrs = dict(record.get("attrs", {}))
                attrs.update(extra_attrs)
                record["attrs"] = attrs
            self.emit(record)

    # -- lifecycle -----------------------------------------------------
    def counters_record(self) -> Dict[str, Any]:
        with self._lock:
            record: Dict[str, Any] = {
                "type": "counters", "values": dict(self.counters)
            }
            if self.gauges:
                record["gauges"] = dict(self.gauges)
            if self.histograms:
                record["histograms"] = {
                    name: hist.to_dict() for name, hist in self.histograms.items()
                }
            return record

    def flush(self) -> None:
        """Emit the counter snapshot and flush every sink."""
        if self.counters or self.gauges or self.histograms:
            self.emit(self.counters_record())
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        self.flush()
        for sink in self.sinks:
            sink.close()
