"""The fast-path switch for the OptForPart kernel, and a small LRU map.

:class:`LruCache` is the bounded map behind the serve daemon's
in-memory artifact cache (:mod:`repro.serve.cache`) and the
always-empty ``opt.memo`` stub of :mod:`repro.core.opt_for_part`.  The
kernels keep no cache of their own: a partition's 2D table is one
strided copy through :meth:`repro.boolean.Partition.table_axes`, so
there is no per-partition state to warm, clear or retain between runs.

``fast_paths_enabled()`` selects the OptForPart kernel, and nothing
else: on, production's exact sweep runs wherever its gate admits; off,
the paper-literal reference alternation runs everything.  The searches
run the same batched generations either way.  Disable globally with
``REPRO_FAST_PATHS=0`` in the environment, or locally with the
:func:`fast_paths` context manager — the reference kernel is kept
intact precisely so the differential test suites (and
``perfbench/make_expected.py``) can compare both.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, Optional

from . import obs

__all__ = [
    "LruCache",
    "fast_paths_enabled",
    "set_fast_paths",
    "fast_paths",
]


def _env_default() -> bool:
    return os.environ.get("REPRO_FAST_PATHS", "1").lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


_fast_paths: bool = _env_default()


def fast_paths_enabled() -> bool:
    """True when production's kernel runs; False selects the reference."""
    return _fast_paths


def set_fast_paths(enabled: bool) -> bool:
    """Set the fast-path switch; returns the previous value."""
    global _fast_paths
    previous = _fast_paths
    _fast_paths = bool(enabled)
    return previous


@contextmanager
def fast_paths(enabled: bool):
    """Scoped override of the fast-path switch (used by the tests)."""
    previous = set_fast_paths(enabled)
    try:
        yield
    finally:
        set_fast_paths(previous)


class LruCache:
    """A small least-recently-used map with hit/miss accounting.

    Mutations take a private re-entrant lock: the algorithms are
    single-threaded per process, but the serve daemon's HTTP handler
    threads and its dispatcher thread probe the same artifact cache
    concurrently, so the OrderedDict operations must not interleave.
    Uncontended, the lock costs ~0.1µs per probe.  When a telemetry session is active, every
    lookup increments ``cache.<name>.hit`` / ``cache.<name>.miss`` —
    plus the aggregate ``<aggregate>_hit`` / ``<aggregate>_miss``
    counters when an aggregate prefix is given (the serve artifact
    cache uses ``serve.cache``) — and every eviction increments
    ``cache.<name>.eviction``.
    """

    def __init__(
        self,
        name: str,
        maxsize: int,
        aggregate: Optional[str] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self.aggregate = aggregate
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value or ``None`` (values are never None)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                if obs.enabled():
                    obs.incr(f"cache.{self.name}.miss")
                    if self.aggregate:
                        obs.incr(f"{self.aggregate}_miss")
                return None
            self._data.move_to_end(key)
            self.hits += 1
            if obs.enabled():
                obs.incr(f"cache.{self.name}.hit")
                if self.aggregate:
                    obs.incr(f"{self.aggregate}_hit")
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if value is None:
            raise ValueError("LruCache cannot store None")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1
                if obs.enabled():
                    obs.incr(f"cache.{self.name}.eviction")

    def stats(self) -> Dict[str, float]:
        total = self.hits + self.misses
        return {
            "size": len(self._data),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }

