"""Content-addressed compiled-artifact cache for the serve daemon.

Two layers, both keyed by ``RunSpec.fingerprint()`` (the sha256 content
digest over the truth table + full algorithm descriptor — see
:meth:`RunSpec.fingerprint`):

* an in-memory :class:`repro.caching.LruCache` (``serve.artifacts``,
  aggregate counters ``serve.cache_hit`` / ``serve.cache_miss``),
  guarded by a lock because HTTP handler threads and the dispatcher
  all read it — the LRU itself is single-threaded by design;
* an optional disk layer (``--artifact-dir``): one
  ``<fingerprint>.json`` per artifact, written atomically, read back
  on a memory miss and promoted into the LRU.  This is what lets a
  restarted daemon keep serving cache hits.  A file that does not hold
  its key's artifact — unreadable, not UTF-8, not JSON, nested past
  the parser's recursion limit, or another fingerprint — is a miss,
  and the recomputed artifact replaces it.

The memory cache is created with ``register=False`` so the per-run
``caching.clear_caches()`` performed by the inline backend's
:meth:`RunSpec.execute` cannot wipe it between requests.

Artifacts are deterministic JSON documents (see
:mod:`repro.compile_api`), so a disk entry loaded by a later daemon is
byte-identical to the response the first daemon served.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, Optional, Tuple

from .. import obs
from ..caching import LruCache
from ..experiments.store import atomic_write_json

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Thread-safe memory LRU + optional disk layer for artifacts."""

    def __init__(
        self, capacity: int = 256, artifact_dir: Optional[str] = None
    ) -> None:
        self._lock = threading.Lock()
        self._memory = LruCache(
            "serve.artifacts",
            capacity,
            aggregate="serve.cache",
            register=False,
        )
        self.artifact_dir = artifact_dir
        self.disk_hits = 0
        self.disk_writes = 0
        if artifact_dir is not None:
            os.makedirs(artifact_dir, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.artifact_dir, f"{key}.json")

    def _read_disk(self, key: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self._path(key)) as handle:
                payload = json.load(handle)
        except (OSError, ValueError, RecursionError):
            # ValueError covers both bad JSON and bytes that are not
            # UTF-8 (UnicodeDecodeError)
            return None
        # A renamed/corrupted file must never serve the wrong artifact.
        if (
            not isinstance(payload, dict)
            or payload.get("fingerprint") != key
        ):
            return None
        return payload

    def get(self, key: str) -> Optional[Tuple[Dict[str, Any], str]]:
        """Look ``key`` up; returns ``(payload, "memory"|"disk")``."""
        with self._lock:
            payload = self._memory.get(key)
            if payload is not None:
                return payload, "memory"
            if self.artifact_dir is None:
                return None
            payload = self._read_disk(key)
            if payload is None:
                return None
            self._memory.put(key, payload)
            self.disk_hits += 1
        if obs.enabled():
            obs.incr("serve.artifact_disk_hit")
        return payload, "disk"

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        wrote = False
        with self._lock:
            self._memory.put(key, payload)
            # (re)write unless the file already holds this artifact: a
            # corrupt or foreign file must not outlive the recompute
            if self.artifact_dir is not None and self._read_disk(key) is None:
                atomic_write_json(self._path(key), payload)
                self.disk_writes += 1
                wrote = True
        if wrote and obs.enabled():
            obs.incr("serve.artifact_disk_write")

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            stats = self._memory.stats()
        stats.update(
            disk_hits=self.disk_hits,
            disk_writes=self.disk_writes,
            artifact_dir=self.artifact_dir,
        )
        return stats
