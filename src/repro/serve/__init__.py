"""``repro serve`` — the compiler as a long-lived HTTP/JSON daemon.

The pieces, bottom-up:

:mod:`repro.serve.schema`
    ``POST /compile`` request parsing: raw truth table, registered
    workload name, or full :class:`RunSpec`-equivalent spec, each with
    architecture / algorithm / budget / seed knobs.
:mod:`repro.serve.cache`
    Content-addressed artifact cache keyed by ``RunSpec.fingerprint()``
    — a lock-guarded in-memory LRU plus an optional ``--artifact-dir``
    disk layer that survives daemon restarts.
:mod:`repro.serve.ratelimit`
    A token bucket backing 429 + ``Retry-After``.
:mod:`repro.serve.service`
    The queue: concurrent requests coalesce into batches executed on
    the warm :class:`WorkerPool`; identical in-flight fingerprints
    share one computation.
:mod:`repro.serve.daemon`
    The HTTP layer, mounted on the hardened
    :mod:`repro.obs.exposition` server so ``/metrics``, ``/healthz``
    and ``/state`` come along for free.

Served artifacts are byte-identical to offline ``repro compile``
output — CLI and daemon share :func:`repro.compile_api.compile_one`'s
code path, and the differential suite in ``tests/serve/`` pins it.
See ``docs/serving.md``.
"""

from .cache import ArtifactCache
from .daemon import ServeDaemon
from .ratelimit import TokenBucket
from .schema import CompileRequest, RequestError, parse_compile_request
from .service import CompileService, ServeConfig, ServiceError

__all__ = [
    "ArtifactCache",
    "CompileRequest",
    "CompileService",
    "RequestError",
    "ServeConfig",
    "ServeDaemon",
    "ServiceError",
    "TokenBucket",
    "parse_compile_request",
]
