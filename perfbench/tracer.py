"""Per-layer timers wrapped around the program's public entry points.

Nothing under ``src/`` is changed: :meth:`Tracer.install` replaces the
entry points in the modules that define them *and* in the modules that
bound them at import (``bs_sa.opt_for_part_many``,
``nondisjoint.opt_for_part_grouped``, ``daemon.parse_compile_request``
and so on), and :meth:`Tracer.uninstall` puts the originals back.

Each layer keeps, per process, the number of outermost calls, the items
they carried, the summed duration of those calls and the *union* time
during which at least one call was running.  A call made while the same
layer is already running on the same thread is covered by the outer
call and not counted again.  A layer's self time is its union time
minus that of the wrapped layers nested under it (every kernel call
runs inside a search call; every artifact build in the daemon runs
inside a batch execution).

Kernel calls a fusion party routes to its hub are waiting, not work:
they pass through untimed, and the grouped pass that executes them is
timed where it runs.  Worker processes forked by the campaign engine or
the serve pool inherit the wrappers; at the end of every search call
they write their cumulative numbers to ``flush_dir/<pid>.json`` and
:meth:`Tracer.collect` adds those files to the parent's own numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

KERNEL = "kernel"
SEARCH = "search"
TARGET = "compile.target"
ARTIFACT = "compile.artifact"
PARSE = "serve.parse"
CACHE_GET = "serve.cache_get"
EXEC = "serve.exec"

#: layer -> wrapped layers that always run nested inside it
NESTED = {SEARCH: (KERNEL,), EXEC: (ARTIFACT,)}


class LayerClock:
    """Call count, items, summed duration and union time of one layer."""

    __slots__ = ("calls", "items", "sum_s", "union_s", "passes", "_active", "_since")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0
        self.sum_s = 0.0
        self.union_s = 0.0
        self.passes = 0
        self._active = 0
        self._since = 0.0

    def enter(self, now: float) -> bool:
        """Start one call; True when the layer was idle until now."""
        self._active += 1
        if self._active == 1:
            self._since = now
            return True
        return False

    def exit(self, started: float, now: float, items: int) -> bool:
        """Finish one call; True when the layer is idle again."""
        self.calls += 1
        self.items += items
        self.sum_s += now - started
        self._active -= 1
        if self._active == 0:
            self.union_s += now - self._since
            return True
        return False

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "items": self.items,
            "sum_s": self.sum_s,
            "union_s": self.union_s,
            "passes": self.passes,
        }


def self_time(layers: Dict[str, Dict[str, float]], layer: str) -> float:
    """Union time of ``layer`` minus that of the layers nested in it."""
    own = layers.get(layer, {}).get("union_s", 0.0)
    nested = sum(layers.get(n, {}).get("union_s", 0.0) for n in NESTED.get(layer, ()))
    return own - nested


def _one(args, kwargs) -> int:
    return 1


def _many(args, kwargs) -> int:
    partitions = args[2] if len(args) > 2 else kwargs["partitions"]
    return len(partitions)


def _grouped(args, kwargs) -> int:
    requests = args[0] if args else kwargs["requests"]
    return sum(len(request.partitions) for request in requests)


def _batch(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["batch"])


class Tracer:
    """Layer clocks for one process tree; see the module docstring."""

    def __init__(
        self,
        flush_dir: Optional[str] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.flush_dir = flush_dir
        self.clock = clock
        self.owner = os.getpid()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._fork_hooked = False
        self._reset()

    # -- per-process state ---------------------------------------------
    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.layers: Dict[str, LayerClock] = {}
        self.counters: Dict[str, float] = {}
        self._memo_at_start: Tuple[int, int] = (0, 0)

    def _layer(self, name: str) -> LayerClock:
        clock = self.layers.get(name)
        if clock is None:
            clock = self.layers[name] = LayerClock()
        return clock

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "layers": {n: c.as_dict() for n, c in self.layers.items()},
                "counters": dict(self.counters),
            }

    # -- wrapping ------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        items: Callable = _one,
        timed: Optional[Callable[[], bool]] = None,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """``fn`` timed as ``layer``; calls where ``timed()`` is false,
        and calls nested in the same layer on one thread, pass through."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = getattr(tracer._local, "depth", None)
            if depth is None:
                depth = tracer._local.depth = {}
            if depth.get(layer) or (timed is not None and not timed()):
                with tracer._lock:
                    tracer._layer(layer).passes += 1
                return fn(*args, **kwargs)
            depth[layer] = 1
            started = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[layer] = 0
                tracer._exit(layer, started, items(args, kwargs))
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _enter(self, layer: str) -> float:
        now = self.clock()
        with self._lock:
            idle = self._layer(layer).enter(now)
            if idle and layer == SEARCH:
                self._memo_at_start = _memo_counts()
        return now

    def _exit(self, layer: str, started: float, items: int) -> None:
        now = self.clock()
        with self._lock:
            idle = self._layer(layer).exit(started, now, items)
            if idle and layer == SEARCH:
                hits, misses = _memo_counts()
                self.counters["kernel.memo_hits"] = (
                    self.counters.get("kernel.memo_hits", 0)
                    + hits - self._memo_at_start[0]
                )
                self.counters["kernel.memo_misses"] = (
                    self.counters.get("kernel.memo_misses", 0)
                    + misses - self._memo_at_start[1]
                )
        if idle and layer == SEARCH and os.getpid() != self.owner:
            self._flush()

    def _flush(self) -> None:
        if self.flush_dir is None:
            return
        started = time.perf_counter()
        document = self.snapshot()
        path = os.path.join(self.flush_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(document, handle)
        os.replace(path + ".tmp", path)
        self.count("trace.flush_s", time.perf_counter() - started)

    # -- installation --------------------------------------------------
    def _patch(self, owner: Any, name: str, replacement: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer's entry points (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # by module path: ``repro.core.opt_for_part`` the attribute is the
        # function the package re-exports, not the module
        (
            compile_api, bs_sa, dalta, fusion, nondisjoint, opt_for_part,
            parallel, daemon, service, cache,
        ) = (
            importlib.import_module(f"repro.{name}")
            for name in (
                "compile_api", "core.bs_sa", "core.dalta", "core.fusion",
                "core.nondisjoint", "core.opt_for_part", "experiments.parallel",
                "serve.daemon", "serve.service", "serve.cache",
            )
        )
        ArtifactCache = cache.ArtifactCache

        if not self._fork_hooked:
            os.register_at_fork(after_in_child=self._reset)
            self._fork_hooked = True
        self.owner = os.getpid()

        def unrouted() -> bool:
            return fusion.current_hub() is None

        kernels = {
            "opt_for_part": _one,
            "opt_for_part_bto": _one,
            "opt_for_part_many": _many,
            "opt_for_part_grouped": _grouped,
        }
        for name, items in kernels.items():
            wrapped = self.wrap(
                KERNEL, getattr(opt_for_part, name), items=items, timed=unrouted
            )
            for module in (opt_for_part, bs_sa, dalta, nondisjoint):
                if name in module.__dict__:
                    self._patch(module, name, wrapped)
        for name in ("run_bssa", "run_dalta"):
            self._patch(parallel, name, self.wrap(SEARCH, getattr(parallel, name)))
        self._patch(compile_api, "build_target", self.wrap(TARGET, compile_api.build_target))
        self._patch(
            compile_api,
            "artifact_from_result",
            self.wrap(ARTIFACT, compile_api.artifact_from_result),
        )
        self._patch(
            daemon,
            "parse_compile_request",
            self.wrap(PARSE, daemon.parse_compile_request),
        )

        def cache_outcome(found) -> None:
            self.count("serve.cache_hits" if found is not None else "serve.cache_misses")

        self._patch(
            ArtifactCache,
            "get",
            self.wrap(CACHE_GET, ArtifactCache.get, on_result=cache_outcome),
        )
        self._patch(
            service.CompileService,
            "_run_pool_batch",
            self.wrap(EXEC, service.CompileService._run_pool_batch, items=_batch),
        )
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- results -------------------------------------------------------
    def collect(self) -> Dict[str, Any]:
        """This process's numbers plus every flushed worker's."""
        merged = self.snapshot()
        if self.flush_dir is None or not os.path.isdir(self.flush_dir):
            return merged
        for entry in sorted(os.listdir(self.flush_dir)):
            if not entry.endswith(".json"):
                continue
            with open(os.path.join(self.flush_dir, entry)) as handle:
                other = json.load(handle)
            for name, fields in other["layers"].items():
                into = merged["layers"].setdefault(name, dict.fromkeys(fields, 0))
                for field, value in fields.items():
                    into[field] = into.get(field, 0) + value
            for name, value in other["counters"].items():
                merged["counters"][name] = merged["counters"].get(name, 0) + value
        return merged


def _memo_counts() -> Tuple[int, int]:
    kernel = importlib.import_module("repro.core.opt_for_part")
    stats = kernel.result_memo().stats()
    return int(stats["hits"]), int(stats["misses"])


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one timed kernel-style wrapper call adds (measured here)."""
    from repro.core import fusion

    probe = Tracer()

    def noop(*args, **kwargs):
        return None

    wrapped = probe.wrap(KERNEL, noop, timed=lambda: fusion.current_hub() is None)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, (time.perf_counter() - started - bare) / calls)
    return max(best, 0.0)
