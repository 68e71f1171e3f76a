"""One BLAS thread for the searches and the OptForPart kernel.

The searches get their parallelism from independent runs on the warm
process pool (:mod:`repro.experiments.pool`).  OpenBLAS hands every
matmul above its size threshold (the 16-bit kernel's 30x512x128 ones)
and every dot product over more than 10,000 entries to its own helper
threads, and after each such call a helper spins for about a tenth of a
second of CPU before it sleeps.  Each pool worker would compete with
its siblings for the same cores.

:func:`single_thread` pins the OpenBLAS library numpy loaded to one
thread for the length of a scope and restores the caller's count
afterwards.  :func:`single_threaded` wraps a function in it:
``run_bssa``, ``run_dalta`` and the kernel's ``_grouped_eval``, which
serves every kernel call.  The kernel's results do not depend on the
thread count (``tests/core/test_blas_threads.py``); the searches' cost
and MED dot products depend on it only where their sums are inexact,
under a non-dyadic distribution at 14 or more inputs.  The artifact
metrics (``ErrorReport``) run outside, on the process's default count.

The library is looked up on first use, with ``ctypes`` only: numpy's
bundled copy (``numpy.libs`` on Linux, ``numpy/.dylibs`` on macOS), or
else whatever OpenBLAS numpy's extension module links against.  Without
one, the scope does nothing.  Scopes are counted under a lock, so nested
scopes and threads entering at once share one pin and the last one out
restores the count.  The setting is process-wide: code outside a scope
in another thread runs on one BLAS thread too while any scope is open,
and a process forked inside a scope (every ``WorkerPool`` worker) runs
on one BLAS thread throughout.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Callable, Dict, NamedTuple, Optional, TypeVar

__all__ = ["single_thread", "single_threaded", "thread_count", "describe"]

_F = TypeVar("_F", bound=Callable[..., Any])

#: (prefix, suffix) of the OpenBLAS symbol names, most specific first:
#: scipy-openblas wheels (numpy >= 2), 64-bit-integer builds, plain
_SYMBOLS = (
    ("scipy_openblas_", "64_"),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


class _Library(NamedTuple):
    path: str
    get: Callable[[], int]
    set: Callable[[int], None]
    config: Optional[Callable[[], bytes]]


_UNSET: Any = object()
_lock = threading.Lock()
_library: Optional[_Library] = _UNSET
#: open scopes, and the thread count the first one found
_depth = 0
_saved = 1


def _candidates():
    import glob

    import numpy

    root = os.path.dirname(numpy.__file__)
    for pattern in (
        os.path.join(root, os.pardir, "numpy.libs", "*openblas*"),
        os.path.join(root, ".dylibs", "*openblas*"),
    ):
        yield from sorted(glob.glob(pattern))
    # dlsym on an extension module's handle also searches the libraries
    # it links against, which finds an OpenBLAS numpy did not bundle
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    yield _multiarray_umath.__file__


def _find() -> Optional[_Library]:
    """The OpenBLAS library numpy loaded, or ``None``."""
    import ctypes

    for path in _candidates():
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SYMBOLS:
            get = getattr(handle, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}set_num_threads{suffix}", None)
            if get is None or put is None:
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            config = getattr(handle, f"{prefix}get_config{suffix}", None)
            if config is not None:
                config.restype, config.argtypes = ctypes.c_char_p, []
            return _Library(path, get, put, config)
    return None


def _load() -> Optional[_Library]:
    global _library
    if _library is _UNSET:
        with _lock:
            if _library is _UNSET:
                _library = _find()
    return _library


class _SingleThread:
    """The scope :func:`single_thread` returns (a plain class: a
    generator-based context manager costs more than the pin itself)."""

    __slots__ = ()

    def __enter__(self) -> None:
        global _depth, _saved
        library = _load()
        if library is None:
            return
        with _lock:
            if _depth == 0:
                _saved = library.get()
                if _saved != 1:
                    library.set(1)
            _depth += 1

    def __exit__(self, *exc_info) -> None:
        global _depth
        if _library is None:
            return
        with _lock:
            _depth -= 1
            if _depth == 0 and _saved != 1:
                _library.set(_saved)


_SCOPE = _SingleThread()


def single_thread() -> _SingleThread:
    """A scope that runs the enclosed code with OpenBLAS on one thread."""
    return _SCOPE


def single_threaded(function: _F) -> _F:
    """Decorate ``function`` to run inside :func:`single_thread`."""

    @functools.wraps(function)
    def pinned(*args, **kwargs):
        with single_thread():
            return function(*args, **kwargs)

    return pinned  # type: ignore[return-value]


def _after_fork() -> None:
    """A forked child has none of the parent's other threads, so no scope
    is open in it: drop their count.  A child forked inside a scope keeps
    one BLAS thread as its default.  It inherits none of OpenBLAS's helper
    threads, and raising the count would start one that spins for about
    a tenth of a second of CPU; the pool forks its workers inside a scope
    for that reason."""
    global _lock, _depth
    _lock = threading.Lock()
    _depth = 0


os.register_at_fork(after_in_child=_after_fork)


def thread_count() -> Optional[int]:
    """OpenBLAS's current thread count, or ``None`` without a library."""
    library = _load()
    return None if library is None else library.get()


def describe() -> Dict[str, Any]:
    """The BLAS conditions kernel timings are taken under.

    ``library`` is the file the functions were found in, ``version``
    the version its configuration string reports, ``default_threads``
    the process's count outside any scope and ``kernel_threads`` 1, or
    ``"uncontrolled"`` when no library was found.
    """
    library = _load()
    if library is None:
        return {
            "library": None,
            "version": None,
            "default_threads": None,
            "kernel_threads": "uncontrolled",
        }
    with _lock:
        default = _saved if _depth else library.get()
    # e.g. b"OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH ..."
    words = (library.config() or b"").split() if library.config else []
    return {
        "library": os.path.basename(library.path),
        "version": words[1].decode() if len(words) > 1 else None,
        "default_threads": default,
        "kernel_threads": 1,
    }
