"""Compatibility stub for the removed cross-run kernel fusion.

Kernel calls are batched within a run (one stacked call per BS-SA,
DALTA or ND generation) and never routed across runs, so there is no
hub.  :func:`current_hub` remains because ``perfbench/tracer.py``
imports this module and asks it whether a kernel call was routed
elsewhere; the answer is always no.
"""

from __future__ import annotations

__all__ = ["current_hub"]


def current_hub() -> None:
    """Always ``None``: no kernel call is routed to a fusion hub."""
    return None
