"""The one statistics helper every timing in the benchmark goes through.

A timing is reported as its median plus the highest percentile that
still has at least ``BEYOND`` samples above it, with the sample count.
Samples of different kinds (cache hits and misses) are summarised
separately, never pooled.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Optional

#: samples that must lie beyond a reported tail percentile
BEYOND = 10


@dataclass(frozen=True)
class Summary:
    n: int
    p50: float
    #: value at the tail percentile, or None with fewer than BEYOND + 1 samples
    tail: Optional[float]
    #: which percentile ``tail`` is (e.g. 90.0), or None
    tail_q: Optional[float]
    max: float

    def describe(self) -> str:
        """One line in seconds, e.g. ``p50 0.1200 s, p86 0.2100 s, max ...``."""
        text = f"p50 {self.p50:.4f} s"
        if self.tail is not None:
            text += f", p{self.tail_q:.0f} {self.tail:.4f} s"
        return text + f", max {self.max:.4f} s (n={self.n})"


def tail_index(n: int) -> Optional[int]:
    """Index into the sorted samples of the highest percentile with
    ``BEYOND`` samples above it, or None when there is no such one."""
    index = n - BEYOND - 1
    return index if index >= 0 else None


def summarize(samples: Iterable[float]) -> Summary:
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples to summarise")
    n = len(ordered)
    index = tail_index(n)
    return Summary(
        n=n,
        p50=statistics.median(ordered),
        tail=None if index is None else ordered[index],
        tail_q=None if index is None else 100.0 * (index + 1) / n,
        max=ordered[-1],
    )


def tail_or_max(summary: Summary) -> float:
    """The tail percentile, or the maximum when the run is too short for one."""
    return summary.max if summary.tail is None else summary.tail
