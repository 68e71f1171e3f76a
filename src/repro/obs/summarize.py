"""Turn a JSONL trace into a per-phase breakdown.

``summarize(path_or_records)`` aggregates span records by name into
count / total / mean / min / max wall-clock statistics, plus the trace's
total wall-clock (the sum of root-span durations) and the merged
counters.  ``TraceSummary.render()`` prints the breakdown as a
monospace table.

Also usable as a script::

    PYTHONPATH=src python -m repro.obs.summarize trace.jsonl
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Union

from .core import Histogram

__all__ = [
    "PhaseStats",
    "TraceSummary",
    "load_trace",
    "load_trace_tolerant",
    "summarize",
]


@dataclass
class PhaseStats:
    """Aggregated wall-clock statistics for one span name."""

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = 0.0

    def add(self, duration: float) -> None:
        self.count += 1
        self.total += duration
        self.min = min(self.min, duration)
        self.max = max(self.max, duration)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class TraceSummary:
    """Per-phase rollup of one trace file."""

    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: sum of root-span (depth 0) durations — the traced wall-clock
    total_seconds: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)
    manifests: List[Dict[str, Any]] = field(default_factory=list)
    #: merged value-distribution histograms (``obs.observe``)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def phase_timings(self) -> Dict[str, Dict[str, float]]:
        """The rollup in manifest form (span name -> count/total)."""
        return {
            name: {"count": stats.count, "total": stats.total}
            for name, stats in self.phases.items()
        }

    def cache_rates(self) -> Dict[str, Dict[str, float]]:
        """Hit rates derived from paired ``*_hit``/``*_miss`` counters.

        The caching layer emits ``cache.<name>.hit``/``.miss`` per
        cache plus ``<aggregate>_hit``/``_miss`` for a cache that names
        an aggregate (the serve artifact cache's ``serve.cache``).
        """
        rates: Dict[str, Dict[str, float]] = {}
        for name, value in self.counters.items():
            if name.endswith("_hit"):
                stem, sep = name[: -len("_hit")], "_"
            elif name.endswith(".hit"):
                stem, sep = name[: -len(".hit")], "."
            else:
                continue
            misses = float(self.counters.get(f"{stem}{sep}miss", 0))
            hits = float(value)
            total = hits + misses
            if total <= 0:
                continue
            evictions = float(self.counters.get(f"{stem}{sep}eviction", 0))
            rates[stem] = {
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / total,
                "evictions": evictions,
            }
        return rates

    def pool_stats(self) -> Dict[str, float]:
        """The warm-pool counters (``pool.*``).

        Workers started/restarted, jobs, and shared-memory bytes and
        table segments — empty when the trace never used the pool.
        """
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith("pool.")
        }

    def engine_stats(self) -> Dict[str, float]:
        """The checkpointed-engine and fault-injection counters.

        ``engine.jobs`` / ``engine.resumed`` / ``engine.retries`` /
        ``engine.timeouts`` / ``engine.quarantined`` plus
        ``faults.injected`` — empty when the trace never ran the
        engine.
        """
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith("engine.") or name.startswith("faults.")
        }

    def render(self) -> str:
        # Imported lazily: reporting lives in the experiments package,
        # which transitively imports the instrumented core modules.
        from ..experiments import reporting

        if not (self.phases or self.counters or self.events or self.manifests):
            return "trace is empty: no spans, counters, or events recorded"

        ordered = sorted(
            self.phases.values(), key=lambda s: s.total, reverse=True
        )
        rows = [
            [s.name, s.count, s.total, s.mean, s.min, s.max] for s in ordered
        ]
        table = reporting.format_table(
            ["phase", "count", "total(s)", "mean(s)", "min(s)", "max(s)"],
            rows,
            title="Trace summary — per-phase wall clock",
        )
        lines = [table, f"total traced wall-clock: {self.total_seconds:.3f}s"]
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name}: {self.counters[name]:g}")
        engine = self.engine_stats()
        if engine:
            lines.append("engine:")
            for name in sorted(engine):
                lines.append(f"  {name}: {engine[name]:g}")
        pool = self.pool_stats()
        if pool:
            lines.append("pool:")
            for name in sorted(pool):
                lines.append(f"  {name}: {pool[name]:g}")
        rates = self.cache_rates()
        if rates:
            lines.append("cache hit rates:")
            for stem in sorted(rates):
                info = rates[stem]
                line = (
                    f"  {stem}: {info['hit_rate']:.1%} "
                    f"({info['hits']:g} hits / {info['misses']:g} misses"
                )
                if info.get("evictions"):
                    line += f" / {info['evictions']:g} evictions"
                lines.append(line + ")")

        if self.histograms:
            lines.append("distributions:")
            for name in sorted(self.histograms):
                hist = self.histograms[name]
                if not hist.count:
                    continue
                lines.append(
                    f"  {name}: n={hist.count} mean={hist.mean:.4g} "
                    f"p50={hist.quantile(0.5):.4g} "
                    f"p90={hist.quantile(0.9):.4g} "
                    f"p99={hist.quantile(0.99):.4g} "
                    f"[{hist.min:.4g}, {hist.max:.4g}]"
                )
        if self.events:
            lines.append(
                "events: "
                + ", ".join(f"{k}×{v}" for k, v in sorted(self.events.items()))
            )
        return "\n".join(lines)


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read every record from a JSONL trace file (strict)."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def load_trace_tolerant(path: str):
    """Read a JSONL trace, stopping gracefully at the first bad line.

    A trace written by a process that crashed or was killed mid-write
    can end in a truncated line; this reads every parseable record and
    reports where parsing stopped.  Returns ``(records, bad_lineno)``
    where ``bad_lineno`` is the 1-based line number of the first line
    that is not one JSON object (``None`` for a clean file).
    """
    records: List[Dict[str, Any]] = []
    # traces are ASCII JSON; undecodable bytes make a line unparseable
    with open(path, encoding="utf-8", errors="replace") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError):
                return records, lineno
            if not isinstance(record, dict):
                return records, lineno
            records.append(record)
    return records, None


def summarize(source: Union[str, Iterable[Dict[str, Any]]]) -> TraceSummary:
    """Aggregate a trace (file path or record iterable) per span name."""
    records = load_trace(source) if isinstance(source, str) else source
    summary = TraceSummary()
    for record in records:
        kind = record.get("type")
        if kind == "span":
            duration = float(record.get("dur") or 0.0)
            name = record.get("name", "?")
            stats = summary.phases.get(name)
            if stats is None:
                stats = summary.phases[name] = PhaseStats(name)
            stats.add(duration)
            if record.get("depth", 0) == 0:
                summary.total_seconds += duration
        elif kind == "counters":
            for name, value in record.get("values", {}).items():
                summary.counters[name] = summary.counters.get(name, 0) + value
            for name, payload in record.get("histograms", {}).items():
                hist = summary.histograms.get(name)
                if hist is None:
                    hist = summary.histograms[name] = Histogram()
                hist.merge(payload)
        elif kind == "event":
            name = record.get("name", "?")
            summary.events[name] = summary.events.get(name, 0) + 1
        elif kind == "manifest":
            summary.manifests.append(record)
    return summary


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description="Summarise a repro trace file")
    parser.add_argument("trace", help="JSONL trace written by --trace")
    args = parser.parse_args(argv)
    print(summarize(args.trace).render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
