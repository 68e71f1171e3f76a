"""Perf-regression ratchet: fresh snapshots vs the committed baselines.

Runs the same seeded protocols as ``snapshot_table2`` /
``snapshot_packed`` / ``snapshot_serve`` (or takes pre-generated
snapshots via ``--fresh-*``) and compares them against the committed
``BENCH_table2.json`` / ``BENCH_packed.json`` / ``BENCH_serve.json``:

* **MED drift** — every fresh per-benchmark MED row must be
  byte-identical to the committed row.  The per-benchmark seeding is
  independent of suite composition, so a ``--benchmarks cos`` subset
  run is still comparable row-for-row.  Any drift fails.
* **Speed ratios** — machine-independent ratios must not regress by
  more than ``--tolerance`` (default 25%): the fast-vs-reference
  ratio from the table2 snapshot and the exact sweep's OptForPart-phase
  speedup over the reference from the packed one.
* **Phase timings** — per-phase call *counts* must match exactly when
  the fresh run covers the committed suite (the protocol is
  deterministic), and no phase's per-call mean may drift more than
  ``--tolerance`` past the machine factor (the median per-phase mean
  ratio, which absorbs the committed-host vs current-host speed gap).

Absolute wall-clock is never compared across machines — only ratios
and counts — so the ratchet is meaningful on any host.  Usage::

    PYTHONPATH=src:. python -m benchmarks.check_regression \
        --benchmarks cos --repeats 1

CI runs exactly that subset inside the bench-smoke job; a full-suite
run (no ``--benchmarks``) also ratchets the phase-count determinism.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent

#: phases below this committed call count are too noisy to ratchet
MIN_PHASE_COUNT = 20


class Ratchet:
    """Collects named pass/fail checks and renders a report."""

    def __init__(self) -> None:
        self.checks: List[Tuple[str, bool, str]] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def note(self, name: str, detail: str) -> None:
        self.checks.append((name, True, f"(skipped) {detail}"))

    @property
    def failed(self) -> List[Tuple[str, bool, str]]:
        return [entry for entry in self.checks if not entry[1]]

    def render(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            status = "ok  " if ok else "FAIL"
            lines.append(f"  [{status}] {name}: {detail}")
        verdict = (
            f"{len(self.failed)} of {len(self.checks)} checks failed"
            if self.failed
            else f"all {len(self.checks)} checks passed"
        )
        return "\n".join(lines + [verdict])


def _load(path: Path) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def _med_rows(snapshot: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {row["benchmark"]: row for row in snapshot.get("meds", [])}


def _check_meds(
    ratchet: Ratchet,
    tag: str,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
) -> None:
    committed_rows = _med_rows(committed)
    for benchmark, row in sorted(_med_rows(fresh).items()):
        baseline = committed_rows.get(benchmark)
        if baseline is None:
            ratchet.note(
                f"{tag}: med[{benchmark}]",
                "benchmark absent from the committed snapshot",
            )
            continue
        ratchet.check(
            f"{tag}: med[{benchmark}]",
            row == baseline,
            "byte-identical"
            if row == baseline
            else f"MED drift: committed {baseline} != fresh {row}",
        )


def _check_ratio(
    ratchet: Ratchet,
    name: str,
    committed: Optional[float],
    fresh: Optional[float],
    tolerance: float,
) -> None:
    if committed is None or fresh is None:
        ratchet.note(name, "ratio missing from a snapshot")
        return
    floor = committed * (1.0 - tolerance)
    ratchet.check(
        name,
        fresh >= floor,
        f"fresh {fresh:.3f} vs committed {committed:.3f} "
        f"(floor {floor:.3f})",
    )


def _check_phase_timings(
    ratchet: Ratchet,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> None:
    committed_phases = committed.get("phase_timings")
    fresh_phases = fresh.get("phase_timings")
    if not committed_phases or not fresh_phases:
        ratchet.note(
            "table2: phase timings",
            "not recorded in both snapshots — regenerate the baseline",
        )
        return

    same_suite = committed.get("benchmarks") == fresh.get("benchmarks")
    if same_suite:
        # Counts are a pure determinism check: the protocol is seeded,
        # so the number of calls per phase must match bit-for-bit.
        drifted = {
            name: (stats["count"], fresh_phases.get(name, {}).get("count"))
            for name, stats in sorted(committed_phases.items())
            if fresh_phases.get(name, {}).get("count") != stats["count"]
        }
        ratchet.check(
            "table2: phase call counts",
            not drifted,
            "deterministic"
            if not drifted
            else f"committed vs fresh counts drifted: {drifted}",
        )
    else:
        ratchet.note(
            "table2: phase call counts",
            "benchmark subsets differ; counts are suite-dependent",
        )

    # Per-call means are machine-dependent; normalise by the median
    # ratio so only *relative* slowdowns (one phase regressing against
    # the rest) trip the ratchet.
    means: Dict[str, Tuple[float, float]] = {}
    for name, stats in committed_phases.items():
        other = fresh_phases.get(name)
        if not other or not other.get("count"):
            continue
        if stats["count"] < MIN_PHASE_COUNT or not stats["total"]:
            continue
        means[name] = (
            stats["total"] / stats["count"],
            other["total"] / other["count"],
        )
    if not means:
        ratchet.note(
            "table2: phase mean drift", "no phase passed the noise floor"
        )
        return
    factor = statistics.median(
        fresh_mean / committed_mean
        for committed_mean, fresh_mean in means.values()
    )
    for name, (committed_mean, fresh_mean) in sorted(means.items()):
        ceiling = committed_mean * factor * (1.0 + tolerance)
        ratchet.check(
            f"table2: phase mean [{name}]",
            fresh_mean <= ceiling,
            f"fresh {fresh_mean * 1e3:.3f}ms vs committed "
            f"{committed_mean * 1e3:.3f}ms x machine factor {factor:.2f} "
            f"(ceiling {ceiling * 1e3:.3f}ms)",
        )


def check_table2(
    ratchet: Ratchet,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> None:
    _check_meds(ratchet, "table2", committed, fresh)

    def ratio(snapshot: Dict[str, Any]) -> Optional[float]:
        fast = snapshot.get("fast", {}).get("min")
        reference = snapshot.get("reference", {}).get("min")
        if not fast or not reference:
            return None
        return reference / fast

    _check_ratio(
        ratchet,
        "table2: reference/fast speed ratio",
        ratio(committed),
        ratio(fresh),
        tolerance,
    )
    _check_phase_timings(ratchet, committed, fresh, tolerance)


def check_packed(
    ratchet: Ratchet,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> None:
    _check_meds(ratchet, "packed", committed, fresh)
    ratchet.check(
        "packed: cross-mode byte identity",
        bool(fresh.get("byte_identical")),
        "packed/reference MEDs all match"
        if fresh.get("byte_identical")
        else "fresh snapshot did not assert byte identity",
    )
    engaged = fresh.get("engagement", {}).get("packed_calls")
    ratchet.check(
        "packed: exactness-gate engagement",
        bool(engaged),
        f"{engaged} kernel calls ran the exact sweep"
        if engaged
        else "the gate never engaged — the snapshot measured nothing",
    )
    _check_ratio(
        ratchet,
        "packed: speedup [opt_phase_vs_reference]",
        committed.get("speedup", {}).get("opt_phase_vs_reference"),
        fresh.get("speedup", {}).get("opt_phase_vs_reference"),
        tolerance,
    )


def check_serve(
    ratchet: Ratchet,
    committed: Dict[str, Any],
    fresh: Dict[str, Any],
    tolerance: float,
) -> None:
    _check_meds(ratchet, "serve", committed, fresh)
    ratchet.check(
        "serve: served-vs-offline byte identity",
        bool(fresh.get("byte_identical")),
        "every served artifact matched its offline twin"
        if fresh.get("byte_identical")
        else "fresh snapshot did not assert byte identity",
    )
    batched = fresh.get("batching", {}).get("batched_jobs")
    ratchet.check(
        "serve: cross-request batching engagement",
        bool(batched),
        f"{batched} jobs travelled in multi-job batches"
        if batched
        else "batching never engaged — the snapshot measured a serial daemon",
    )
    # The warm pass completes in milliseconds, so its wall clock is
    # noisy; a wide floor still catches the failure that matters — a
    # broken artifact cache collapses the ratio to ~1.
    _check_ratio(
        ratchet,
        "serve: warm-cache speedup [warm_vs_cold]",
        committed.get("speedup", {}).get("warm_vs_cold"),
        fresh.get("speedup", {}).get("warm_vs_cold"),
        max(tolerance, 0.75),
    )


def _generate(kind: str, committed: Dict[str, Any], args, out: Path) -> None:
    """Run the matching snapshot script in-process, writing ``out``."""
    benchmarks = args.benchmarks or ",".join(committed["benchmarks"])
    argv = [
        "--scale", committed["scale"],
        "--benchmarks", benchmarks,
        "--base-seed", str(committed["base_seed"]),
        "--repeats", str(args.repeats),
        "--out", str(out),
    ]
    if kind == "table2":
        from benchmarks.snapshot_table2 import main
    else:
        from benchmarks.snapshot_packed import main
    print(
        f"[check_regression] generating fresh {kind} snapshot "
        f"({benchmarks}, repeats={args.repeats})...",
        file=sys.stderr,
    )
    status = main(argv)
    if status:
        raise RuntimeError(f"snapshot_{kind} failed with exit status {status}")


def _generate_serve(committed: Dict[str, Any], args, out: Path) -> None:
    """Regenerate the serve snapshot with the committed configuration.

    ``snapshot_serve`` has no ``--scale``/``--repeats`` axes — its
    shape is fully described by the committed snapshot's own fields.
    """
    from benchmarks.snapshot_serve import main

    argv = [
        "--benchmarks", ",".join(committed["benchmarks"]),
        "--bits", str(committed["bits"]),
        "--budget", committed["budget"],
        "--seeds", str(committed["seeds"]),
        "--clients", str(committed["clients"]),
        "--backend", committed["backend"],
        "--jobs", str(committed["jobs"]),
        "--out", str(out),
    ]
    print(
        "[check_regression] generating fresh serve snapshot "
        f"({','.join(committed['benchmarks'])}, "
        f"backend={committed['backend']})...",
        file=sys.stderr,
    )
    status = main(argv)
    if status:
        raise RuntimeError(f"snapshot_serve failed with exit status {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--table2",
        default=str(REPO_ROOT / "BENCH_table2.json"),
        help="committed table2 baseline",
    )
    parser.add_argument(
        "--fresh-table2",
        default=None,
        help="pre-generated fresh table2 snapshot (skips the run)",
    )
    parser.add_argument(
        "--packed",
        default=str(REPO_ROOT / "BENCH_packed.json"),
        help="committed exact-sweep baseline",
    )
    parser.add_argument(
        "--fresh-packed",
        default=None,
        help="pre-generated fresh packed snapshot (skips the run)",
    )
    parser.add_argument(
        "--serve",
        default=str(REPO_ROOT / "BENCH_serve.json"),
        help="committed serve-daemon baseline",
    )
    parser.add_argument(
        "--fresh-serve",
        default=None,
        help="pre-generated fresh serve snapshot (skips the run)",
    )
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated subset for the fresh runs "
        "(default: the committed suite)",
    )
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional ratio regression (default 0.25)",
    )
    parser.add_argument(
        "--skip-table2", action="store_true", help="skip the table2 baseline"
    )
    parser.add_argument(
        "--skip-packed", action="store_true", help="skip the packed baseline"
    )
    parser.add_argument(
        "--skip-serve", action="store_true", help="skip the serve baseline"
    )
    args = parser.parse_args(argv)

    ratchet = Ratchet()
    with tempfile.TemporaryDirectory(prefix="check-regression-") as tmp:
        if not args.skip_table2:
            committed = _load(Path(args.table2))
            if args.fresh_table2:
                fresh = _load(Path(args.fresh_table2))
            else:
                out = Path(tmp) / "table2.json"
                _generate("table2", committed, args, out)
                fresh = _load(out)
            check_table2(ratchet, committed, fresh, args.tolerance)
        if not args.skip_packed:
            committed = _load(Path(args.packed))
            if args.fresh_packed:
                fresh = _load(Path(args.fresh_packed))
            else:
                out = Path(tmp) / "packed.json"
                _generate("packed", committed, args, out)
                fresh = _load(out)
            check_packed(ratchet, committed, fresh, args.tolerance)
        if not args.skip_serve:
            committed = _load(Path(args.serve))
            if args.fresh_serve:
                fresh = _load(Path(args.fresh_serve))
            else:
                out = Path(tmp) / "serve.json"
                _generate_serve(committed, args, out)
                fresh = _load(out)
            check_serve(ratchet, committed, fresh, args.tolerance)

    print(ratchet.render())
    return 1 if ratchet.failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
