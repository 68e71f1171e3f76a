"""Generate ``BENCH_table2.json``: a seeded Table-II wall-clock snapshot.

The snapshot runs the full Table-II protocol (``run_table2``: every
benchmark × both algorithms × ``n_runs`` independent seeds, serially in
one process — the shape the caches amortise over) and records

* wall-clock of the current tree (fast paths on, cold caches),
* wall-clock of the in-tree reference mode (``fast_paths(False)``:
  serial single-partition calls),
* optionally, wall-clock of a *baseline checkout* (``--baseline``
  points at an older tree's ``src``; both sides run as interleaved
  subprocesses so machine drift hits them equally),
* the cache hit/miss statistics and per-phase wall-clock breakdown
  (``phase_timings``: span name -> count/total seconds) of a cold
  fast pass run under telemetry, and
* the per-benchmark MEDs of every mode, asserted **byte-identical** —
  the performance layer must never change a single output bit.

Usage::

    PYTHONPATH=src python -m benchmarks.snapshot_table2 \
        --scale default --benchmarks cos,exp,multiplier \
        --repeats 2 --baseline /tmp/seedrepo/src --out BENCH_table2.json

CI runs the smoke scale with no baseline as a <60s consistency gate:
any fast-vs-reference disagreement fails the script.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import caching, obs
from repro.experiments import ExperimentScale, run_table2

from benchmarks import snapshot_provenance

#: child program for subprocess timings — argv: scale, benchmarks, seed
_CHILD = """\
import json, sys, time
from dataclasses import replace
from repro.experiments import ExperimentScale, run_table2
factories = {"smoke": ExperimentScale.smoke, "default": ExperimentScale.default}
scale = replace(
    factories[sys.argv[1]](), benchmarks=tuple(sys.argv[2].split(","))
)
start = time.perf_counter()
result = run_table2(scale, base_seed=int(sys.argv[3]))
elapsed = time.perf_counter() - start
rows = [
    {"benchmark": r.benchmark, "dalta": r.dalta, "bssa": r.bssa}
    for r in result.rows
]
print(json.dumps({"elapsed": elapsed, "rows": rows}))
"""


def _meds(result) -> list:
    """Every MED statistic of a protocol result, in row order."""
    return [
        {"benchmark": row.benchmark, "dalta": row.dalta, "bssa": row.bssa}
        for row in result.rows
    ]


def _run_protocol(scale, base_seed: int):
    """One cold protocol execution; returns (elapsed, result)."""
    caching.clear_caches()
    start = time.perf_counter()
    result = run_table2(scale, base_seed=base_seed)
    return time.perf_counter() - start, result


def _run_child(src_path: str, scale_name: str, benchmarks, base_seed: int):
    """Time one protocol execution of a checkout in a subprocess."""
    env = dict(os.environ, PYTHONPATH=src_path)
    output = subprocess.run(
        [
            sys.executable,
            "-c",
            _CHILD,
            scale_name,
            ",".join(benchmarks),
            str(base_seed),
        ],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(output.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "default"), default="smoke")
    parser.add_argument(
        "--benchmarks",
        default=None,
        help="comma-separated subset (default: the scale's full suite)",
    )
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timed repetitions per mode (min is reported)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="src/ directory of an older checkout to race against "
        "(interleaved subprocesses)",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    factories = {"smoke": ExperimentScale.smoke, "default": ExperimentScale.default}
    scale = factories[args.scale]()
    if args.benchmarks:
        scale = replace(scale, benchmarks=tuple(args.benchmarks.split(",")))

    snapshot = {
        "protocol": "table2",
        "provenance": snapshot_provenance(),
        "scale": scale.name,
        "n_inputs": scale.n_inputs,
        "n_runs": scale.n_runs,
        "benchmarks": list(scale.benchmarks),
        "base_seed": args.base_seed,
        "repeats": args.repeats,
    }

    # -- current tree, fast paths on (cold) + reference mode (cold) ----
    fast_times, reference_times = [], []
    fast_result = reference_result = None
    for _ in range(args.repeats):
        elapsed, fast_result = _run_protocol(scale, args.base_seed)
        fast_times.append(elapsed)
        with caching.fast_paths(False):
            elapsed, reference_result = _run_protocol(scale, args.base_seed)
        reference_times.append(elapsed)
    fast_meds = _meds(fast_result)
    if fast_meds != _meds(reference_result):
        print("FAIL: fast paths changed the protocol outputs", file=sys.stderr)
        print(json.dumps(fast_meds, indent=2), file=sys.stderr)
        print(json.dumps(_meds(reference_result), indent=2), file=sys.stderr)
        return 1
    snapshot["meds"] = fast_meds
    snapshot["fast"] = {"seconds": fast_times, "min": min(fast_times)}
    snapshot["reference"] = {
        "mode": "fast_paths(False): serial calls",
        "seconds": reference_times,
        "min": min(reference_times),
        "byte_identical": True,
    }

    # -- cache statistics + per-phase wall clock of one cold fast pass --
    # (this pass runs under telemetry, so it is not used for the timed
    # wall-clock numbers above)
    memory = obs.MemorySink()
    with obs.session(memory):
        _run_protocol(scale, args.base_seed)
    snapshot["cache_stats"] = caching.cache_stats()
    summary = obs.summarize.summarize(memory.records)
    snapshot["phase_timings"] = summary.phase_timings()

    # -- optional race against an older checkout -----------------------
    if args.baseline:
        baseline_times, current_times = [], []
        baseline_rows = current_rows = None
        for _ in range(args.repeats):
            child = _run_child(
                args.baseline, scale.name, scale.benchmarks, args.base_seed
            )
            baseline_times.append(child["elapsed"])
            baseline_rows = child["rows"]
            child = _run_child(
                str(Path(__file__).resolve().parent.parent / "src"),
                scale.name,
                scale.benchmarks,
                args.base_seed,
            )
            current_times.append(child["elapsed"])
            current_rows = child["rows"]
        if baseline_rows != current_rows:
            print("FAIL: outputs differ from the baseline checkout", file=sys.stderr)
            return 1
        snapshot["baseline"] = {
            "src": args.baseline,
            "seconds": baseline_times,
            "min": min(baseline_times),
            "byte_identical": True,
        }
        snapshot["current_subprocess"] = {
            "seconds": current_times,
            "min": min(current_times),
        }
        snapshot["speedup_vs_baseline"] = min(baseline_times) / min(current_times)

    rendered = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
