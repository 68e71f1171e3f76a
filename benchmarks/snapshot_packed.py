"""Generate ``BENCH_packed.json``: the exact-sweep snapshot.

Production OptForPart runs the exact sweep, which restructures the
kernel's arithmetic under a dyadic-exactness gate (see
docs/performance.md), so its snapshot is a two-way differential of
the full Table-II protocol:

* **packed** — fast paths on: production, the exact sweep (the
  shipping default);
* **reference** — ``fast_paths(False)``: the serial reference
  implementation production is pinned against.

Every pass runs under telemetry and reports its wall clock and two
OptForPart phase totals: the ``opt.for_part*`` *span* sum (wall
seconds inside the kernel entry points) and the
``opt.for_part_cpu_seconds`` *CPU* sum (per-thread CPU seconds over
the same calls); the two agree to within telemetry overhead and
scheduling noise.  The per-benchmark MEDs of both modes are asserted
**byte-identical**: the exact sweep may not change a single output
bit.  ``engagement`` records how many kernel calls the exactness gate
accepted — a snapshot where the gate declined the protocol's
instances would be measuring the reference twice.

Usage::

    PYTHONPATH=src python -m benchmarks.snapshot_packed \
        --scale default --benchmarks cos --repeats 3 --out BENCH_packed.json

CI runs the smoke scale as a <60s exact-sweep differential gate; the
committed default-scale snapshot is ratcheted by
``benchmarks.check_regression`` (byte-identical MEDs, speedup ratio
floor).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from repro import caching, obs
from repro.experiments import ExperimentScale, run_table2

from benchmarks import snapshot_provenance

#: span-name prefix of the phase the exact sweep accelerates
_OPT_PHASE = "opt.for_part"

#: per-call thread-CPU observation emitted by every kernel entry point
_OPT_CPU = "opt.for_part_cpu_seconds"


def _meds(result) -> list:
    return [
        {"benchmark": row.benchmark, "dalta": row.dalta, "bssa": row.bssa}
        for row in result.rows
    ]


def _opt_phase_total(phase_timings: dict) -> float:
    return sum(
        stats["total"]
        for name, stats in phase_timings.items()
        if name.startswith(_OPT_PHASE)
    )


def _run_pass(scale, base_seed: int):
    """One telemetered protocol pass.

    Returns ``(wall, span_phase, cpu_phase, result, summary)``.  The
    wall clock includes telemetry overhead, but both modes pay it
    identically, so the recorded ratios stay meaningful.  ``cpu_phase``
    sums the per-call ``opt.for_part_cpu_seconds`` observations.
    """
    sink = obs.MemorySink()
    start = time.perf_counter()
    with obs.session(sink):
        result = run_table2(scale, base_seed=base_seed)
    wall = time.perf_counter() - start
    summary = obs.summarize.summarize(sink.records)
    cpu_hist = summary.histograms.get(_OPT_CPU)
    cpu_phase = cpu_hist.total if cpu_hist is not None else 0.0
    return (
        wall,
        _opt_phase_total(summary.phase_timings()),
        cpu_phase,
        result,
        summary,
    )


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
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    factories = {"smoke": ExperimentScale.smoke, "default": ExperimentScale.default}
    scale = factories[args.scale]()
    if args.benchmarks:
        scale = replace(scale, benchmarks=tuple(args.benchmarks.split(",")))

    snapshot = {
        "protocol": "table2-packed",
        "provenance": snapshot_provenance(),
        "scale": scale.name,
        "n_inputs": scale.n_inputs,
        "n_runs": scale.n_runs,
        "benchmarks": list(scale.benchmarks),
        "base_seed": args.base_seed,
        "repeats": args.repeats,
    }

    runs = {"packed": True, "reference": False}
    modes = {
        name: {
            "walls": [],
            "phases": [],
            "cpu_phases": [],
            "result": None,
            "summary": None,
        }
        for name in runs
    }
    for _ in range(args.repeats):
        for name, production in runs.items():
            with caching.fast_paths(production):
                wall, phase, cpu_phase, result, summary = _run_pass(
                    scale, args.base_seed
                )
            modes[name]["walls"].append(wall)
            modes[name]["phases"].append(phase)
            modes[name]["cpu_phases"].append(cpu_phase)
            modes[name].update(result=result, summary=summary)

    packed_meds = _meds(modes["packed"]["result"])
    reference_meds = _meds(modes["reference"]["result"])
    if reference_meds != packed_meds:
        print(
            "FAIL: the exact sweep changed the protocol outputs vs reference",
            file=sys.stderr,
        )
        print(json.dumps(packed_meds, indent=2), file=sys.stderr)
        print(json.dumps(reference_meds, indent=2), file=sys.stderr)
        return 1
    snapshot["meds"] = packed_meds
    snapshot["byte_identical"] = True

    descriptions = {
        "packed": "production: fast paths + exact sweep (shipping default)",
        "reference": "fast_paths(False): serial reference implementation",
    }
    for name, mode in modes.items():
        snapshot[name] = {
            "mode": descriptions[name],
            "seconds": mode["walls"],
            "min": min(mode["walls"]),
            "opt_phase_seconds": mode["phases"],
            "opt_phase_min": min(mode["phases"]),
            "opt_phase_cpu_seconds": mode["cpu_phases"],
            "opt_phase_cpu_min": min(mode["cpu_phases"]),
        }
    snapshot["speedup"] = {
        "opt_phase_vs_reference": snapshot["reference"]["opt_phase_min"]
        / snapshot["packed"]["opt_phase_min"],
        "wall_vs_reference": snapshot["reference"]["min"]
        / snapshot["packed"]["min"],
    }

    counters = modes["packed"]["summary"].counters
    engaged = counters.get("opt.packed_calls", 0)
    snapshot["engagement"] = {
        "packed_calls": engaged,
        "packed_ineligible": counters.get("opt.packed_ineligible", 0),
        "packed_f32_calls": counters.get("opt.packed_f32_calls", 0),
    }
    if not engaged:
        print(
            "FAIL: the exactness gate never engaged the exact sweep — "
            "the snapshot would be measuring the reference twice",
            file=sys.stderr,
        )
        return 1

    snapshot["phase_timings"] = modes["packed"]["summary"].phase_timings()

    rendered = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
