"""Generate ``BENCH_packed.json``: the exact-sweep snapshot.

Production OptForPart runs the exact sweep, which restructures the
kernel's arithmetic under a dyadic-exactness gate (see
docs/performance.md), so its snapshot is a three-way differential of
the full Table-II protocol:

* **packed** — fast paths on: production, the exact sweep (the
  shipping default);
* **reference** — ``fast_paths(False)``: the serial reference
  implementation production is pinned against;
* **fused** — production *and* the whole campaign run through
  ``run_table2_fused``: every run executes concurrently under one
  FusionHub so independent OptForPart batches merge into wide grouped
  kernel passes (``opt_for_part_grouped``).

Every pass runs under telemetry and reports its wall clock and two
OptForPart phase totals: the ``opt.for_part*`` *span* sum (wall
seconds inside the kernel entry points) and the
``opt.for_part_cpu_seconds`` *CPU* sum (per-thread CPU seconds over
the same calls).  For the three serial modes the two agree to within
telemetry overhead; for the fused mode the span sum double-counts —
the kernel executor timeshares one interpreter with the still-running
campaign threads, so its wall spans absorb their CPU slices — and the
CPU sum is the honest phase cost.  Cross-mode speedups therefore
compare CPU phase to CPU phase (``fused_opt_phase_vs_packed``) while
the legacy span-based ratios are kept for the serial modes.  The
per-benchmark MEDs of all three modes are asserted **byte-identical**:
neither the exact sweep nor fusion may change a single output bit.
``engagement`` records how many kernel calls the exactness gate
accepted, and ``fusion`` how wide the grouped passes actually ran
(``opt.fused_calls`` / ``opt.fused_items`` / the ``opt.fused_width``
histogram) — a snapshot where the gate declined the protocol's
instances, or where every "fused" chunk held one item, would be
measuring nothing.

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
from repro.experiments.table2 import run_table2_fused

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


def _run_pass(scale, base_seed: int, runner=run_table2):
    """One cold telemetered protocol pass.

    Returns ``(wall, span_phase, cpu_phase, result, summary)``.  The
    wall clock includes telemetry overhead, but all modes pay it
    identically, so the recorded ratios stay meaningful.  ``cpu_phase``
    sums the per-call ``opt.for_part_cpu_seconds`` observations — the
    phase metric that stays honest when ``runner`` timeshares kernel
    calls with concurrent campaign threads (see module docstring).
    """
    caching.clear_caches()
    sink = obs.MemorySink()
    start = time.perf_counter()
    with obs.session(sink):
        result = runner(scale, base_seed=base_seed)
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

    runs = {
        "packed": (True, run_table2),
        "reference": (False, run_table2),
        "fused": (True, run_table2_fused),
    }
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
        for name, (production, runner) in runs.items():
            with caching.fast_paths(production):
                wall, phase, cpu_phase, result, summary = _run_pass(
                    scale, args.base_seed, runner
                )
            modes[name]["walls"].append(wall)
            modes[name]["phases"].append(phase)
            modes[name]["cpu_phases"].append(cpu_phase)
            modes[name].update(result=result, summary=summary)

    packed_meds = _meds(modes["packed"]["result"])
    for name in ("reference", "fused"):
        if _meds(modes[name]["result"]) != packed_meds:
            print(
                f"FAIL: the exact sweep changed the protocol outputs vs {name}",
                file=sys.stderr,
            )
            print(json.dumps(packed_meds, indent=2), file=sys.stderr)
            print(
                json.dumps(_meds(modes[name]["result"]), indent=2),
                file=sys.stderr,
            )
            return 1
    snapshot["meds"] = packed_meds
    snapshot["byte_identical"] = True

    descriptions = {
        "packed": "production: fast paths + exact sweep (shipping default)",
        "reference": "fast_paths(False): serial reference implementation",
        "fused": "production + fused cross-run kernel dispatch "
        "(run_table2_fused)",
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
    # span sums double-count under fused timesharing (module docstring)
    snapshot["fused"]["phase_basis"] = "cpu"

    packed_phase = snapshot["packed"]["opt_phase_min"]
    fused_cpu = snapshot["fused"]["opt_phase_cpu_min"]
    snapshot["speedup"] = {
        "opt_phase_vs_reference": snapshot["reference"]["opt_phase_min"]
        / packed_phase,
        "wall_vs_reference": snapshot["reference"]["min"]
        / snapshot["packed"]["min"],
        # CPU-phase vs CPU-phase: the honest cross-mode comparison
        "fused_opt_phase_vs_packed": snapshot["packed"]["opt_phase_cpu_min"]
        / fused_cpu,
        "fused_opt_phase_vs_reference": snapshot["reference"][
            "opt_phase_cpu_min"
        ]
        / fused_cpu,
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

    fused_summary = modes["fused"]["summary"]
    fused_calls = fused_summary.counters.get("opt.fused_calls", 0)
    fused_items = fused_summary.counters.get("opt.fused_items", 0)
    width_hist = fused_summary.histograms.get("opt.fused_width")
    snapshot["fusion"] = {
        "fused_calls": fused_calls,
        "fused_items": fused_items,
        # mean items per grouped kernel invocation — the engagement
        # ratio the regression gate ratchets (1.0 == fusion never
        # merged anything)
        "engagement_ratio": (fused_items / fused_calls) if fused_calls else 0.0,
        "chunk_width_mean": (
            width_hist.total / width_hist.count
            if width_hist is not None and width_hist.count
            else 0.0
        ),
        "chunk_width_max": (
            width_hist.max if width_hist is not None and width_hist.count else 0
        ),
        "packed_f32_calls": fused_summary.counters.get(
            "opt.packed_f32_calls", 0
        ),
    }
    if not fused_calls or snapshot["fusion"]["engagement_ratio"] <= 1.0:
        print(
            "FAIL: the fused pass never merged kernel calls — every "
            "grouped invocation held a single item, so the fused mode "
            "measured serial dispatch",
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
