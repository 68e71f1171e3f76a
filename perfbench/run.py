"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs a separate traced pass and
reports the per-layer metrics.  Output: one JSON line of provenance,
one line per metric (name, value, unit) plus notes, then the result as
one JSON object on the last line.  The exit code is 1 when any output
failed its correctness check, 2 when the program cannot be imported.
See ``perfbench/GLOSSARY.md`` for every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import plan  # noqa: E402

#: set-up is measured this many times per run; the median is reported
SETUP_REPEATS = 3

#: units of the measured values printed as notes but not declared as
#: end-to-end metrics (per-layer ones take their unit from BENCHMARK.json)
NOTE_UNITS = {"compile_p50_s": "s", "compile_tail_s": "s", "failed_frac": "frac"}


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    return document["end_to_end"], document["per_layer"]


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return function()
    return None


def _git_rev():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    """Digest of every file under src/, for checkouts that are not git."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def provenance(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "src_digest": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure_setup(workload: str) -> float:
    """Median wall time of a fresh interpreter doing the workload's set-up."""
    samples = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            cwd=ROOT,
            check=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts to track shared
    memory, and wait for it to end; left alone it outlives this process.
    Every process that shares its pipe (pool workers) has ended by now."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=plan.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--lo-rps", type=float, default=3.0, help="serve-mixed lo rate")
    parser.add_argument("--hi-rps", type=float, default=8.0, help="serve-mixed hi rate")
    parser.add_argument("--setup-probe", choices=plan.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    finally:
        stop_resource_tracker()


def run(args) -> int:
    try:
        import repro  # noqa: F401

        from perfbench import checks, workloads
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.setup_probe(args.setup_probe)
        return 0
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    print(json.dumps({"provenance": provenance(args)}, sort_keys=True), flush=True)

    work_dir = os.path.join(ROOT, "perfbench", ".work", str(os.getpid()))
    os.makedirs(work_dir)
    try:
        setup_s = None if args.trace else measure_setup(args.workload)
        context = workloads.Context(
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work_dir=work_dir,
            expected=checks.load_expected(),
            lo_rps=args.lo_rps,
            hi_rps=args.hi_rps,
        )
        outcome = workloads.RUNNERS[args.workload](context)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = dict(outcome.metrics)
    if not args.trace:
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = workloads.peak_rss_mb()
        values["ok_frac"] = 1.0 - len(outcome.failures) / outcome.attempted
    metrics = {}
    for entry in declared:
        # per-layer metrics of a layer this workload does not run are 0
        value = values.get(entry["name"], 0.0 if args.trace else None)
        if value is None:
            raise RuntimeError(f"workload produced no {entry['name']}")
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
    values["failed_frac"] = len(outcome.failures) / outcome.attempted
    for line in outcome.report:
        print(f"# {line}")
    # measured but not declared for this pass: printed as notes only
    units = dict(NOTE_UNITS, **{m["name"]: m["unit"] for m in per_layer})
    for name in sorted(set(values) - set(metrics)):
        if values[name] is not None:
            print(f"# {name} {values[name]:.6g} {units[name]}")
    for reason in outcome.failures[:20]:
        print(f"# FAILED {reason}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": not outcome.failures,
                "attempted": outcome.attempted,
                "failed": len(outcome.failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if not outcome.failures else 1


if __name__ == "__main__":
    sys.exit(main())
