"""Generate ``BENCH_serve.json``: the serve-daemon snapshot.

Boots a real :class:`repro.serve.ServeDaemon` (HTTP and all) and
drives it the way a design-space-exploration loop would — concurrent
clients posting distinct compile requests — in three passes:

* **offline** — every request compiled through ``compile_one``, the
  same code path as ``repro compile``.  These are the byte-identity
  oracles and the source of the snapshot's MED rows.
* **cold** — all requests fired concurrently at a freshly started
  daemon: per-request p50/p99 latency, wall clock, and the batching
  counters.  Every response is asserted **byte-identical** to its
  offline twin.
* **warm** — the identical requests again: every response must come
  out of the artifact cache (p50/p99 latency, throughput), again
  byte-identical.

The headline ratios are ``speedup.warm_vs_cold`` (what the
content-addressed cache buys) and ``batching.ratio`` (the fraction of
compiled jobs that travelled in a multi-job batch — a snapshot where
cross-request batching never engaged would be measuring a serial
daemon).  Absolute latencies are recorded for humans but never
ratcheted across machines; ``benchmarks.check_regression --serve``
ratchets the ratios and the byte-identity / engagement gates.

Usage::

    PYTHONPATH=src:. python -m benchmarks.snapshot_serve \
        --benchmarks cos,exp --bits 6 --seeds 4 --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List

from repro import obs
from repro.compile_api import canonical_json, compile_one
from repro.serve.daemon import ServeDaemon
from repro.serve.service import ServeConfig

from benchmarks import snapshot_provenance


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
    return ordered[index]


def _post(url: str, document: Dict[str, Any]) -> Dict[str, Any]:
    request = urllib.request.Request(
        f"{url}/compile",
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return json.load(response)


def _fire(url: str, documents: List[Dict[str, Any]], clients: int):
    """POST every document from a bounded client pool.

    Returns ``(wall_seconds, latencies, envelopes)`` with envelopes in
    document order.
    """
    envelopes: List[Any] = [None] * len(documents)
    latencies: List[float] = [0.0] * len(documents)
    errors: List[BaseException] = []
    semaphore = threading.Semaphore(clients)
    barrier = threading.Barrier(len(documents) + 1)

    def client(index: int) -> None:
        barrier.wait()
        with semaphore:
            started = time.perf_counter()
            try:
                envelopes[index] = _post(url, documents[index])
            except BaseException as exc:  # surfaced after the join
                errors.append(exc)
            latencies[index] = time.perf_counter() - started

    threads = [
        threading.Thread(target=client, args=(index,))
        for index in range(len(documents))
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"{len(errors)} requests failed: {errors[0]}")
    return wall, latencies, envelopes


def _latency_block(wall: float, latencies: List[float]) -> Dict[str, Any]:
    return {
        "wall_seconds": wall,
        "p50_seconds": statistics.median(latencies),
        "p99_seconds": _percentile(latencies, 0.99),
        "max_seconds": max(latencies),
        "throughput_rps": len(latencies) / wall if wall else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmarks", default="cos,exp")
    parser.add_argument("--bits", type=int, default=6)
    parser.add_argument("--budget", default="fast")
    parser.add_argument(
        "--seeds",
        type=int,
        default=4,
        help="distinct seeds per benchmark (each is one fingerprint)",
    )
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent client threads"
    )
    parser.add_argument("--backend", choices=("pool", "inline"), default="pool")
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--batch-window",
        type=float,
        default=0.25,
        help="dispatcher gather window — wide enough that the "
        "concurrent burst lands in shared batches",
    )
    parser.add_argument("--out", default=None, help="JSON output path")
    args = parser.parse_args(argv)

    benchmarks = args.benchmarks.split(",")
    documents = [
        {
            "benchmark": benchmark,
            "bits": args.bits,
            "budget": args.budget,
            "seed": seed,
        }
        for benchmark in benchmarks
        for seed in range(args.seeds)
    ]

    # Offline twins: the oracles every served byte is compared against.
    print(
        f"[snapshot_serve] compiling {len(documents)} offline twins...",
        file=sys.stderr,
    )
    twins = [
        compile_one(
            doc["benchmark"],
            bits=doc["bits"],
            budget=doc["budget"],
            seed=doc["seed"],
        ).payload
        for doc in documents
    ]

    snapshot = {
        "protocol": "serve",
        "provenance": snapshot_provenance(),
        "benchmarks": benchmarks,
        "bits": args.bits,
        "budget": args.budget,
        "seeds": args.seeds,
        "clients": args.clients,
        "backend": args.backend,
        "jobs": args.jobs,
        "meds": [
            {
                "benchmark": benchmark,
                "meds": [
                    twin["med"]
                    for doc, twin in zip(documents, twins)
                    if doc["benchmark"] == benchmark
                ],
                "fingerprints": [
                    twin["fingerprint"]
                    for doc, twin in zip(documents, twins)
                    if doc["benchmark"] == benchmark
                ],
            }
            for benchmark in benchmarks
        ],
    }

    config = ServeConfig(
        backend=args.backend,
        jobs=args.jobs,
        batch_window=args.batch_window,
        max_batch=max(16, len(documents)),
    )
    sink = obs.MemorySink()
    with obs.session(sink) as telemetry:
        with ServeDaemon(config, port=0) as daemon:
            print(
                f"[snapshot_serve] cold pass: {len(documents)} requests, "
                f"{args.clients} clients, backend={args.backend}...",
                file=sys.stderr,
            )
            cold_wall, cold_latencies, cold_envelopes = _fire(
                daemon.url, documents, args.clients
            )
            print("[snapshot_serve] warm pass...", file=sys.stderr)
            warm_wall, warm_latencies, warm_envelopes = _fire(
                daemon.url, documents, args.clients
            )
        counters = dict(telemetry.counters)

    mismatches = [
        documents[index]
        for index, twin in enumerate(twins)
        if canonical_json(cold_envelopes[index]["artifact"])
        != canonical_json(twin)
        or canonical_json(warm_envelopes[index]["artifact"])
        != canonical_json(twin)
    ]
    if mismatches:
        print(
            f"FAIL: {len(mismatches)} served artifacts differ from their "
            f"offline twins: {mismatches}",
            file=sys.stderr,
        )
        return 1
    snapshot["byte_identical"] = True

    cold_misses = [
        env for env in cold_envelopes if env["source"] != "computed"
    ]
    warm_cold = [env for env in warm_envelopes if env["cached"] is not True]
    if warm_cold:
        print(
            f"FAIL: {len(warm_cold)} warm-pass responses were not cache "
            "hits — the artifact cache is not doing its job",
            file=sys.stderr,
        )
        return 1

    snapshot["cold"] = _latency_block(cold_wall, cold_latencies)
    snapshot["cold"]["coalesced_or_cached"] = len(cold_misses)
    snapshot["warm"] = _latency_block(warm_wall, warm_latencies)
    snapshot["speedup"] = {"warm_vs_cold": cold_wall / warm_wall}

    executed = counters.get("serve.executed", 0)
    batched = counters.get("serve.batched_jobs", 0)
    batches = counters.get("serve.batches", 0)
    snapshot["batching"] = {
        "executed": executed,
        "batched_jobs": batched,
        "batches": batches,
        "ratio": (batched / executed) if executed else 0.0,
        "retries": counters.get("serve.retries", 0),
    }
    if not batched:
        print(
            "FAIL: cross-request batching never engaged — widen "
            "--batch-window or raise --clients; a serial daemon "
            "snapshot ratchets nothing",
            file=sys.stderr,
        )
        return 1

    snapshot["counters"] = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("serve.")
    }

    rendered = json.dumps(snapshot, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
