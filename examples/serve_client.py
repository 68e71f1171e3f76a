#!/usr/bin/env python3
"""Talk to a running ``repro serve`` daemon — a minimal stdlib client.

Scenario: a design-space-exploration loop owns a truth table and wants
compiled artifacts (MED, Verilog, hardware report) without paying
process startup per candidate.  It POSTs the table to the daemon and
lets the content-addressed cache absorb repeated candidates.

Start a daemon, then run the client:

    python -m repro serve --port 8642 --jobs 1 &
    python examples/serve_client.py --url http://127.0.0.1:8642

The ``compile`` helper below is the whole protocol: one POST, sorted
keys out, artifact in.  Everything else is the demo around it.
"""

import argparse
import json
import sys
import urllib.error
import urllib.request


def compile_remote(url: str, request: dict, timeout: float = 600.0) -> dict:
    """POST one compile request; returns the response envelope.

    Raises ``RuntimeError`` with the server's error text on any
    non-200 answer (including 429 — a production caller would honour
    the ``Retry-After`` header instead).
    """
    data = json.dumps(request).encode()
    http_request = urllib.request.Request(
        f"{url}/compile",
        data=data,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(http_request, timeout=timeout) as resp:
            return json.load(resp)
    except urllib.error.HTTPError as error:
        detail = error.read().decode(errors="replace").strip()
        raise RuntimeError(f"HTTP {error.code}: {detail}") from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default="http://127.0.0.1:8642")
    parser.add_argument("--bits", type=int, default=6)
    args = parser.parse_args()

    # 1. A registered workload, by name.
    envelope = compile_remote(
        args.url,
        {"benchmark": "cos", "bits": args.bits, "budget": "fast", "seed": 7},
    )
    artifact = envelope["artifact"]
    print(
        f"cos/{args.bits}: MED {artifact['med']:.3f}  "
        f"source={envelope['source']}  "
        f"{envelope['elapsed_seconds'] * 1000:.0f} ms  "
        f"fingerprint {envelope['fingerprint']}"
    )

    # 2. The same request again — served from the artifact cache.
    again = compile_remote(
        args.url,
        {"benchmark": "cos", "bits": args.bits, "budget": "fast", "seed": 7},
    )
    identical = json.dumps(again["artifact"], sort_keys=True) == json.dumps(
        artifact, sort_keys=True
    )
    print(
        f"repeat: source={again['source']}  "
        f"byte-identical={identical}  "
        f"{again['elapsed_seconds'] * 1000:.0f} ms"
    )

    # 3. A raw truth table the caller owns (3-bit Gray code).
    envelope = compile_remote(
        args.url,
        {
            "table": [0, 1, 3, 2, 6, 7, 5, 4],
            "n_outputs": 3,
            "name": "gray3",
            "budget": "fast",
        },
    )
    artifact = envelope["artifact"]
    verilog_lines = len(artifact["verilog"].splitlines())
    print(
        f"gray3: MED {artifact['med']:.3f}  "
        f"modes {artifact['mode_counts']}  "
        f"{verilog_lines} lines of Verilog"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
