"""Shared helpers for the serve-daemon suite.

Every test compiles tiny targets (6-bit workloads on the ``fast``
budget, ~50 ms each) so even the 16-thread stress tests stay quick.
The ``offline_twin`` helper is the differential oracle: it runs the
exact offline ``repro compile`` path for a request document, so tests
can assert a served artifact is byte-identical to what the CLI would
have produced.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Any, Dict, Optional, Tuple

import pytest

from repro import obs
from repro.compile_api import artifact_from_result, canonical_json
from repro.serve.schema import parse_compile_request

#: the canonical tiny request used across the suite
BENCHMARK_DOC = {"benchmark": "cos", "bits": 6, "budget": "fast", "seed": 7}

#: fingerprint of BENCHMARK_DOC — pinned so accidental drift in the
#: content-addressing scheme (table digest + algorithm descriptor)
#: fails loudly instead of silently invalidating every cache
BENCHMARK_FINGERPRINT = "7de0a211319dfa71"


def bench_doc(seed: int = 7, **overrides: Any) -> Dict[str, Any]:
    doc = dict(BENCHMARK_DOC, seed=seed)
    doc.update(overrides)
    return doc


def offline_twin(document: Dict[str, Any]) -> Dict[str, Any]:
    """The offline ``repro compile`` artifact for a request document."""
    request = parse_compile_request(document)
    result = request.spec.execute()
    return artifact_from_result(request.spec, result).payload


def post_compile(
    url: str, document: Any, raw: Optional[bytes] = None
) -> Tuple[int, Dict[str, Any], bytes]:
    """POST to ``/compile``; returns ``(status, parsed, raw_body)``."""
    body = raw if raw is not None else json.dumps(document).encode()
    request = urllib.request.Request(
        f"{url}/compile",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            payload = response.read()
            return response.status, json.loads(payload), payload
    except urllib.error.HTTPError as error:
        payload = error.read()
        return error.code, json.loads(payload), payload


def get_json(url: str, path: str) -> Dict[str, Any]:
    with urllib.request.urlopen(f"{url}{path}") as response:
        return json.load(response)


def assert_served_equals_offline(
    envelope: Dict[str, Any], twin: Dict[str, Any]
) -> None:
    """The headline invariant: served artifact == offline compile."""
    assert canonical_json(envelope["artifact"]) == canonical_json(twin)
    assert envelope["fingerprint"] == twin["fingerprint"]


@pytest.fixture
def telemetry():
    """An active obs session whose live counters tests can read."""
    with obs.session(obs.MemorySink()) as session:
        yield session
