"""Correctness gates: MEDs recomputed here, compared with stored values.

``expected.json`` is written once by ``make_expected.py`` on the
reference kernels (``caching.fast_paths(False)``); a run under test
never contributes to it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Tuple

import numpy as np

EXPECTED_PATH = os.path.join(os.path.dirname(__file__), "expected.json")

#: program-reported MED vs the MED recomputed here (summation order differs)
MED_RTOL = 1e-9


def load_expected() -> Dict[str, Any]:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def med(target_table, approx_table) -> float:
    """Mean error distance under the uniform input distribution."""
    exact = np.asarray(target_table, dtype=np.int64)
    approx = np.asarray(approx_table, dtype=np.int64)
    if exact.shape != approx.shape:
        raise ValueError(f"table shapes differ: {exact.shape} vs {approx.shape}")
    return float(np.abs(exact - approx).mean())


def table_digest(table) -> str:
    return hashlib.sha256(np.asarray(table, dtype=np.int64).tobytes()).hexdigest()[:16]


def artifact_digest(payload: Dict[str, Any]) -> str:
    """Digest of an artifact in the byte form the program compares it in."""
    from repro.compile_api import canonical_json

    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def artifact_table(payload: Dict[str, Any], target) -> np.ndarray:
    """The approximate truth table an artifact's configuration encodes."""
    from repro.core import serialize

    lut = serialize.loads(json.dumps(payload["config"]), target)
    return np.asarray(lut.approx_function.table)


def shifted_geomean(meds) -> float:
    """Geometric mean of ``MED + 1``, minus 1: defined when a MED is 0."""
    meds = np.asarray(list(meds), dtype=float)
    return float(np.expm1(np.log1p(meds).mean()))


def close(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) <= MED_RTOL * max(1.0, abs(recomputed))


def result_record(target_table, approx_table) -> Dict[str, Any]:
    """What ``expected.json`` stores for one search result."""
    return {"med": med(target_table, approx_table), "table": table_digest(approx_table)}


def check_result(
    expected: Optional[Dict[str, Any]], reported_med: float, target_table, approx_table
) -> Tuple[Optional[str], float]:
    """``(None, MED)`` when a search result matches the reference;
    otherwise ``(why not, MED)``.  The MED is the one recomputed here."""
    record = result_record(target_table, approx_table)
    if expected is None:
        return "no expected value", record["med"]
    if record["table"] != expected["table"]:
        return "approximate table differs from the reference", record["med"]
    if record["med"] != expected["med"]:
        return f"MED {record['med']} != reference {expected['med']}", record["med"]
    if not close(reported_med, record["med"]):
        return f"reported MED {reported_med} != recomputed {record['med']}", record["med"]
    return None, record["med"]


def artifact_record(payload: Dict[str, Any], target) -> Dict[str, Any]:
    """What ``expected.json`` stores for one compiled artifact."""
    return {
        "fingerprint": payload["fingerprint"],
        "digest": artifact_digest(payload),
        "med": med(target.table, artifact_table(payload, target)),
    }


def check_artifact(
    expected: Optional[Dict[str, Any]], payload: Dict[str, Any], target
) -> Tuple[Optional[str], float]:
    """``(None, MED)`` when an artifact is byte-identical to the reference
    one; otherwise ``(why not, MED)``.  The MED is the one recomputed here."""
    recomputed = med(target.table, artifact_table(payload, target))
    if expected is None:
        return "no expected value", recomputed
    if payload.get("fingerprint") != expected["fingerprint"]:
        return (
            f"fingerprint {payload.get('fingerprint')} != {expected['fingerprint']}",
            recomputed,
        )
    if artifact_digest(payload) != expected["digest"]:
        return "artifact bytes differ from the reference", recomputed
    if recomputed != expected["med"]:
        return f"MED {recomputed} != reference {expected['med']}", recomputed
    if not close(payload["med"], recomputed):
        return f"reported MED {payload['med']} != recomputed {recomputed}", recomputed
    return None, recomputed
