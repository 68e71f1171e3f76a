"""Seeded benchmark harnesses and committed performance snapshots.

``snapshot_table2`` / ``snapshot_packed`` / ``snapshot_serve`` write
the committed ``BENCH_table2.json`` / ``BENCH_packed.json`` /
``BENCH_serve.json`` baselines and ``check_regression`` ratchets fresh
runs against them (see ``docs/performance.md``).
"""

from __future__ import annotations

import datetime
import os
import platform
import time
from typing import Any, Dict

__all__ = ["snapshot_provenance"]


def snapshot_provenance() -> Dict[str, Any]:
    """Where/when/what stamp for a committed ``BENCH_*.json`` snapshot.

    Records the git revision, creation time, host CPU count, and Python
    version so a snapshot can be traced back to the tree and machine
    that produced it (``repro summarize BENCH_*.json`` prints these).

    ``shard`` is non-null when the producing process was one shard of
    a sharded campaign (the engine exports ``REPRO_SHARD=i/n`` while a
    ``--shard`` run is in flight): numbers from a partial, unmerged
    shard run are not comparable to whole-campaign baselines, and
    ``benchmarks/check_regression.py`` rejects such snapshots.
    """
    from repro.obs import git_revision

    now = time.time()
    return {
        "git_rev": git_revision(),
        "created": now,
        "created_iso": datetime.datetime.fromtimestamp(
            now, tz=datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "shard": os.environ.get("REPRO_SHARD"),
    }
