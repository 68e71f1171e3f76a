"""Run manifests: what ran, with which config/seeds, and how long.

A manifest is one JSON object (written as a JSONL line so several runs
can share a file next to the benchmark outputs) recording everything
needed to re-execute or audit a run: a config hash, the spawned seeds,
the git revision, the BLAS threading its kernel timings were taken
under, and per-phase wall-clock totals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .. import blas

__all__ = ["config_hash", "git_revision", "RunManifest"]

_SCHEMA = 1


def config_hash(config: Any) -> str:
    """Stable short hash of a config (dataclass, dict, or repr-able)."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    elif isinstance(config, dict):
        payload = config
    else:
        payload = {"repr": repr(config)}
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """Current git commit hash, or ``None`` outside a repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


@dataclass
class RunManifest:
    """One run's reproducibility record."""

    command: str
    config_hash: Optional[str] = None
    base_seed: Optional[int] = None
    #: per-run spawned seed records (see ``RunSpec.seed_info``)
    seeds: List[Dict[str, Any]] = field(default_factory=list)
    git_rev: Optional[str] = None
    #: BLAS library, version and thread counts (``repro.blas.describe``)
    blas: Dict[str, Any] = field(default_factory=dict)
    #: span-name -> {"count", "total"} wall-clock rollup
    phase_timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)
    created: float = field(default_factory=time.time)
    schema: int = _SCHEMA

    @classmethod
    def build(
        cls,
        command: str,
        config: Any = None,
        base_seed: Optional[int] = None,
        **kwargs,
    ) -> "RunManifest":
        """Construct a manifest, hashing ``config``, reading git and
        recording the BLAS threading."""
        return cls(
            command=command,
            config_hash=None if config is None else config_hash(config),
            base_seed=base_seed,
            git_rev=git_revision(),
            blas=blas.describe(),
            **kwargs,
        )

    def add_seed(self, seed_info: Dict[str, Any]) -> None:
        self.seeds.append(seed_info)

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["type"] = "manifest"
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunManifest":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def append_to(self, path: str) -> None:
        """Append this manifest as one JSONL line."""
        with open(path, "a") as handle:
            handle.write(json.dumps(self.to_dict(), default=str) + "\n")

    @classmethod
    def load_all(cls, path: str) -> List["RunManifest"]:
        """Read every manifest record from a JSONL file."""
        manifests = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                payload = json.loads(line)
                if payload.get("type") == "manifest":
                    manifests.append(cls.from_dict(payload))
        return manifests
