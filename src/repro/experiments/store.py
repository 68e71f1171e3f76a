"""Crash-safe checkpoint persistence for one campaign directory.

The checkpointed engine (:mod:`repro.experiments.engine`) keeps each
campaign in one directory, laid out by :class:`LocalStore`::

    campaign.json               manifest: engine config, invocation, jobs
    jobs/job-XXXXX.json         one checkpoint per finished job
    quarantine/job-XXXXX.json   why a poison job was given up

Every write goes through :func:`atomic_write_json` (write a temp file,
``fsync``, ``rename``), so a reader sees either the old state or the
complete new one, even after a SIGKILL or power loss at any point.
One engine writes a directory at a time.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Dict, Optional

__all__ = [
    "CAMPAIGN_FILE",
    "JOBS_DIR",
    "QUARANTINE_DIR",
    "CampaignError",
    "CampaignMismatch",
    "LocalStore",
    "atomic_write_json",
]

SCHEMA = 1
CAMPAIGN_FILE = "campaign.json"
JOBS_DIR = "jobs"
QUARANTINE_DIR = "quarantine"


class CampaignError(RuntimeError):
    """A campaign could not run or resume."""


class CampaignMismatch(CampaignError):
    """A checkpoint directory belongs to a different campaign."""


# ======================================================================
# Crash-safe persistence primitives
# ======================================================================
def _fsync_dir(path: str) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_json(path: str, payload: Any) -> None:
    """Durably write ``payload`` as JSON: temp file + fsync + rename.

    A reader never observes a partially-written file — either the old
    state exists or the complete new one does, even across SIGKILL or
    power loss at any point.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp-", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True, default=str)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_dir(directory)


# ======================================================================
# The store
# ======================================================================
class LocalStore:
    """The on-disk layout of one campaign directory (one writer)."""

    def __init__(self, root: str) -> None:
        self.root = root

    # -- layout --------------------------------------------------------
    def prepare(self) -> None:
        os.makedirs(os.path.join(self.root, JOBS_DIR), exist_ok=True)
        os.makedirs(os.path.join(self.root, QUARANTINE_DIR), exist_ok=True)

    def job_path(self, index: int) -> str:
        return os.path.join(self.root, JOBS_DIR, f"job-{index:05d}.json")

    def quarantine_path(self, index: int) -> str:
        return os.path.join(self.root, QUARANTINE_DIR, f"job-{index:05d}.json")

    def manifest_path(self) -> str:
        return os.path.join(self.root, CAMPAIGN_FILE)

    # -- manifest ------------------------------------------------------
    def read_manifest(self) -> Optional[Dict[str, Any]]:
        path = self.manifest_path()
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return json.load(handle)

    def write_manifest(self, payload: Dict[str, Any]) -> None:
        atomic_write_json(self.manifest_path(), payload)

    # -- checkpoints ---------------------------------------------------
    def write_job(self, index: int, payload: Dict[str, Any]) -> None:
        atomic_write_json(self.job_path(index), payload)

    def write_job_raw(self, index: int, text: str) -> None:
        """Non-atomic raw write — exists only for injected corruption."""
        with open(self.job_path(index), "w") as handle:
            handle.write(text)

    def read_job(self, index: int) -> Optional[Dict[str, Any]]:
        """The persisted payload of a job, or ``None`` if absent.

        Parse errors propagate — the engine decides whether a torn
        payload means retry (it does) or abort.
        """
        path = self.job_path(index)
        if not os.path.exists(path):
            return None
        with open(path) as handle:
            return json.load(handle)

    def discard_job(self, index: int) -> None:
        try:
            os.unlink(self.job_path(index))
        except OSError:
            pass

    def write_quarantine(self, index: int, payload: Dict[str, Any]) -> None:
        atomic_write_json(self.quarantine_path(index), payload)
