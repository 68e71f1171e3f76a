"""Unit tests for the campaign checkpoint store.

Covers the :class:`LocalStore` directory layout, checkpoint
round-trips, the raw write the ``corrupt`` fault uses, and quarantine
records.  Crash safety across a SIGKILL lives in ``test_resume_kill.py``.
"""

import json
import os

import pytest

from repro.experiments.store import LocalStore


class TestLocalStore:
    def test_layout_and_roundtrip(self, tmp_path):
        store = LocalStore(str(tmp_path))
        store.prepare()
        assert os.path.isdir(tmp_path / "jobs")
        assert os.path.isdir(tmp_path / "quarantine")
        assert store.read_job(0) is None
        store.write_job(3, {"med": 1.5, "elapsed_seconds": 0.1})
        assert store.read_job(3) == {"med": 1.5, "elapsed_seconds": 0.1}
        store.discard_job(3)
        assert store.read_job(3) is None

    def test_corrupt_checkpoint_raises_for_caller_to_discard(self, tmp_path):
        store = LocalStore(str(tmp_path))
        store.prepare()
        store.write_job_raw(0, "{not json")
        with pytest.raises(ValueError):
            store.read_job(0)

    def test_quarantine_write(self, tmp_path):
        store = LocalStore(str(tmp_path))
        store.prepare()
        store.write_quarantine(1, {"reason": "crash", "attempts": 3})
        with open(store.quarantine_path(1)) as handle:
            assert json.load(handle)["reason"] == "crash"
