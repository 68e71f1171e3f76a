"""Artifact cache: memory LRU, disk layer, promotion, integrity."""

import json
import threading

import pytest

from repro.serve.cache import ArtifactCache


def payload_for(key: str) -> dict:
    return {"fingerprint": key, "med": 1.5, "verilog": f"// {key}"}


class TestMemoryLayer:
    def test_miss_then_hit(self):
        cache = ArtifactCache(capacity=4)
        assert cache.get("k1") is None
        cache.put("k1", payload_for("k1"))
        payload, layer = cache.get("k1")
        assert layer == "memory"
        assert payload == payload_for("k1")
        assert len(cache) == 1

    def test_lru_eviction(self):
        cache = ArtifactCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.put(key, payload_for(key))
        assert cache.get("a") is None  # oldest evicted
        assert cache.get("c") is not None
        assert cache.stats()["evictions"] == 1


class TestDiskLayer:
    def test_write_read_promote(self, tmp_path):
        cache = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        cache.put("k1", payload_for("k1"))
        assert (tmp_path / "k1.json").exists()

        fresh = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        payload, layer = fresh.get("k1")
        assert layer == "disk"
        assert payload == payload_for("k1")
        # promoted: the next lookup is a memory hit
        assert fresh.get("k1")[1] == "memory"
        assert fresh.stats()["disk_hits"] == 1

    def test_disk_write_is_idempotent(self, tmp_path):
        cache = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        cache.put("k1", payload_for("k1"))
        cache.put("k1", payload_for("k1"))
        assert cache.stats()["disk_writes"] == 1

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        # a renamed or corrupted file must never serve a wrong artifact
        (tmp_path / "k2.json").write_text(json.dumps(payload_for("other")))
        (tmp_path / "k3.json").write_text("{not json")
        cache = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        assert cache.get("k2") is None
        assert cache.get("k3") is None

    @pytest.mark.parametrize(
        "content",
        [
            b"\xff\xfe\x00 not utf-8",
            b"[" * 100_000,
            json.dumps(payload_for("other")).encode(),
        ],
        ids=["non-utf8", "deep-nesting", "wrong-fingerprint"],
    )
    def test_unusable_file_is_a_miss_then_repaired(self, tmp_path, content):
        path = tmp_path / "k1.json"
        path.write_bytes(content)
        cache = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        assert cache.get("k1") is None
        cache.put("k1", payload_for("k1"))
        assert cache.stats()["disk_writes"] == 1
        assert json.loads(path.read_text()) == payload_for("k1")
        restarted = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        assert restarted.get("k1") == (payload_for("k1"), "disk")

    def test_disk_survives_restart_byte_identical(self, tmp_path):
        first = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        first.put("k1", payload_for("k1"))
        stored = (tmp_path / "k1.json").read_text()
        second = ArtifactCache(capacity=4, artifact_dir=str(tmp_path))
        payload, _ = second.get("k1")
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            json.loads(stored), sort_keys=True
        )


class TestConcurrency:
    def test_thread_hammer(self, tmp_path):
        cache = ArtifactCache(capacity=8, artifact_dir=str(tmp_path))
        keys = [f"k{i}" for i in range(16)]
        errors = []

        def worker():
            try:
                for _ in range(50):
                    for key in keys:
                        cache.put(key, payload_for(key))
                        hit = cache.get(key)
                        if hit is not None:
                            assert hit[0]["fingerprint"] == key
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = cache.stats()
        assert stats["size"] <= 8
