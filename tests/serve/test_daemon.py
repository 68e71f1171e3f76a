"""End-to-end daemon tests: the differential harness of the serve PR.

The headline invariant, proven at every level here: an artifact served
over HTTP is byte-identical to what offline ``repro compile`` produces
— serially for all three request forms, under concurrent batched
load, across a daemon restart (served from the disk artifact cache),
and on the warm-pool backend with a worker killed mid-flight.
"""

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import workloads
from repro.compile_api import budget_config, canonical_json
from repro.serve.daemon import ServeDaemon
from repro.serve.service import ServeConfig

from .conftest import (
    BENCH_FINGERPRINT,
    assert_served_equals_offline,
    bench_doc,
    get_json,
    offline_twin,
    post_compile,
)


def inline_daemon(**overrides):
    defaults = dict(backend="inline", jobs=1, batch_window=0.02)
    defaults.update(overrides)
    return ServeDaemon(ServeConfig(**defaults), port=0)


def spec_doc_for_cos6(seed: int = 7) -> dict:
    """The spec-form twin of ``bench_doc(seed)`` (same fingerprint)."""
    target = workloads.get("cos", n_inputs=6)
    return {
        "spec": {
            "algorithm": "bs-sa",
            "table": [int(value) for value in target.table],
            "n_inputs": 6,
            "n_outputs": target.n_outputs,
            "name": target.name,
            "config": dataclasses.asdict(budget_config("fast", seed)),
            "architecture": "bto-normal-nd",
            "direct_seed": seed,
        }
    }


class TestGoldenResponses:
    def test_benchmark_form_byte_identical_to_offline(self, telemetry):
        doc = bench_doc()
        twin = offline_twin(doc)
        with inline_daemon() as daemon:
            status, envelope, raw = post_compile(daemon.url, doc)
        assert status == 200
        assert_served_equals_offline(envelope, twin)
        assert envelope["cached"] is False
        assert envelope["source"] == "computed"
        assert envelope["fingerprint"] == BENCH_FINGERPRINT
        assert envelope["artifact"]["med"] == twin["med"]
        assert envelope["artifact"]["verilog"] == twin["verilog"]
        # stable field order: the body is exactly the sorted-key dump
        assert raw == (json.dumps(envelope, sort_keys=True) + "\n").encode()

    def test_table_form_byte_identical_to_offline(self, telemetry):
        doc = {
            "table": [0, 1, 3, 2, 6, 7, 5, 4],
            "n_outputs": 3,
            "name": "gray3",
            "budget": "fast",
        }
        twin = offline_twin(doc)
        with inline_daemon() as daemon:
            status, envelope, _ = post_compile(daemon.url, doc)
        assert status == 200
        assert_served_equals_offline(envelope, twin)
        assert envelope["artifact"]["target"]["name"] == "gray3"

    def test_spec_form_addresses_same_artifact_as_benchmark(self, telemetry):
        with inline_daemon() as daemon:
            status, bench_env, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            status, spec_env, _ = post_compile(daemon.url, spec_doc_for_cos6())
            assert status == 200
        # the replayed spec hits the cache entry the benchmark filled
        assert spec_env["fingerprint"] == bench_env["fingerprint"]
        assert spec_env["cached"] is True
        assert spec_env["source"] == "memory"
        assert canonical_json(spec_env["artifact"]) == canonical_json(
            bench_env["artifact"]
        )

    def test_repeat_request_is_memory_hit(self, telemetry):
        with inline_daemon() as daemon:
            _, first, _ = post_compile(daemon.url, bench_doc())
            _, second, _ = post_compile(daemon.url, bench_doc())
        assert second["source"] == "memory"
        assert second["cached"] is True
        assert canonical_json(second["artifact"]) == canonical_json(
            first["artifact"]
        )


class TestHttpSurface:
    def test_api_doc_health_metrics_state(self, telemetry):
        with inline_daemon() as daemon:
            doc = get_json(daemon.url, "/")
            assert "POST /compile" in doc["endpoints"]
            post_compile(daemon.url, bench_doc())
            health = get_json(daemon.url, "/healthz")
            assert health["status"] == "ok"
            state = get_json(daemon.url, "/state")
            assert state["serve"]["backend"] == "inline"
            assert state["serve"]["completed"] == 1
            assert state["serve"]["cache"]["size"] == 1
            with urllib.request.urlopen(f"{daemon.url}/metrics") as response:
                text = response.read().decode()
        assert "repro_serve_requests_total 1" in text
        assert "repro_serve_request_seconds_bucket" in text

    def test_error_statuses(self, telemetry):
        with inline_daemon() as daemon:
            status, body, _ = post_compile(
                daemon.url, None, raw=b"{not json"
            )
            assert status == 400 and "JSON" in body["error"]
            status, body, _ = post_compile(daemon.url, {"benchmark": "fft"})
            assert status == 404
            status, body, _ = post_compile(daemon.url, [1, 2, 3])
            assert status == 400
            request = urllib.request.Request(
                f"{daemon.url}/nope", data=b"{}", method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 404

    def test_rate_limit_429_with_retry_after(self, telemetry):
        with inline_daemon(rate=0.001, burst=1) as daemon:
            status, _, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            request = urllib.request.Request(
                f"{daemon.url}/compile",
                data=json.dumps(bench_doc()).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
        assert excinfo.value.code == 429
        assert int(excinfo.value.headers["Retry-After"]) >= 1
        body = json.loads(excinfo.value.read())
        assert body["retry_after"] > 0
        assert telemetry.counters["serve.throttled"] == 1


class TestConcurrentLoad:
    def test_sixteen_clients_mixed_hit_miss_with_batching(self, telemetry):
        # 16 threads over 4 distinct fingerprints: coalescing collapses
        # duplicates, the window batches the distinct jobs, and a
        # second wave is served entirely from memory.
        seeds = [0, 1, 2, 3]
        docs = {seed: bench_doc(seed=seed) for seed in seeds}
        twins = {seed: offline_twin(docs[seed]) for seed in seeds}
        with inline_daemon(batch_window=0.3, max_batch=16) as daemon:
            barrier = threading.Barrier(16)
            responses = {}

            def client(slot):
                seed = seeds[slot % len(seeds)]
                barrier.wait()
                responses[slot] = (seed, *post_compile(daemon.url, docs[seed]))

            threads = [
                threading.Thread(target=client, args=(slot,))
                for slot in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert len(responses) == 16
            for seed, status, envelope, _raw in responses.values():
                assert status == 200
                assert_served_equals_offline(envelope, twins[seed])

            # second wave: every artifact now comes from memory
            for seed in seeds:
                _, envelope, _ = post_compile(daemon.url, docs[seed])
                assert envelope["source"] == "memory"
                assert_served_equals_offline(envelope, twins[seed])

        counters = telemetry.counters
        assert counters["serve.requests"] == 20
        assert counters["serve.executed"] == 4  # one compile per seed
        assert counters["serve.batched_jobs"] > 0  # batching engaged
        assert counters.get("serve.coalesced", 0) + counters.get(
            "serve.cache_hit", 0
        ) >= 16  # every duplicate shared or hit


class TestRestart:
    def test_restart_serves_byte_identical_from_disk(self, telemetry, tmp_path):
        artifact_dir = str(tmp_path / "artifacts")
        doc = bench_doc()
        with inline_daemon(artifact_dir=artifact_dir) as daemon:
            status, first, _ = post_compile(daemon.url, doc)
            assert status == 200
            assert first["source"] == "computed"

        # fresh daemon, empty memory cache: the disk artifact cache is
        # what answers, then the promoted entry serves from memory
        with inline_daemon(artifact_dir=artifact_dir) as daemon:
            status, second, _ = post_compile(daemon.url, doc)
            assert status == 200
            assert second["source"] == "disk"
            assert second["cached"] is True
            status, third, _ = post_compile(daemon.url, doc)
            assert third["source"] == "memory"
        assert canonical_json(second["artifact"]) == canonical_json(
            first["artifact"]
        )
        assert canonical_json(third["artifact"]) == canonical_json(
            first["artifact"]
        )
        assert telemetry.counters["serve.artifact_disk_hit"] == 1
        assert telemetry.counters["serve.artifact_disk_write"] == 1

    @pytest.mark.parametrize(
        "content",
        [b"\xff\xfe\x00 not utf-8", b"[" * 100_000],
        ids=["non-utf8", "deep-nesting"],
    )
    def test_corrupt_disk_file_is_recomputed_and_repaired(
        self, telemetry, tmp_path, content
    ):
        artifact_dir = tmp_path / "artifacts"
        artifact_dir.mkdir()
        (artifact_dir / f"{BENCH_FINGERPRINT}.json").write_bytes(content)
        doc = bench_doc()
        with inline_daemon(artifact_dir=str(artifact_dir)) as daemon:
            status, first, _ = post_compile(daemon.url, doc)
            assert status == 200
            assert first["source"] == "computed"
            assert get_json(daemon.url, "/state")["serve"]["completed"] == 1

        # the recompute replaced the corrupt file: a restarted daemon
        # serves the same artifact from disk
        with inline_daemon(artifact_dir=str(artifact_dir)) as daemon:
            status, second, _ = post_compile(daemon.url, doc)
            assert status == 200
            assert second["source"] == "disk"
        assert canonical_json(second["artifact"]) == canonical_json(
            first["artifact"]
        )
        assert_served_equals_offline(second, offline_twin(doc))


class TestPoolBackend:
    def test_pool_serves_byte_identical_under_concurrency(self, telemetry):
        seeds = [0, 1, 2, 3, 4, 5]
        docs = {seed: bench_doc(seed=seed) for seed in seeds}
        twins = {seed: offline_twin(docs[seed]) for seed in seeds}
        config = ServeConfig(
            backend="pool", jobs=2, batch_window=0.3, max_batch=16
        )
        with ServeDaemon(config, port=0) as daemon:
            barrier = threading.Barrier(len(seeds))
            responses = {}

            def client(seed):
                barrier.wait()
                responses[seed] = post_compile(daemon.url, docs[seed])

            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            for seed in seeds:
                status, envelope, _ = responses[seed]
                assert status == 200
                assert_served_equals_offline(envelope, twins[seed])
            state = get_json(daemon.url, "/state")
        assert state["serve"]["backend"] == "pool"
        assert telemetry.counters["serve.batched_jobs"] > 0
        # a batch wider than the two idle workers still dispatches job
        # by job: one pool job per distinct request, none retried
        assert telemetry.counters["pool.jobs"] == len(seeds)
        assert telemetry.counters.get("serve.retries", 0) == 0

    @pytest.mark.chaos
    def test_worker_kill_mid_batch_still_byte_identical(self, telemetry):
        seeds = [0, 1, 2, 3, 4, 5]
        docs = {seed: bench_doc(seed=seed, bits=8) for seed in seeds}
        twins = {seed: offline_twin(docs[seed]) for seed in seeds}
        config = ServeConfig(
            backend="pool", jobs=2, batch_window=0.3, max_batch=16
        )
        with ServeDaemon(config, port=0) as daemon:
            barrier = threading.Barrier(len(seeds) + 1)
            responses = {}

            def client(seed):
                barrier.wait()
                responses[seed] = post_compile(daemon.url, docs[seed])

            threads = [
                threading.Thread(target=client, args=(seed,))
                for seed in seeds
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            # give the dispatcher time to put jobs on workers, then
            # kill one mid-flight; the pool replaces it and the
            # service retries the lost job
            killed = False
            for _ in range(100):
                workers = daemon.service._pool._workers
                busy = [w for w in workers if w.job is not None]
                if busy:
                    busy[0].process.kill()
                    killed = True
                    break
                time.sleep(0.01)
            for thread in threads:
                thread.join()

            assert killed, "no worker was ever busy — test is vacuous"
            for seed in seeds:
                status, envelope, _ = responses[seed]
                assert status == 200
                assert_served_equals_offline(envelope, twins[seed])
            health = get_json(daemon.url, "/healthz")
        assert health["status"] == "ok"
        assert telemetry.counters.get("serve.retries", 0) >= 1
