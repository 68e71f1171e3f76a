"""End-to-end daemon tests: the differential harness of the serve PR.

The headline invariant, proven at every level here: an artifact served
over HTTP is byte-identical to what offline ``repro compile`` produces
— serially for all three request forms, under concurrent batched
load, across a daemon restart (served from the disk artifact cache),
and with a pool worker killed mid-flight.  Every daemon runs the warm
pool; most tests use one worker.
"""

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro import workloads
from repro.compile_api import budget_config, canonical_json
from repro.obs import exposition
from repro.serve.daemon import MAX_BODY_BYTES, ServeDaemon
from repro.serve.service import ServeConfig

from .conftest import (
    BENCHMARK_FINGERPRINT,
    assert_served_equals_offline,
    bench_doc,
    get_json,
    offline_twin,
    post_compile,
)


def pool_daemon(**overrides):
    """A daemon on a one-worker pool."""
    defaults = dict(jobs=1, batch_window=0.02)
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
        with pool_daemon() as daemon:
            status, envelope, raw = post_compile(daemon.url, doc)
        assert status == 200
        assert_served_equals_offline(envelope, twin)
        assert envelope["cached"] is False
        assert envelope["source"] == "computed"
        assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT
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
        with pool_daemon() as daemon:
            status, envelope, _ = post_compile(daemon.url, doc)
        assert status == 200
        assert_served_equals_offline(envelope, twin)
        assert envelope["artifact"]["target"]["name"] == "gray3"

    def test_spec_form_addresses_same_artifact_as_benchmark(self, telemetry):
        with pool_daemon() as daemon:
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
        with pool_daemon() as daemon:
            _, first, _ = post_compile(daemon.url, bench_doc())
            _, second, _ = post_compile(daemon.url, bench_doc())
        assert second["source"] == "memory"
        assert second["cached"] is True
        assert canonical_json(second["artifact"]) == canonical_json(
            first["artifact"]
        )


def raw_head(url, content_length, path="/compile"):
    """The request line and headers of a raw POST to ``path``."""
    address = urllib.parse.urlsplit(url)
    return (
        f"POST {path} HTTP/1.1\r\n"
        f"Host: {address.netloc}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {content_length}\r\n"
        "Connection: close\r\n\r\n"
    ).encode()


def raw_exchange(url, content_length, body, path="/compile"):
    """POST ``body`` to ``path`` under a literal ``Content-Length`` header
    over a raw socket, then half-close; returns ``(status, headers with
    lower-case names, body bytes)``."""
    address = urllib.parse.urlsplit(url)
    with socket.create_connection((address.hostname, address.port), 10) as sock:
        sock.sendall(raw_head(url, content_length, path) + body)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head, _, payload = response.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, payload


def raw_post(url, content_length, body, path="/compile"):
    """:func:`raw_exchange` without the headers: ``(status, body bytes)``."""
    status, _, payload = raw_exchange(url, content_length, body, path)
    return status, payload


class TestHttpSurface:
    def test_api_doc_health_metrics_state(self, telemetry):
        with pool_daemon() as daemon:
            doc = get_json(daemon.url, "/")
            assert "POST /compile" in doc["endpoints"]
            post_compile(daemon.url, bench_doc())
            health = get_json(daemon.url, "/healthz")
            assert health["status"] == "ok"
            state = get_json(daemon.url, "/state")
            assert "backend" not in state["serve"]
            assert state["serve"]["jobs"] == 1
            assert state["serve"]["completed"] == 1
            assert state["serve"]["cache"]["size"] == 1
            with urllib.request.urlopen(f"{daemon.url}/metrics") as response:
                text = response.read().decode()
        assert "repro_serve_requests_total 1" in text
        assert "repro_serve_request_seconds_bucket" in text

    def test_state_has_the_pool_block_from_the_first_answer(self, telemetry):
        with pool_daemon() as daemon:
            status, _, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            state = get_json(daemon.url, "/state")
        # one copy, the hub's, already idle when the answer went out
        assert state["pool"] == {
            "workers": 1, "busy": 0, "alive": 1, "arena_tables": 1
        }
        assert "pool" not in state["serve"]

    def test_healthz_stays_ok_through_a_long_compile(
        self, telemetry, monkeypatch
    ):
        # a busy worker once read "stale" (and the daemon "degraded")
        # after this many seconds; shrunk well below the compile's
        # length, it must not matter (raising=False: it no longer exists)
        window = 0.05
        monkeypatch.setattr(
            exposition, "WORKER_STALE_SECONDS", window, raising=False
        )
        doc = bench_doc(bits=12, budget="reduced")
        with pool_daemon() as daemon:
            answer = {}
            client = threading.Thread(
                target=lambda: answer.update(
                    response=post_compile(daemon.url, doc)
                )
            )
            readings = []
            client.start()
            while client.is_alive():
                readings.append(
                    (time.monotonic(), get_json(daemon.url, "/healthz"))
                )
                time.sleep(0.01)
            client.join()
        assert answer["response"][0] == 200
        assert all(h["status"] == "ok" for _, h in readings), readings
        busy = [t for t, h in readings if h["pool"]["busy"] == 1]
        assert busy and busy[-1] - busy[0] > window, (
            "the compile never outlasted the old staleness window"
        )

    def test_error_statuses(self, telemetry):
        with pool_daemon() as daemon:
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

    def test_deeply_nested_body_is_a_400_and_the_daemon_serves_on(
        self, telemetry
    ):
        # json.loads raises RecursionError, not a ValueError, on this
        with pool_daemon() as daemon:
            status, body, _ = post_compile(daemon.url, None, raw=b"[" * 200_000)
            assert status == 400 and "JSON" in body["error"]
            status, envelope, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT

    @pytest.mark.parametrize(
        "content_length",
        ["500", "abc", "-5"],
        ids=["longer-than-body", "not-a-number", "negative"],
    )
    def test_bad_content_length_is_a_400_and_the_daemon_serves_on(
        self, telemetry, content_length
    ):
        # a valid 28-byte body, sent whole, then the write side closed
        body = b'{"benchmark":"cos","bits":6}'
        with pool_daemon() as daemon:
            status, document = raw_post(daemon.url, content_length, body)
            assert status == 400, document
            status, envelope, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT

    @pytest.mark.parametrize(
        "path,content_length,body,status",
        [
            ("/compile", 28, b'{"benchmark":"\xffcos","bits":6}', 400),
            # the header alone: the daemon refuses before reading a byte
            ("/compile", MAX_BODY_BYTES + 1, b"", 413),
            ("/nope", 28, b'{"benchmark":"cos","bits":6}', 404),
        ],
        ids=["not-utf-8", "over-the-cap", "unknown-path"],
    )
    def test_bad_raw_request_is_refused_and_the_daemon_serves_on(
        self, telemetry, path, content_length, body, status
    ):
        with pool_daemon() as daemon:
            got, headers, document = raw_exchange(
                daemon.url, content_length, body, path
            )
            assert got == status, document
            # every refusal is an API error: JSON, never an HTML page
            assert headers["content-type"] == "application/json"
            assert json.loads(document)["error"]
            got, envelope, _ = post_compile(daemon.url, bench_doc())
            assert got == 200
            assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT

    def test_non_string_budget_is_a_400_and_the_daemon_serves_on(self, telemetry):
        # a list or object budget is a 400, not a dropped connection
        with pool_daemon() as daemon:
            for budget in (["x"], {}):
                status, body, _ = post_compile(daemon.url, bench_doc(budget=budget))
                assert status == 400 and "unknown budget" in body["error"]
            status, envelope, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT

    def test_rate_limit_429_with_retry_after(self, telemetry):
        with pool_daemon(rate=0.001, burst=1) as daemon:
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


class TestRobustness:
    """The daemon under a client burst and a stalled client."""

    def test_burst_past_the_rate_limit(self, telemetry):
        # one token every 4 s: the burst arrives well inside that
        burst, clients = 2, 8
        results = []
        lock = threading.Lock()

        def client():
            request = urllib.request.Request(
                f"{daemon.url}/compile",
                data=json.dumps(bench_doc()).encode(),
                headers={"Content-Type": "application/json"},
            )
            try:
                with urllib.request.urlopen(request, timeout=60) as response:
                    outcome = (response.status, dict(response.headers), response.read())
            except urllib.error.HTTPError as error:
                outcome = (error.code, dict(error.headers), error.read())
            with lock:
                results.append(outcome)

        with pool_daemon(rate=0.25, burst=burst) as daemon:
            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert len(results) == clients
            served = [r for r in results if r[0] == 200]
            refused = [r for r in results if r[0] != 200]
            assert len(served) == burst
            for body in (r[2] for r in served):
                assert json.loads(body)["fingerprint"] == BENCHMARK_FINGERPRINT
            refill = []
            for status, headers, body in refused:
                assert status == 429
                assert headers["Content-Type"] == "application/json"
                document = json.loads(body)
                assert document["error"] == "rate limited"
                assert int(headers["Retry-After"]) >= 1
                refill.append(document["retry_after"])
            assert telemetry.counters["serve.throttled"] == len(refused)
            # every refusal came before this point, so once the longest
            # wait has passed the bucket holds a token again
            time.sleep(max(refill) + 0.05)
            status, envelope, _ = post_compile(daemon.url, bench_doc())
            assert status == 200
            assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT
            assert telemetry.counters["serve.throttled"] == len(refused)

    def test_stalled_client_does_not_block_a_good_request(self, telemetry):
        body = b'{"benchmark":"cos","bits":6}'
        with pool_daemon() as daemon:
            address = urllib.parse.urlsplit(daemon.url)
            slow = socket.create_connection((address.hostname, address.port), 10)
            try:
                # the headers and part of the body, then nothing
                slow.sendall(raw_head(daemon.url, len(body)) + body[:10])
                status, envelope, _ = post_compile(daemon.url, bench_doc())
                assert status == 200
                assert envelope["fingerprint"] == BENCHMARK_FINGERPRINT
                # the stalled request is still waiting for its body
                slow.setblocking(False)
                with pytest.raises(BlockingIOError):
                    slow.recv(1)
            finally:
                slow.close()
            status, envelope, _ = post_compile(daemon.url, bench_doc())
            assert status == 200


class TestConcurrentLoad:
    def test_sixteen_clients_mixed_hit_miss_with_batching(self, telemetry):
        # 16 threads over 4 distinct fingerprints: coalescing collapses
        # duplicates, the window batches the distinct jobs, and a
        # second wave is served entirely from memory.
        seeds = [0, 1, 2, 3]
        docs = {seed: bench_doc(seed=seed) for seed in seeds}
        twins = {seed: offline_twin(docs[seed]) for seed in seeds}
        with pool_daemon(batch_window=0.3, max_batch=16) as daemon:
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
        with pool_daemon(artifact_dir=artifact_dir) as daemon:
            status, first, _ = post_compile(daemon.url, doc)
            assert status == 200
            assert first["source"] == "computed"

        # fresh daemon, empty memory cache: the disk artifact cache is
        # what answers, then the promoted entry serves from memory
        with pool_daemon(artifact_dir=artifact_dir) as daemon:
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
        (artifact_dir / f"{BENCHMARK_FINGERPRINT}.json").write_bytes(content)
        doc = bench_doc()
        with pool_daemon(artifact_dir=str(artifact_dir)) as daemon:
            status, first, _ = post_compile(daemon.url, doc)
            assert status == 200
            assert first["source"] == "computed"
            assert get_json(daemon.url, "/state")["serve"]["completed"] == 1

        # the recompute replaced the corrupt file: a restarted daemon
        # serves the same artifact from disk
        with pool_daemon(artifact_dir=str(artifact_dir)) as daemon:
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
        config = ServeConfig(jobs=2, batch_window=0.3, max_batch=16)
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
        assert state["serve"]["jobs"] == 2
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
        config = ServeConfig(jobs=2, batch_window=0.3, max_batch=16)
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


class TestCliSigterm:
    def test_sigterm_shuts_down_cleanly(self):
        """``kill <pid>`` stops ``repro serve`` like Ctrl-C: exit 0, the
        pool closed and the table arena's shared memory unlinked."""
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        daemon = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--jobs", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            first = daemon.stdout.readline()
            assert "listening on" in first, first
            url = first.split("listening on ", 1)[1].split()[0]
            # a compile puts a table into the arena's shared memory
            status, _, _ = post_compile(url, bench_doc())
            assert status == 200
            daemon.send_signal(signal.SIGTERM)
            out, err = daemon.communicate(timeout=60)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert daemon.returncode == 0, err
        assert "shutting down" in out
        assert "leaked shared_memory" not in err, err
