"""CompileService: coalescing, batching, caching, failure paths.

These tests exploit the fact that ``submit()`` works before
``start()`` — jobs buffer in the queue — so batching and coalescing
are deterministic: everything submitted up front lands in one batch
once the dispatcher spins up.
"""

import time

import pytest

from repro.experiments.parallel import RunSpec
from repro.serve.schema import parse_compile_request
from repro.serve.service import (
    CompileService,
    ServeConfig,
    ServiceError,
)

from .conftest import bench_doc, offline_twin


def inline_config(**overrides):
    defaults = dict(backend="inline", jobs=1, batch_window=0.05)
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="backend"):
            ServeConfig(backend="threads")
        with pytest.raises(ValueError, match="jobs"):
            ServeConfig(jobs=0)
        with pytest.raises(ValueError, match="rate"):
            ServeConfig(rate=0)
        with pytest.raises(ValueError, match="cache_size"):
            ServeConfig(cache_size=0)


class TestInlineService:
    def test_coalesce_batch_and_cache(self, telemetry):
        service = CompileService(inline_config())
        distinct = [parse_compile_request(bench_doc(seed=s)) for s in (0, 1)]
        duplicate = parse_compile_request(bench_doc(seed=0))

        futures = [service.submit(r) for r in distinct]
        futures.append(service.submit(duplicate))  # coalesces onto seed 0
        with service:
            results = [f.result(timeout=60) for f in futures]

        sources = [source for _, source in results]
        assert sources == ["computed", "computed", "coalesced"]
        # the coalesced request shares the seed-0 payload byte for byte
        assert results[2][0] == results[0][0]
        assert results[0][0] != results[1][0]

        counters = telemetry.counters
        assert counters["serve.requests"] == 3
        assert counters["serve.coalesced"] == 1
        assert counters["serve.batches"] == 1
        assert counters["serve.batched_jobs"] == 2  # two distinct jobs
        assert counters["serve.executed"] == 2

    def test_cache_hit_after_completion(self, telemetry):
        with CompileService(inline_config()) as service:
            first = service.submit(parse_compile_request(bench_doc()))
            payload, source = first.result(timeout=60)
            assert source == "computed"
            second = service.submit(parse_compile_request(bench_doc()))
            hit_payload, hit_source = second.result(timeout=5)
        assert hit_source == "memory"
        assert hit_payload == payload
        assert service.cache.stats()["hits"] == 1

    def test_served_equals_offline(self, telemetry):
        doc = bench_doc(seed=5)
        with CompileService(inline_config()) as service:
            payload, _ = service.submit(
                parse_compile_request(doc)
            ).result(timeout=60)
        assert payload == offline_twin(doc)

    def test_state_snapshot(self, telemetry):
        with CompileService(inline_config()) as service:
            service.submit(parse_compile_request(bench_doc())).result(60)
            state = service.state()
        assert state["backend"] == "inline"
        assert state["requests"] == 1
        assert state["completed"] == 1
        assert state["failed"] == 0
        assert state["cache"]["size"] == 1
        assert "pool" not in state  # inline backend has no pool block

    def test_compile_failure_is_500(self, telemetry, monkeypatch):
        request = parse_compile_request(bench_doc(seed=9))
        monkeypatch.setattr(
            RunSpec,
            "execute",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with CompileService(inline_config()) as service:
            future = service.submit(request)
            with pytest.raises(ServiceError) as excinfo:
                future.result(timeout=30)
        assert excinfo.value.status == 500
        assert "boom" in str(excinfo.value)
        assert telemetry.counters["serve.failed_requests"] == 1
        assert service.state()["failed"] == 1

    def test_submit_after_stop_is_503(self, telemetry):
        service = CompileService(inline_config())
        service._stopping.set()
        future = service.submit(parse_compile_request(bench_doc()))
        with pytest.raises(ServiceError) as excinfo:
            future.result(timeout=1)
        assert excinfo.value.status == 503

    def test_stop_fails_queued_jobs(self, telemetry):
        service = CompileService(inline_config())
        # never started: enqueue, then run the shutdown drain directly
        future = service.submit(parse_compile_request(bench_doc(seed=2)))
        service._stopping.set()
        service._thread = None
        job = service._queue.get_nowait()
        service._finish_error(job, 503, "server shutting down")
        with pytest.raises(ServiceError) as excinfo:
            future.result(timeout=1)
        assert excinfo.value.status == 503

    def test_stop_wakes_a_gathering_dispatcher(self, telemetry):
        """stop() cuts a batch window short: the jobs queued ahead of it
        still run, and the dispatcher ends without waiting out the
        window."""
        service = CompileService(inline_config(batch_window=60.0)).start()
        future = service.submit(parse_compile_request(bench_doc(seed=3)))
        started = time.monotonic()
        service.stop()
        assert time.monotonic() - started < 10
        _, source = future.result(timeout=1)
        assert source == "computed"

    def test_future_timeout_is_504(self, telemetry):
        service = CompileService(inline_config())
        future = service.submit(parse_compile_request(bench_doc()))
        with pytest.raises(ServiceError) as excinfo:
            future.result(timeout=0.01)  # dispatcher never started
        assert excinfo.value.status == 504

    def test_max_batch_splits_batches(self, telemetry):
        config = inline_config(max_batch=2, batch_window=0.2)
        service = CompileService(config)
        futures = [
            service.submit(parse_compile_request(bench_doc(seed=s)))
            for s in (10, 11, 12)
        ]
        with service:
            for future in futures:
                future.result(timeout=120)
        assert telemetry.counters["serve.batches"] == 2
        assert telemetry.histograms["serve.batch_size"].count == 2
