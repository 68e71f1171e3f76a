"""Metrics exposition: hub, Prometheus text, healthz, HTTP server.

Includes the golden-text exposition test (a fixed snapshot must render
to an exact Prometheus document — catches accidental format drift).
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import Histogram, Telemetry
from repro.obs.exposition import (
    MetricsHub,
    MetricsServer,
    render_prometheus,
    render_top,
    sanitize_metric_name,
    sparkline,
)


class TestSanitize:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("opt.for_part_seconds", "repro_opt_for_part_seconds"),
            ("engine.job-time", "repro_engine_job_time"),
            ("weird name/чё", "repro_weird_name___"),
            ("already_ok", "repro_already_ok"),
        ],
    )
    def test_names(self, raw, expected):
        assert sanitize_metric_name(raw) == expected


def _golden_snapshot():
    hist = Histogram()
    for value in (0.5, 1.0, 2.0):
        hist.observe(value)
    return {
        "campaign": {
            "state": "running",
            "total": 8,
            "done": 3,
            "running": 2,
            "retried": 1,
            "quarantined": 0,
            "resumed": 0,
        },
        "pool": {"workers": 2, "busy": 1, "alive": 2, "arena_tables": 8},
        "counters": {"engine.jobs": 3, "opt.cache_hits": 10},
        "histograms": {"run.med": hist.to_dict()},
    }


class TestRenderPrometheus:
    def test_golden_text(self):
        text = render_prometheus(_golden_snapshot())
        b1 = Histogram.bucket_upper_bound(Histogram._index(0.5))
        b2 = Histogram.bucket_upper_bound(Histogram._index(1.0))
        b3 = Histogram.bucket_upper_bound(Histogram._index(2.0))
        expected = "\n".join(
            [
                "# TYPE repro_campaign_jobs gauge",
                'repro_campaign_jobs{state="total"} 8',
                'repro_campaign_jobs{state="done"} 3',
                'repro_campaign_jobs{state="running"} 2',
                'repro_campaign_jobs{state="retried"} 1',
                'repro_campaign_jobs{state="quarantined"} 0',
                'repro_campaign_jobs{state="resumed"} 0',
                "# TYPE repro_campaign_running gauge",
                "repro_campaign_running 1",
                "# TYPE repro_pool_workers gauge",
                'repro_pool_workers{state="total"} 2',
                'repro_pool_workers{state="alive"} 2',
                'repro_pool_workers{state="busy"} 1',
                "# TYPE repro_engine_jobs_total counter",
                "repro_engine_jobs_total 3",
                "# TYPE repro_opt_cache_hits_total counter",
                "repro_opt_cache_hits_total 10",
                "# TYPE repro_run_med histogram",
                'repro_run_med_bucket{le="%r"} 1' % b1,
                'repro_run_med_bucket{le="%r"} 2' % b2,
                'repro_run_med_bucket{le="%r"} 3' % b3,
                'repro_run_med_bucket{le="+Inf"} 3',
                "repro_run_med_sum 3.5",
                "repro_run_med_count 3",
                "",
            ]
        )
        assert text == expected

    def test_bucket_counts_are_cumulative_and_end_at_count(self):
        hist = Histogram()
        for value in (1e-6, 1e-3, 1e-3, 1.0):
            hist.observe(value)
        text = render_prometheus({"histograms": {"h": hist.to_dict()}})
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_h_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # the +Inf bucket equals the count

    def test_empty_snapshot_renders(self):
        assert render_prometheus({}) == "\n"


class TestHub:
    def test_healthz_degrades_on_quarantine(self):
        hub = MetricsHub()
        hub.campaign_update(state="running", total=4, quarantined=0)
        assert hub.healthz()["status"] == "ok"
        hub.campaign_update(quarantined=1)
        assert hub.healthz()["status"] == "degraded"

    def test_healthz_degrades_only_on_a_dead_worker(self):
        hub = MetricsHub()
        hub.campaign_update(state="running", total=4)
        hub.pool_update({"workers": 2, "busy": 2, "alive": 2, "arena_tables": 1})
        health = hub.healthz()
        # every worker busy is healthy, however long the jobs run
        assert health["status"] == "ok"
        assert health["pool"]["busy"] == 2
        hub.pool_update({"workers": 2, "busy": 1, "alive": 1, "arena_tables": 1})
        assert hub.healthz()["status"] == "degraded"

    def test_snapshot_holds_the_published_pool_block(self):
        hub = MetricsHub(Telemetry())
        assert hub.snapshot()["pool"] == {}
        stats = {"workers": 1, "busy": 0, "alive": 1, "arena_tables": 0}
        hub.pool_update(stats)
        stats["busy"] = 1  # the hub keeps its own copy
        snapshot = hub.snapshot()
        assert snapshot["pool"] == {
            "workers": 1, "busy": 0, "alive": 1, "arena_tables": 0
        }
        assert set(snapshot) == {
            "time", "uptime", "campaign", "pool", "counters", "histograms"
        }


class TestMetricsServer:
    def test_serves_metrics_healthz_state_and_404(self):
        telemetry = Telemetry()
        telemetry.incr("engine.jobs", 2)
        telemetry.observe("run.med", 12.5)
        hub = MetricsHub(telemetry)
        hub.campaign_update(state="running", total=4, done=1)
        with MetricsServer(hub, port=0) as server:
            with urllib.request.urlopen(f"{server.url}/metrics") as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4"
                )
                text = response.read().decode()
            assert "repro_engine_jobs_total 2" in text
            assert 'repro_run_med_bucket{le="+Inf"} 1' in text

            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                health = json.load(response)
            assert health["status"] == "ok"
            assert health["campaign"]["done"] == 1

            with urllib.request.urlopen(f"{server.url}/state") as response:
                state = json.load(response)
            assert state["campaign"]["total"] == 4
            assert state["counters"]["engine.jobs"] == 2

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{server.url}/nope")
            assert excinfo.value.code == 404


class TestTopRendering:
    def test_sparkline_width_and_blankness(self):
        hist = Histogram()
        assert sparkline(hist.to_dict(), width=10) == " " * 10
        for value in (1.0, 1.0, 100.0):
            hist.observe(value)
        line = sparkline(hist.to_dict(), width=10)
        assert len(line) == 10
        assert line.strip()  # something rendered

    def test_render_top_shows_campaign_and_histograms(self):
        hist = Histogram()
        hist.observe(10.0)
        frame = render_top(
            {
                "campaign": {
                    "state": "running",
                    "done": 2,
                    "total": 8,
                    "running": 1,
                    "experiment": "table2",
                },
                "pool": {"workers": 2, "busy": 1, "alive": 2},
                "histograms": {"run.med": hist.to_dict()},
            }
        )
        assert "2/8 done" in frame
        assert "experiment=table2" in frame
        assert "pool: 2 workers — 1 busy, 2 alive\n" in frame
        assert "run.med" in frame


class TestHardenedServer:
    def test_reuse_address_and_daemon_threads(self):
        from repro.obs.exposition import REQUEST_TIMEOUT, HardenedHTTPServer
        from repro.obs.exposition import _Handler

        assert HardenedHTTPServer.allow_reuse_address is True
        assert HardenedHTTPServer.daemon_threads is True
        assert HardenedHTTPServer.request_queue_size >= 16
        assert _Handler.timeout == REQUEST_TIMEOUT

    def test_port_rebinds_immediately_after_stop(self):
        # without SO_REUSEADDR a just-closed listening port lingers in
        # TIME_WAIT and an immediate restart fails with EADDRINUSE
        hub = MetricsHub(Telemetry())
        with MetricsServer(hub, port=0) as server:
            port = server.port
        with MetricsServer(hub, port=port) as server:
            assert server.port == port
            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                assert json.load(response)["status"] == "ok"

    def test_shutdown_does_not_wait_out_the_poll_interval(self):
        import threading
        import time

        from repro.obs.exposition import HardenedHTTPServer, _Handler

        server = HardenedHTTPServer(("127.0.0.1", 0), _Handler)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 60}, daemon=True
        )
        thread.start()
        try:
            time.sleep(0.2)  # let the loop block in its select
            started = time.monotonic()
            server.shutdown()
            assert time.monotonic() - started < 10
        finally:
            server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()

    def test_stalled_client_times_out_without_wedging_server(self):
        import socket

        hub = MetricsHub(Telemetry())
        with MetricsServer(hub, port=0, request_timeout=0.2) as server:
            stalled = socket.create_connection(("127.0.0.1", server.port))
            try:
                stalled.sendall(b"GET /metr")  # never finishes the request
                stalled.settimeout(5)
                # the per-connection timeout closes it from the server side
                assert stalled.recv(1024) == b""
            except ConnectionResetError:
                pass  # also an acceptable way for the close to surface
            finally:
                stalled.close()
            # and the server still answers well-formed requests
            with urllib.request.urlopen(f"{server.url}/healthz") as response:
                assert json.load(response)["status"] == "ok"
