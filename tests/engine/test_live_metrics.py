"""Live campaign telemetry: streaming workers, /metrics mid-run, and
the telemetry-on/off differential.

The acceptance tests of the observability layer: a pool campaign with
``metrics_port`` must serve a non-final ``/healthz`` + ``/metrics``
view *while jobs are still running*, worker-streamed histograms must
reach the hub mid-job, and — the invariant everything else rests on —
enabling all of it must not move a single output bit.
"""

import json
import threading
import time
import urllib.request

from repro import obs, workloads
from repro.core.config import AlgorithmConfig
from repro.experiments.engine import (
    Engine,
    EngineConfig,
    run_experiment_campaign,
)
from repro.experiments.pool import WorkerPool
from repro.experiments.runner import ExperimentScale, repeat_specs
from repro.experiments.table2 import run_table2
from repro.obs import exposition


def _specs(n_runs=2, n_inputs=6, base_seed=7):
    target = workloads.get("cos", n_inputs=n_inputs)
    return repeat_specs(
        "dalta", target, AlgorithmConfig.fast(), n_runs, base_seed
    )


def _run(pool, specs):
    """Run every spec on ``pool``; the payloads in spec order."""
    payloads = [None] * len(specs)
    pending = list(range(len(specs)))
    while any(payload is None for payload in payloads):
        while pending and pool.has_idle():
            index = pending.pop(0)
            pool.submit(index, specs[index])
        for event in pool.wait(0.05):
            assert event.kind == "ok", event
            payloads[event.index] = event.payload
    return payloads


class TestWorkerStreaming:
    def test_streamed_snapshots_reach_the_hub(self):
        hub = exposition.MetricsHub()
        with exposition.activated(hub):
            pool = WorkerPool(
                1, capture_telemetry=True, metrics_interval=0.002
            )
            try:
                _run(pool, _specs(n_runs=3, n_inputs=7))
            finally:
                pool.close()
        assert hub.stream_reports > 0
        snapshot = hub.snapshot()
        # every in-flight snapshot was dropped at job completion
        assert all(
            entry["job"] is None for entry in snapshot["workers"].values()
        )

    def test_streaming_does_not_change_results(self):
        specs = _specs(n_runs=2, n_inputs=6)

        def _meds(metrics_interval):
            hub = exposition.MetricsHub()
            with exposition.activated(hub):
                pool = WorkerPool(
                    1,
                    capture_telemetry=True,
                    metrics_interval=metrics_interval,
                )
                try:
                    payloads = _run(pool, specs)
                finally:
                    pool.close()
            return [payload["med"] for payload in payloads]

        assert _meds(None) == _meds(0.002)


class TestLiveEndpointMidCampaign:
    def test_healthz_shows_nonfinal_state_while_running(self, tmp_path):
        specs = _specs(n_runs=6, n_inputs=7, base_seed=11)
        engine = Engine(
            campaign_dir=str(tmp_path / "camp"),
            config=EngineConfig(n_jobs=1, metrics_port=0),
        )
        probes = []
        done = threading.Event()

        def probe():
            while engine.metrics_address is None and not done.is_set():
                time.sleep(0.005)
            while not done.is_set():
                host, port = engine.metrics_address
                try:
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/healthz", timeout=2
                    ) as response:
                        health = json.load(response)
                    with urllib.request.urlopen(
                        f"http://{host}:{port}/metrics", timeout=2
                    ) as response:
                        text = response.read().decode()
                except OSError:
                    break  # server already stopped — campaign drained
                probes.append((health, text))
                time.sleep(0.02)

        thread = threading.Thread(target=probe)
        thread.start()
        try:
            outcome = engine.run(specs)
        finally:
            done.set()
            thread.join(timeout=10)
        assert outcome.complete
        assert probes, "no scrape landed while the campaign ran"
        campaigns = [health["campaign"] for health, _ in probes]
        assert any(
            c["state"] == "running" and c["done"] < c["total"]
            for c in campaigns
        ), f"every scrape saw final state: {campaigns}"
        # the Prometheus view carries the campaign gauges too
        assert any(
            'repro_campaign_jobs{state="total"} 6' in text
            for _, text in probes
        )


class TestTelemetryDifferential:
    def test_campaign_results_identical_with_and_without_exposition(
        self, tmp_path
    ):
        base_seed = 3
        plain = run_table2(ExperimentScale.smoke(), base_seed=base_seed)

        sink = obs.MemorySink()
        with obs.session(sink):
            observed, outcome = run_experiment_campaign(
                "table2",
                "smoke",
                base_seed=base_seed,
                campaign_dir=str(tmp_path / "camp"),
                config=EngineConfig(n_jobs=2, metrics_port=0),
            )
        assert outcome.complete

        def _strip_times(result):
            payload = json.loads(
                json.dumps(result.as_dict(), sort_keys=True)
            )
            for row in payload["rows"]:
                row["dalta_time"] = 0.0
                row["bssa_time"] = 0.0
            for key in list(payload["geomeans"]):
                if key.endswith("_time"):
                    payload["geomeans"][key] = 0.0
            payload["improvement"].pop("time", None)
            return payload

        assert _strip_times(plain) == _strip_times(observed), (
            "live metrics exposition changed the campaign outputs"
        )
