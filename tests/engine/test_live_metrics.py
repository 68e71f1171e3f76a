"""Live campaign telemetry: /metrics mid-run, the published pool
block, and the telemetry-on/off differential.

The acceptance tests of the observability layer: a pool campaign with
``metrics_port`` must serve a non-final ``/healthz`` + ``/metrics``
view *while jobs are still running*, with the pool's counts as the
engine publishes them, and — the invariant everything else rests on —
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
from repro.experiments.runner import ExperimentScale, repeat_specs
from repro.experiments.table2 import run_table2
from repro.obs import exposition


def _specs(n_runs=2, n_inputs=6, base_seed=7):
    target = workloads.get("cos", n_inputs=n_inputs)
    return repeat_specs(
        "dalta", target, AlgorithmConfig.fast(), n_runs, base_seed
    )


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


class TestPoolBlockMidCampaign:
    def test_busy_workers_read_healthy(self, tmp_path, monkeypatch):
        # a worker once went "stale" after this many seconds without a
        # mid-job report; shrunk below a job's length, it must not
        # matter (raising=False: the attribute no longer exists)
        monkeypatch.setattr(
            exposition, "WORKER_STALE_SECONDS", 0.001, raising=False
        )
        engine = Engine(config=EngineConfig(n_jobs=1, metrics_port=0))
        scrapes = []
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
                scrapes.append((health, text))
                time.sleep(0.01)

        thread = threading.Thread(target=probe)
        thread.start()
        try:
            outcome = engine.run(_specs(n_runs=4, n_inputs=7, base_seed=5))
        finally:
            done.set()
            thread.join(timeout=10)
        assert outcome.complete
        busy = [h for h, _ in scrapes if h["pool"].get("busy") == 1]
        assert busy, f"no scrape saw the worker busy: {scrapes[:3]}"
        assert all(h["status"] == "ok" for h, _ in scrapes), scrapes
        assert all(h["pool"]["workers"] == 1 for h in busy)
        assert any(
            'repro_pool_workers{state="busy"} 1' in text for _, text in scrapes
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
