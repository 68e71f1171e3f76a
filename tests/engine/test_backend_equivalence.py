"""Differential equivalence of the campaign execution backends.

One smoke-scale Table-II campaign is executed four ways — (a) serial
(no engine), (b) per-job spawn engine, (c) warm pool, (d) warm pool
with a pre-populated disk memo — and must produce byte-identical MEDs
(every statistic except wall-clock timings) and identical run
manifests modulo timings and cache-warmth counters.  This is the
acceptance test of the warm-pool backend: persistent workers, the
shared-memory table transport, and the campaign-shared OptForPart memo
may change *when* things are computed, never *what*.

The kernel implementation adds a second axis: every backend must
produce the same bytes whether ``REPRO_FAST_PATHS`` is on (production:
the exact sweep, the default exercised by the suite above) or off (the
serial reference) — including a chaos-marked SIGKILL-and-resume in
production, whose resumed results must match a fault-free run of the
reference.
"""

import json
import os
import signal
import subprocess
import sys

import pytest

from repro import caching, obs
from repro.experiments.engine import (
    EngineConfig,
    campaign_status,
    resume_campaign,
    run_experiment_campaign,
)
from repro.experiments.runner import ExperimentScale
from repro.experiments.table2 import run_table2
from repro.faults import ENV_VAR, FaultPlan

_BASE_SEED = 3


def _strip_times(result_dict):
    """Table-II payload with every wall-clock-derived field zeroed."""
    payload = json.loads(json.dumps(result_dict, sort_keys=True))
    for row in payload["rows"]:
        row["dalta_time"] = 0.0
        row["bssa_time"] = 0.0
    for key in list(payload["geomeans"]):
        if key.endswith("_time"):
            payload["geomeans"][key] = 0.0
    payload["improvement"].pop("time", None)
    return payload


def _campaign(tmp_path, name, config):
    sink = obs.MemorySink()
    with obs.session(sink):
        result, outcome = run_experiment_campaign(
            "table2",
            "smoke",
            base_seed=_BASE_SEED,
            campaign_dir=str(tmp_path / name),
            config=config,
        )
    assert outcome.complete, f"{name} campaign incomplete"
    return result, sink


def _manifest(sink):
    """A run manifest modulo timings and cache-warmth counters.

    Phase timings and ``cache.*`` / ``opt.*`` / ``pool.*`` counters
    legitimately differ with backend and memo warmth (a memo hit skips
    the counted inner work); everything identity-bearing — command,
    config hash, base seed, every spawned seed record, and the engine
    job accounting — must match exactly.
    """
    summary = obs.summarize.summarize(sink.records)
    counters = {
        name: value
        for name, value in summary.counters.items()
        if name.startswith("engine.")
    }
    manifest = obs.RunManifest.build(
        command="repro run table2",
        config={
            "experiment": "table2",
            "scale": "smoke",
            "base_seed": _BASE_SEED,
        },
        base_seed=_BASE_SEED,
        counters=counters,
    )
    for record in sink.events("run.seeded"):
        manifest.add_seed(record.get("attrs", {}))
    payload = manifest.to_dict()
    payload.pop("created")
    payload.pop("phase_timings")
    return payload


class TestBackendEquivalence:
    def test_serial_spawn_pool_and_warm_memo_are_byte_identical(
        self, tmp_path
    ):
        serial = run_table2(ExperimentScale.smoke(), base_seed=_BASE_SEED)

        spawn_result, spawn_sink = _campaign(
            tmp_path, "spawn", EngineConfig(n_jobs=2)
        )
        pool_result, pool_sink = _campaign(
            tmp_path, "pool", EngineConfig(n_jobs=2, backend="pool")
        )
        warm_config = EngineConfig(
            n_jobs=2, backend="pool", memo_dir=str(tmp_path / "memo")
        )
        # first pool campaign with --memo-dir populates the snapshot ...
        _campaign(tmp_path, "memo-seed", warm_config)
        # ... the one under test starts from the warm disk memo
        warm_result, warm_sink = _campaign(tmp_path, "warm", warm_config)

        blobs = [
            json.dumps(_strip_times(result.as_dict()), sort_keys=True)
            for result in (serial, spawn_result, pool_result, warm_result)
        ]
        assert blobs[0] == blobs[1], "spawn engine diverged from serial"
        assert blobs[1] == blobs[2], "warm pool diverged from spawn"
        assert blobs[2] == blobs[3], "pre-populated memo changed results"

        manifests = [
            _manifest(sink) for sink in (spawn_sink, pool_sink, warm_sink)
        ]
        assert manifests[0] == manifests[1], (
            "spawn vs pool manifests differ beyond timings"
        )
        assert manifests[1] == manifests[2], (
            "cold vs warm pool manifests differ beyond timings"
        )


class TestPackedKernelAxis:
    """The backend grid crossed with the fast-path switch.

    The suite above runs every backend in production (the exact sweep,
    its default); here the same campaign runs with
    ``REPRO_FAST_PATHS=0`` — in-process for the serial run, via the
    inherited environment for spawn/pool workers — and each cell must
    still be byte-identical to the production serial run.
    """

    def test_packed_off_backends_match_packed_on_serial(
        self, tmp_path, monkeypatch
    ):
        with caching.fast_paths(True):
            caching.clear_caches()
            production = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )

        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        with caching.fast_paths(False):
            caching.clear_caches()
            serial_off = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )
            spawn_off, _ = _campaign(
                tmp_path, "spawn-off", EngineConfig(n_jobs=2)
            )
            pool_off, _ = _campaign(
                tmp_path,
                "pool-off",
                EngineConfig(n_jobs=2, backend="pool"),
            )
            warm_config = EngineConfig(
                n_jobs=2, backend="pool", memo_dir=str(tmp_path / "memo-off")
            )
            _campaign(tmp_path, "memo-seed-off", warm_config)
            warm_off, _ = _campaign(tmp_path, "warm-off", warm_config)

        blobs = [
            json.dumps(_strip_times(result.as_dict()), sort_keys=True)
            for result in (production, serial_off, spawn_off, pool_off, warm_off)
        ]
        assert blobs[0] == blobs[1], "exact sweep changed serial results"
        assert blobs[1] == blobs[2], "reference spawn diverged from serial"
        assert blobs[2] == blobs[3], "reference pool diverged from spawn"
        assert blobs[3] == blobs[4], "reference warm memo changed results"


_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

_KILL_AFTER_JOB = 2

_CHILD = """
import sys
from repro.experiments.engine import run_experiment_campaign
run_experiment_campaign("table2", "smoke", {seed}, campaign_dir=sys.argv[1])
"""


@pytest.mark.chaos
class TestPackedKillResume:
    """SIGKILL mid-campaign in production; resume; compare to the reference.

    The strongest cross-check of the exact sweep: a campaign killed at
    a job boundary *with the exact sweep engaged*, resumed from its
    checkpoints (still in production), must reproduce — byte for byte —
    the MEDs of an uninterrupted campaign that only ever ran the
    reference.  Any drift in the exact sweep, the checkpoint payloads,
    or the resume accounting shows up as a diff here.
    """

    def test_resumed_packed_campaign_matches_packed_off_run(self, tmp_path):
        campaign_dir = str(tmp_path / "packed-chaos")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[ENV_VAR] = f"abort@{_KILL_AFTER_JOB}"
        env["REPRO_FAST_PATHS"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD.format(seed=_BASE_SEED), campaign_dir],
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr.decode()
        status = campaign_status(campaign_dir)
        assert len(status.done) == _KILL_AFTER_JOB + 1

        with caching.fast_paths(True):
            caching.clear_caches()
            result, outcome = resume_campaign(campaign_dir, faults=FaultPlan())
        assert outcome.complete
        assert outcome.resumed == _KILL_AFTER_JOB + 1

        with caching.fast_paths(False):
            caching.clear_caches()
            reference = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )

        resumed_blob = json.dumps(
            _strip_times(result.as_dict()), sort_keys=True
        )
        reference_blob = json.dumps(
            _strip_times(reference.as_dict()), sort_keys=True
        )
        assert resumed_blob == reference_blob
