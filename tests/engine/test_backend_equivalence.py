"""Differential equivalence of in-process and warm-pool campaign execution.

One smoke-scale Table-II campaign is executed two ways — (a) in
process (``run_many``, no worker processes), (b) the engine on the
warm pool — and must produce byte-identical MEDs (every statistic
except wall-clock timings), with both recording the same seeds.  The
smoke-scale Fig. 5 job list is held to the same standard, every field
of its result included.  Persistent workers and the shared-memory
table transport may change *when* things are computed, never *what*.

The kernel implementation adds a second axis: both must produce the
same bytes whether ``REPRO_FAST_PATHS`` is on (production: the exact
sweep, the default exercised by the suite above) or off (the serial
reference) — including a chaos-marked SIGKILL-and-resume in
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
    Engine,
    EngineConfig,
    campaign_status,
    resume_campaign,
    run_experiment_campaign,
)
from repro.experiments.fig5 import run_fig5
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


def _seeds(sink):
    """The ``run.seeded`` record of every run, in campaign order."""
    return [record["attrs"] for record in sink.events("run.seeded")]


class TestBackendEquivalence:
    def test_serial_pool_byte_identical(self, tmp_path):
        serial_sink = obs.MemorySink()
        with obs.session(serial_sink):
            serial = run_table2(ExperimentScale.smoke(), base_seed=_BASE_SEED)

        pool_result, pool_sink = _campaign(
            tmp_path, "pool", EngineConfig(n_jobs=2)
        )

        blobs = [
            json.dumps(_strip_times(result.as_dict()), sort_keys=True)
            for result in (serial, pool_result)
        ]
        assert blobs[0] == blobs[1], "warm pool diverged from serial"
        seeds = _seeds(serial_sink)
        assert seeds and _seeds(pool_sink) == seeds, (
            "serial and pool runs drew different seeds"
        )
        counters = obs.summarize.summarize(pool_sink.records).counters
        assert counters["engine.jobs"] == len(seeds)


class TestFig5BackendEquivalence:
    """Fig. 5's job list in-process and on the warm pool.

    Design construction and measurement run in-process either way, so
    every field of ``as_dict()`` (no wall-clock timings) must match.
    """

    def test_in_process_and_pool_byte_identical(self):
        scale = ExperimentScale.smoke()
        in_process = run_fig5(scale, base_seed=0)
        pooled = run_fig5(
            scale,
            base_seed=0,
            engine=Engine(config=EngineConfig(n_jobs=2), faults=FaultPlan()),
        )
        blobs = [
            json.dumps(result.as_dict(), sort_keys=True)
            for result in (in_process, pooled)
        ]
        assert blobs[0] == blobs[1], "warm pool diverged from in-process Fig. 5"


class TestPackedKernelAxis:
    """Serial and pool crossed with the fast-path switch.

    The suite above runs both in production (the exact sweep, its
    default); here the same campaign runs with ``REPRO_FAST_PATHS=0`` —
    in-process for the serial run, via the inherited environment for
    the pool workers — and each cell must still be byte-identical to
    the production serial run.
    """

    def test_packed_off_backends_match_packed_on_serial(
        self, tmp_path, monkeypatch
    ):
        with caching.fast_paths(True):
            production = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )

        monkeypatch.setenv("REPRO_FAST_PATHS", "0")
        with caching.fast_paths(False):
            serial_off = run_table2(
                ExperimentScale.smoke(), base_seed=_BASE_SEED
            )
            pool_off, _ = _campaign(
                tmp_path, "pool-off", EngineConfig(n_jobs=2)
            )

        blobs = [
            json.dumps(_strip_times(result.as_dict()), sort_keys=True)
            for result in (production, serial_off, pool_off)
        ]
        assert blobs[0] == blobs[1], "exact sweep changed serial results"
        assert blobs[1] == blobs[2], "reference pool diverged from serial"


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
            result, outcome = resume_campaign(campaign_dir, faults=FaultPlan())
        assert outcome.complete
        assert outcome.resumed == _KILL_AFTER_JOB + 1

        with caching.fast_paths(False):
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
