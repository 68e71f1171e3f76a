"""Unit tests for the checkpointed experiment engine and fault plans."""

import dataclasses
import io
import json
import os

import numpy as np
import pytest

from repro import faults, obs, workloads
from repro.core.config import AlgorithmConfig
from repro.core.serialize import setting_to_dict
from repro.experiments.engine import (
    CampaignMismatch,
    Engine,
    EngineConfig,
    atomic_write_json,
    campaign_status,
    result_from_payload,
    result_to_payload,
    resume_campaign,
    run_experiment_campaign,
)
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.runner import ExperimentScale, build_suite, repeat_specs
from repro.experiments.table2 import _table2_specs


def _specs(n_runs=2, n_inputs=6, base_seed=7):
    target = workloads.get("cos", n_inputs=n_inputs)
    return repeat_specs(
        "dalta", target, AlgorithmConfig.fast(), n_runs, base_seed
    )


def _settings_blob(result):
    return json.dumps(
        [setting_to_dict(s) for s in result.sequence.settings], sort_keys=True
    )


class TestAtomicWrite:
    def test_writes_valid_json(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        with open(path) as handle:
            assert json.load(handle) == {"a": 1}

    def test_replaces_existing(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1})
        atomic_write_json(path, {"a": 2})
        with open(path) as handle:
            assert json.load(handle) == {"a": 2}

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_json(str(tmp_path / "out.json"), [1, 2, 3])
        assert sorted(os.listdir(tmp_path)) == ["out.json"]


class TestFaultPlan:
    def test_parse_render_round_trip(self):
        text = "crash@1;hang@5;corrupt@2;crash@4#1;crash@6#*;abort@3"
        plan = faults.FaultPlan.parse(text)
        assert plan.render() == text
        assert len(plan) == 6
        assert plan.counts() == {"crash": 3, "hang": 1, "corrupt": 1, "abort": 1}

    def test_attempt_selection(self):
        plan = faults.FaultPlan.parse("crash@4#1;hang@9#*")
        assert plan.worker_fault(4, 0) is None
        assert plan.worker_fault(4, 1).kind == "crash"
        assert plan.worker_fault(4, 2) is None
        for attempt in range(3):
            assert plan.worker_fault(9, attempt).kind == "hang"

    def test_engine_fault_lookup(self):
        plan = faults.FaultPlan.parse("abort@3;crash@3")
        assert plan.engine_fault(3).kind == "abort"
        assert plan.engine_fault(2) is None
        assert plan.worker_fault(3, 0).kind == "crash"

    def test_empty_plan_is_falsy(self):
        assert not faults.FaultPlan.parse("")
        assert not faults.FaultPlan.parse(None)
        assert not faults.from_env(environ={})

    def test_from_env(self):
        plan = faults.from_env(environ={faults.ENV_VAR: "crash@0"})
        assert plan.worker_fault(0, 0).kind == "crash"

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("explode@1")
        with pytest.raises(ValueError):
            faults.FaultPlan.parse("crash3")
        with pytest.raises(ValueError):
            faults.Fault("crash", -1)

    def test_removed_kinds_rejected(self):
        for text in ("kill-shard@1", "stale-lease@5"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                faults.FaultPlan.parse(text)

    def test_malformed_index_and_attempt_rejected(self):
        for text in ("crash@x", "crash@", "crash@1#y", "crash@1#"):
            with pytest.raises(ValueError, match="bad fault spec"):
                faults.FaultPlan.parse(text)


class TestEngineConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(n_jobs=0)
        with pytest.raises(ValueError):
            EngineConfig(max_retries=-1)
        with pytest.raises(ValueError):
            EngineConfig(job_timeout=0)

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "n_jobs",
            "job_timeout",
            "max_retries",
            "metrics_port",
        ]


class TestPayloadRoundTrip:
    def test_round_trip_is_lossless(self):
        spec = _specs(n_runs=1)[0]
        result = spec.execute()
        payload = result_to_payload(spec, result)
        restored = result_from_payload(spec, json.loads(json.dumps(payload)))
        assert restored.med == result.med
        assert restored.elapsed_seconds == result.elapsed_seconds
        assert restored.algorithm == result.algorithm
        assert restored.round_history == result.round_history
        assert _settings_blob(restored) == _settings_blob(result)
        assert np.array_equal(
            restored.approx_function.table, result.approx_function.table
        )

    def test_fingerprint_mismatch_rejected(self):
        spec_a, _ = _specs(n_runs=2)
        spec_b = _specs(n_runs=2, base_seed=99)[0]
        result = spec_a.execute()
        payload = result_to_payload(spec_a, result)
        with pytest.raises(CampaignMismatch):
            result_from_payload(spec_b, payload)


class TestEngineRun:
    def test_matches_run_many_without_faults(self):
        """Acceptance: engine output == run_many output, same base seed."""
        specs = _specs(n_runs=2)
        baseline = run_many(specs)
        outcome = Engine(config=EngineConfig(n_jobs=2)).run(specs)
        assert outcome.complete
        for expected, actual in zip(baseline, outcome.results):
            assert actual.med == expected.med
            assert _settings_blob(actual) == _settings_blob(expected)

    def test_empty_campaign(self):
        outcome = Engine().run([])
        assert outcome.results == [] and outcome.complete

    def test_corrupt_payload_retried(self):
        specs = _specs(n_runs=2)
        engine = Engine(faults=faults.FaultPlan.parse("corrupt@0"))
        outcome = engine.run(specs)
        assert outcome.complete
        assert outcome.retries == 1
        assert outcome.results[0].med == run_many([specs[0]])[0].med

    def test_poison_job_quarantined_with_partial_results(self):
        specs = _specs(n_runs=2)
        engine = Engine(
            config=EngineConfig(max_retries=1),
            faults=faults.FaultPlan.parse("crash@0#*"),
        )
        outcome = engine.run(specs)
        assert not outcome.complete
        assert outcome.results[0] is None
        assert outcome.results[1] is not None
        assert [f.index for f in outcome.quarantined] == [0]
        assert outcome.quarantined[0].reason.startswith("worker-exit:")
        assert outcome.quarantined[0].attempts == 2
        with pytest.raises(Exception, match="quarantined"):
            outcome.require_complete()

    def test_checkpoints_resumed_not_reexecuted(self, tmp_path):
        specs = _specs(n_runs=2)
        first = Engine(str(tmp_path)).run(specs)
        job_files = sorted((tmp_path / "jobs").iterdir())
        assert len(job_files) == 2
        mtimes = [f.stat().st_mtime_ns for f in job_files]

        second = Engine(str(tmp_path)).run(specs)
        assert second.resumed == 2 and second.executed == 0
        assert [f.stat().st_mtime_ns for f in sorted((tmp_path / "jobs").iterdir())] == mtimes
        for a, b in zip(first.results, second.results):
            assert b.med == a.med
            assert b.elapsed_seconds == a.elapsed_seconds

    def test_progress_event_per_executed_job_none_for_resumed(self, tmp_path):
        """Each executed job prints one ``run done`` line; resumed jobs none."""
        specs = _specs(n_runs=3)

        def run_and_capture():
            stream = io.StringIO()
            sink = obs.MemorySink()
            with obs.session(sink, obs.StderrSink(stream=stream)):
                outcome = Engine(str(tmp_path)).run(specs)
            lines = [
                line for line in stream.getvalue().splitlines()
                if line.startswith("[repro] run done:")
            ]
            return outcome, sink.events("run.completed"), lines

        outcome, events, lines = run_and_capture()
        assert outcome.executed == 3 and len(lines) == 3
        assert sorted(
            (e["attrs"]["worker"], e["attrs"]["seed"]) for e in events
        ) == [(0, 0), (1, 1), (2, 2)]
        for event in events:
            attrs = event["attrs"]
            assert attrs["benchmark"] == specs[0].name
            assert attrs["algorithm"] == "dalta"
            assert attrs["elapsed"] == outcome.results[attrs["worker"]].elapsed_seconds

        (tmp_path / "jobs" / "job-00001.json").unlink()
        outcome, events, lines = run_and_capture()
        assert outcome.resumed == 2 and outcome.executed == 1
        assert [e["attrs"]["worker"] for e in events] == [1]
        assert len(lines) == 1 and "worker=1" in lines[0]

    def test_invalid_checkpoint_discarded_and_rerun(self, tmp_path):
        specs = _specs(n_runs=1)
        engine = Engine(str(tmp_path))
        engine._init_campaign(specs)
        job = tmp_path / "jobs" / "job-00000.json"
        job.write_text('{"schema": 1, "garbage')
        outcome = Engine(str(tmp_path)).run(specs)
        assert outcome.resumed == 0 and outcome.executed == 1
        assert outcome.complete

    def test_campaign_mismatch_detected(self, tmp_path):
        Engine(str(tmp_path)).run(_specs(n_runs=2))
        with pytest.raises(CampaignMismatch):
            Engine(str(tmp_path)).run(_specs(n_runs=2, base_seed=99))


class TestCampaignStatus:
    def test_status_counts(self, tmp_path):
        specs = _specs(n_runs=2)
        engine = Engine(
            str(tmp_path),
            config=EngineConfig(max_retries=0),
            faults=faults.FaultPlan.parse("crash@1#*"),
        )
        engine.invocation = {"experiment": "table2", "scale": "smoke", "base_seed": 0}
        engine.run(specs)
        status = campaign_status(str(tmp_path))
        assert status.total == 2
        assert len(status.done) == 1
        assert len(status.quarantined) == 1
        assert status.pending == []
        rendered = status.render()
        assert "table2" in rendered and "quarantined" in rendered


class TestLegacyCampaignDirs:
    """Directories written while campaigns could be split over hosts.

    Such a manifest records a shard identity or a shared store, and
    may sit next to a stale ``leases/`` file.  The engine reads only
    the invocation and the job fingerprints, so the directory resumes
    as an ordinary campaign: every missing job runs, and each MED
    equals a serial run of the same specs.
    """

    _SEED = 3

    @pytest.fixture(scope="class")
    def serial_meds(self):
        scale = ExperimentScale.by_name("smoke")
        specs = _table2_specs(scale, build_suite(scale), self._SEED)
        return [result.med for result in run_many(specs)]

    def _campaign(self, tmp_path, engine_fields, shard, keep):
        campaign = tmp_path / "campaign"
        run_experiment_campaign(
            "table2",
            "smoke",
            self._SEED,
            str(campaign),
            EngineConfig(n_jobs=2),
            faults.FaultPlan(),
        )
        manifest_path = campaign / "campaign.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["engine"].update(engine_fields)
        manifest["shard"] = shard
        manifest_path.write_text(json.dumps(manifest))
        for index in range(len(manifest["jobs"])):
            if not keep(index):
                (campaign / "jobs" / f"job-{index:05d}.json").unlink()
        return campaign

    def _resume_matches_serial(self, campaign, serial_meds, missing):
        status = campaign_status(str(campaign))
        assert len(status.pending) == missing
        assert status.render().splitlines()[0] == (
            f"campaign {campaign} — table2 (scale=smoke, seed={self._SEED})"
        )
        _, outcome = resume_campaign(
            str(campaign), EngineConfig(n_jobs=2), faults.FaultPlan()
        )
        assert outcome.executed == missing
        assert outcome.resumed == len(serial_meds) - missing
        assert [result.med for result in outcome.results] == serial_meds
        status = campaign_status(str(campaign))
        assert len(status.done) == len(serial_meds) and not status.pending

    def test_per_shard_directory_resumes_unsharded(self, tmp_path, serial_meds):
        engine_fields = {
            "store": "local",
            "shard_index": 1,
            "shard_count": 3,
            "lease_ttl": 30.0,
            "adopt": True,
        }
        campaign = self._campaign(
            tmp_path,
            engine_fields,
            {"index": 1, "count": 3},
            keep=lambda index: index % 3 == 1,
        )
        missing = sum(1 for i in range(len(serial_meds)) if i % 3 != 1)
        self._resume_matches_serial(campaign, serial_meds, missing)

    def test_shared_directory_with_stale_lease_resumes(
        self, tmp_path, serial_meds
    ):
        engine_fields = {
            "store": "shared",
            "shard_index": None,
            "shard_count": 2,
            "lease_ttl": 30.0,
            "adopt": True,
        }
        campaign = self._campaign(
            tmp_path,
            engine_fields,
            {"index": None, "count": 2},
            keep=lambda index: index % 2 == 1,
        )
        leases = campaign / "leases"
        leases.mkdir()
        (leases / "job-00000.lease").write_text(
            json.dumps({"owner": "dead-host", "acquired": 0.0, "expires": 1.0})
        )
        missing = sum(1 for i in range(len(serial_meds)) if i % 2 != 1)
        self._resume_matches_serial(campaign, serial_meds, missing)


class TestSpecIdentity:
    def test_fingerprint_distinguishes_seeding(self):
        a, b = _specs(n_runs=2)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == _specs(n_runs=2)[0].fingerprint()

    def test_direct_seed_changes_fingerprint_and_label(self):
        target = workloads.get("cos", n_inputs=6)
        spawned = RunSpec.for_function(
            "bs-sa", target, AlgorithmConfig.fast(), 0, 0
        )
        direct = RunSpec.for_function(
            "bs-sa", target, AlgorithmConfig.fast(), None, 0, direct_seed=17
        )
        assert spawned.fingerprint() != direct.fingerprint()
        assert "seed=17" in direct.label
        assert "run=0" in spawned.label

    def test_direct_seed_matches_serial_default_rng(self):
        """direct_seed reproduces run_bssa(default_rng(seed)) bit-exactly."""
        from repro.core.bs_sa import run_bssa

        target = workloads.get("cos", n_inputs=6)
        config = AlgorithmConfig.fast()
        serial = run_bssa(
            target,
            config,
            rng=np.random.default_rng(17),
            architecture="bto-normal",
        )
        spec = RunSpec.for_function(
            "bs-sa",
            target,
            config,
            None,
            0,
            architecture="bto-normal",
            direct_seed=17,
        )
        engined = spec.execute()
        assert engined.med == serial.med
        assert _settings_blob(engined) == _settings_blob(serial)


class TestScaleByName:
    def test_resolves_registered_names(self):
        assert ExperimentScale.by_name("smoke").name == "smoke"
        assert ExperimentScale.by_name("default").name == "default"

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown scale"):
            ExperimentScale.by_name("galactic")
