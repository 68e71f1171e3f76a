"""Shard-equivalence suite (ISSUE 7 tentpole acceptance).

A smoke-scale Table-II campaign is executed once unsharded and once as
four strictly-partitioned shard directories; ``merge-campaign`` must
join the shards into a directory byte-identical to the unsharded run
modulo wall-clock timings.  The same equivalence is then proven for
the shared-directory deployment (lease-based claiming + work
stealing), and — chaos-marked — for a four-shard campaign in which one
shard is SIGKILLed right after claiming its first job and its stale
lease is reclaimed by a sibling.

Also here: the ``shard_of`` hypothesis property tests (total stable
partition for every shard count) and the ``campaign status``
regression tests for per-shard progress and leased-but-unclaimed jobs.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, obs, workloads
from repro.core.config import AlgorithmConfig
from repro.experiments.engine import (
    Engine,
    EngineConfig,
    campaign_status,
    resume_campaign,
    run_experiment_campaign,
)
from repro.experiments.runner import repeat_specs
from repro.experiments.store import (
    SharedDirStore,
    merge_campaigns,
    normalized_job_payload,
    shard_indices,
    shard_of,
)

_BASE_SEED = 3
#: aligned across the baseline and every shard run: the merged
#: manifest must be byte-identical to the baseline's, and merging only
#: normalizes the shard identity and store kind of the engine record
_TTL = 2.0
_N_JOBS = 2


def _config(**overrides):
    params = dict(n_jobs=_N_JOBS, lease_ttl=_TTL)
    params.update(overrides)
    return EngineConfig(**params)


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


def _read_manifest(campaign_dir, drop_created=True):
    with open(os.path.join(str(campaign_dir), "campaign.json")) as handle:
        manifest = json.load(handle)
    if drop_created:
        manifest.pop("created")
    return manifest


def _job_files(campaign_dir):
    jobs_dir = os.path.join(str(campaign_dir), "jobs")
    return sorted(os.listdir(jobs_dir)) if os.path.isdir(jobs_dir) else []


def _normalized_checkpoints(campaign_dir):
    """job file name -> canonical JSON text, timing fields zeroed."""
    payloads = {}
    jobs_dir = os.path.join(str(campaign_dir), "jobs")
    for name in _job_files(campaign_dir):
        with open(os.path.join(jobs_dir, name)) as handle:
            payloads[name] = json.dumps(
                normalized_job_payload(json.load(handle)), sort_keys=True
            )
    return payloads


def _specs(n_runs=2, n_inputs=6, base_seed=7):
    target = workloads.get("cos", n_inputs=n_inputs)
    return repeat_specs(
        "dalta", target, AlgorithmConfig.fast(), n_runs, base_seed
    )


# ======================================================================
# shard_of properties (satellite: hash-stable total partition)
# ======================================================================
class TestShardOfProperties:
    @given(st.text(min_size=1, max_size=64), st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_total_function_in_range(self, fingerprint, count):
        shard = shard_of(fingerprint, count)
        assert 0 <= shard < count
        assert shard_of(fingerprint, count) == shard  # deterministic

    @given(
        st.lists(st.text(min_size=1, max_size=32), min_size=1, max_size=24),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_shard_indices_partition_every_position(self, fps, count):
        covered = []
        for shard in range(count):
            covered.extend(shard_indices(fps, shard, count))
        # every position exactly once: no job lost, none duplicated
        assert sorted(covered) == list(range(len(fps)))

    @given(st.text(min_size=1, max_size=64))
    @settings(max_examples=100, deadline=None)
    def test_membership_matches_shard_of(self, fingerprint):
        for count in range(1, 9):
            owner = shard_of(fingerprint, count)
            for shard in range(count):
                positions = shard_indices([fingerprint], shard, count)
                assert positions == ([0] if shard == owner else [])

    def test_pinned_values_are_stable(self):
        # sha256 of the fingerprint text — immune to PYTHONHASHSEED, so
        # a campaign sharded on one host resumes identically on another
        assert [shard_of("deadbeefcafef00d", n) for n in (2, 4, 8)] == [
            0, 2, 2,
        ]


# ======================================================================
# 1-shard vs 4-shard differential (separate dirs + merge-campaign)
# ======================================================================
@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    root = tmp_path_factory.mktemp("baseline")
    result, outcome = run_experiment_campaign(
        "table2",
        "smoke",
        base_seed=_BASE_SEED,
        campaign_dir=str(root / "serial"),
        config=_config(),
    )
    assert outcome.complete
    return {"dir": root / "serial", "result": result}


@pytest.fixture(scope="module")
def four_shards(tmp_path_factory):
    root = tmp_path_factory.mktemp("shards")
    dirs, outcomes = [], []
    for shard in range(4):
        shard_dir = root / f"shard-{shard}"
        _, outcome = run_experiment_campaign(
            "table2",
            "smoke",
            base_seed=_BASE_SEED,
            campaign_dir=str(shard_dir),
            config=_config(shard_index=shard, shard_count=4),
        )
        dirs.append(shard_dir)
        outcomes.append(outcome)
    merged = root / "merged"
    merge = merge_campaigns([str(d) for d in dirs], str(merged))
    return {
        "dirs": dirs,
        "outcomes": outcomes,
        "merged": merged,
        "merge": merge,
    }


class TestFourShardDifferential:
    def test_shards_strictly_partition_the_campaign(
        self, baseline, four_shards
    ):
        manifest = _read_manifest(baseline["dir"])
        fps = [job["fingerprint"] for job in manifest["jobs"]]
        total = len(fps)
        for shard, outcome in enumerate(four_shards["outcomes"]):
            own = len(shard_indices(fps, shard, 4))
            assert outcome.executed == own
            assert outcome.skipped == total - own
            assert not outcome.quarantined
            done = len(_job_files(four_shards["dirs"][shard]))
            assert done == own
        assert sum(o.executed for o in four_shards["outcomes"]) == total

    def test_empty_shard_completes_with_zero_jobs(self, four_shards):
        # seed 3 / smoke partitions as {0: 3, 1: 2, 2: 3, 3: 0}: shard 3
        # owns nothing, runs nothing, and must still exit cleanly
        outcome = four_shards["outcomes"][3]
        assert outcome.executed == 0
        assert outcome.skipped == 8

    def test_sharded_outcome_refuses_to_pose_as_complete(self, four_shards):
        outcome = four_shards["outcomes"][0]
        assert not outcome.complete
        with pytest.raises(Exception, match="merge the shard directories"):
            outcome.require_complete()

    def test_merge_joins_all_shards(self, four_shards):
        merge = four_shards["merge"]
        assert merge.complete
        assert merge.merged == 8
        assert merge.duplicates == 0
        assert merge.quarantined == 0
        assert merge.missing == []

    def test_checkpoints_byte_identical_modulo_timings(
        self, baseline, four_shards
    ):
        expected = _normalized_checkpoints(baseline["dir"])
        actual = _normalized_checkpoints(four_shards["merged"])
        assert expected  # sanity: the baseline really has checkpoints
        assert actual == expected

    def test_manifest_byte_identical_modulo_created(
        self, baseline, four_shards
    ):
        expected = _read_manifest(baseline["dir"])
        actual = _read_manifest(four_shards["merged"])
        assert actual == expected

    def test_merged_dir_resumes_without_reexecution(
        self, baseline, four_shards
    ):
        result, outcome = resume_campaign(str(four_shards["merged"]))
        assert outcome.complete
        assert outcome.resumed == 8
        assert outcome.executed == 0
        assert _strip_times(result.as_dict()) == _strip_times(
            baseline["result"].as_dict()
        )

    def test_shard_status_reports_per_shard_progress(self, four_shards):
        status = campaign_status(str(four_shards["dirs"][0]))
        assert status.shard == {"index": 0, "count": 4}
        assert [row["total"] for row in status.per_shard] == [3, 2, 3, 0]
        assert status.per_shard[0]["done"] == 3
        assert status.per_shard[0]["here"]
        assert status.per_shard[1]["done"] == 0
        assert not status.per_shard[1]["here"]
        rendered = status.render()
        assert "[shard 0 of 4]" in rendered
        assert "shard 0: 3/3 done  <- this directory" in rendered
        assert "shard 1: 0/2 done" in rendered

    def test_merged_status_is_unsharded_and_done(self, four_shards):
        status = campaign_status(str(four_shards["merged"]))
        assert status.shard is None
        assert len(status.done) == 8
        assert status.pending == []
        assert status.per_shard == []


# ======================================================================
# Shared-directory deployment: leases + work stealing
# ======================================================================
@pytest.fixture(scope="module")
def shared_campaign(tmp_path_factory, baseline):
    root = tmp_path_factory.mktemp("shared")
    shared_dir = root / "campaign"
    first_sink = obs.MemorySink()
    with obs.session(first_sink):
        _, first = run_experiment_campaign(
            "table2",
            "smoke",
            base_seed=_BASE_SEED,
            campaign_dir=str(shared_dir),
            config=_config(store="shared", shard_index=0, shard_count=2),
        )
    second_sink = obs.MemorySink()
    with obs.session(second_sink):
        _, second = run_experiment_campaign(
            "table2",
            "smoke",
            base_seed=_BASE_SEED,
            campaign_dir=str(shared_dir),
            config=_config(store="shared", shard_index=1, shard_count=2),
        )
    merged = root / "merged"
    merge = merge_campaigns([str(shared_dir)], str(merged))
    return {
        "dir": shared_dir,
        "merged": merged,
        "merge": merge,
        "first": first,
        "second": second,
        "first_counters": first_sink.counters(),
        "second_counters": second_sink.counters(),
    }


class TestSharedDirAdoption:
    def test_lone_shard_adopts_the_whole_campaign(self, shared_campaign):
        # work stealing: with no sibling running, shard 0 executes its
        # own partition first, then claims every foreign job too
        first = shared_campaign["first"]
        assert first.complete
        assert first.executed == 8
        assert first.skipped == 0
        assert shared_campaign["first_counters"]["lease.claimed"] == 8

    def test_late_shard_resumes_everything(self, shared_campaign):
        second = shared_campaign["second"]
        assert second.complete
        assert second.executed == 0
        assert second.resumed == 8
        assert "lease.claimed" not in shared_campaign["second_counters"]

    def test_no_leases_left_behind(self, shared_campaign):
        leases_dir = shared_campaign["dir"] / "leases"
        assert sorted(os.listdir(leases_dir)) == []

    def test_merge_normalizes_to_the_serial_manifest(
        self, baseline, shared_campaign
    ):
        assert shared_campaign["merge"].complete
        expected = _read_manifest(baseline["dir"])
        actual = _read_manifest(shared_campaign["merged"])
        assert actual == expected

    def test_checkpoints_match_serial_modulo_timings(
        self, baseline, shared_campaign
    ):
        expected = _normalized_checkpoints(baseline["dir"])
        assert _normalized_checkpoints(shared_campaign["merged"]) == expected


# ======================================================================
# stale-lease fault injection
# ======================================================================
class TestStaleLeaseFault:
    def test_planted_ghost_lease_is_stolen_and_counted(self, tmp_path):
        engine = Engine(
            str(tmp_path / "campaign"),
            _config(store="shared"),
            faults.FaultPlan.parse("stale-lease@1"),
        )
        sink = obs.MemorySink()
        with obs.session(sink):
            outcome = engine.run(_specs())
        assert outcome.complete
        assert outcome.executed == 2
        counters = sink.counters()
        assert counters["faults.injected"] == 1
        assert counters["lease.expired"] == 1
        assert counters["lease.stolen"] == 1
        assert sink.events("faults.lease_injected")

    def test_fault_plan_parses_lease_kinds(self):
        plan = faults.FaultPlan.parse("kill-shard@1;stale-lease@3")
        assert plan.shard_kill(1, claimed=1) is not None
        assert plan.shard_kill(1, claimed=2) is None
        assert plan.shard_kill(0, claimed=1) is None
        assert plan.shard_kill(None, claimed=1) is None
        assert plan.lease_fault(3) is not None
        assert plan.lease_fault(2) is None


# ======================================================================
# campaign status: leases (satellite regression)
# ======================================================================
class TestStatusLeaseClassification:
    def _campaign_dir(self, tmp_path, specs):
        engine = Engine(str(tmp_path / "campaign"), _config(store="shared"))
        engine._init_campaign(specs)
        return str(tmp_path / "campaign"), engine.store

    def test_live_lease_counts_as_running(self, tmp_path):
        campaign_dir, store = self._campaign_dir(tmp_path, _specs())
        assert store.try_claim(0)
        status = campaign_status(campaign_dir)
        assert len(status.running) == 1
        assert len(status.pending) == 1
        assert status.done == []

    def test_expired_lease_counts_as_pending(self, tmp_path):
        # Regression: a leased-but-unclaimed job (holder died, lease
        # expired) must read as *pending* — it is claimable work, and
        # reporting it as running hid dead shards from `repro status`.
        campaign_dir, _ = self._campaign_dir(tmp_path, _specs())
        dead = SharedDirStore(campaign_dir, owner="dead", lease_ttl=0.05)
        assert dead.try_claim(0)
        time.sleep(0.1)
        status = campaign_status(campaign_dir)
        assert status.running == []
        assert len(status.pending) == 2

    def test_ghost_lease_counts_as_pending(self, tmp_path):
        campaign_dir, store = self._campaign_dir(tmp_path, _specs())
        store.plant_stale_lease(1)
        status = campaign_status(campaign_dir)
        assert status.running == []
        assert len(status.pending) == 2


# ======================================================================
# CLI: a shard run must not render the full (partial) table
# ======================================================================
class TestShardRunCommand:
    def test_shard_run_exits_zero_with_merge_hint(self, tmp_path, capsys):
        # Regression: rendering Table II from a shard's partial outcome
        # crashed with "geomean of empty sequence" whenever the shard
        # held zero runs of some benchmark/algorithm pair (seed 0 with
        # n=3 is such a partition).  A shard run prints a merge hint.
        from repro.__main__ import main

        code = main(
            [
                "run",
                "table2",
                "--dir",
                str(tmp_path / "shard-1"),
                "--scale",
                "smoke",
                "--jobs",
                "2",
                "--shard",
                "1/3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shard run complete" in out
        assert "merge-campaign" in out
        assert "geomean" not in out


# ======================================================================
# chaos: SIGKILL one shard mid-claim, reclaim its lease, stay identical
# ======================================================================
_SRC = os.path.join(
    os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ),
    "src",
)

_CHILD = """
import sys
from repro.experiments.engine import EngineConfig, run_experiment_campaign
config = EngineConfig(
    n_jobs={n_jobs},
    store="shared",
    shard_index=0,
    shard_count=4,
    lease_ttl=float(sys.argv[2]),
)
run_experiment_campaign(
    "table2", "smoke", {seed}, campaign_dir=sys.argv[1], config=config
)
"""


@pytest.mark.chaos
class TestShardKillAndReclaim:
    def test_killed_shard_is_reclaimed_and_merge_matches_serial(
        self, tmp_path, baseline
    ):
        shared_dir = str(tmp_path / "campaign")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
        env[faults.ENV_VAR] = "kill-shard@0"
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _CHILD.format(n_jobs=_N_JOBS, seed=_BASE_SEED),
                shared_dir,
                str(_TTL),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=240,
        )
        # the engine SIGKILLed itself right after its first lease claim
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert _job_files(shared_dir) == []  # died before any checkpoint
        leases = sorted(os.listdir(os.path.join(shared_dir, "leases")))
        assert len(leases) == 1  # the stale lease of the claimed job

        # surviving siblings drain the campaign, stealing the stale lease
        counters = {}
        outcome = None
        for shard in (1, 2, 3):
            sink = obs.MemorySink()
            with obs.session(sink):
                _, outcome = run_experiment_campaign(
                    "table2",
                    "smoke",
                    base_seed=_BASE_SEED,
                    campaign_dir=shared_dir,
                    config=_config(
                        store="shared",
                        shard_index=shard,
                        shard_count=4,
                    ),
                )
            for name, value in sink.counters().items():
                counters[name] = counters.get(name, 0) + value
        assert outcome is not None and outcome.complete
        assert counters["lease.expired"] >= 1
        assert counters["lease.stolen"] >= 1

        # the reclaimed campaign merges byte-identical to the serial run
        merged = str(tmp_path / "merged")
        merge = merge_campaigns([shared_dir], merged)
        assert merge.complete
        assert _normalized_checkpoints(merged) == _normalized_checkpoints(
            baseline["dir"]
        )
        assert _read_manifest(merged) == _read_manifest(baseline["dir"])

        result, resumed = resume_campaign(merged)
        assert resumed.resumed == 8 and resumed.executed == 0
        assert _strip_times(result.as_dict()) == _strip_times(
            baseline["result"].as_dict()
        )
