"""Fault-tolerant, checkpointed execution of experiment campaigns.

The paper's headline tables come from thousands of independent seeded
runs, and a single worker crash (OOM, preemption, a poison job) must
not lose the whole campaign.  This module is the durable job engine
every multi-process run goes through:

* every :class:`~repro.experiments.parallel.RunSpec` becomes a job
  whose result is persisted **atomically** (write to a temp file,
  ``fsync``, ``os.replace``) in the campaign directory's
  :class:`~repro.experiments.store.LocalStore`, so an interrupted
  campaign resumes from its checkpoints and completes byte-identical
  to an uninterrupted run — seeds come from the existing
  ``SeedSequence.spawn`` scheme, so resume never re-draws RNG state;
* jobs run on the warm :class:`~repro.experiments.pool.WorkerPool`
  under supervision: a per-job timeout, bounded retries, and
  quarantine of poison jobs (partial-result reporting instead of
  campaign abort);
* a seedable fault-injection harness (:mod:`repro.faults`) can kill,
  hang, or corrupt chosen jobs, or SIGKILL the engine itself, so the
  chaos tests and CI prove the recovery paths are byte-exact.

Telemetry (when enabled) gains ``engine.resumed`` / ``engine.retries``
/ ``engine.timeouts`` / ``engine.quarantined`` counters, one
``run.completed`` progress event per executed job, and the worker
spans folded into the parent session tagged ``worker=<job index>``.
The engine's outputs are byte-identical to the in-process
``run_many`` loop under the same base seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import signal
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .. import faults as faults_mod
from .. import obs
from ..core.result import ApproximationResult, SearchStats
from ..core.serialize import setting_from_dict, setting_to_dict
from ..core.settings import SettingSequence
from . import reporting
from .parallel import RunSpec, completed_event
from .store import (
    SCHEMA as _SCHEMA,
    CampaignError,
    CampaignMismatch,
    LocalStore,
    atomic_write_json,
)

__all__ = [
    "EngineConfig",
    "Engine",
    "resolve_jobs",
    "CampaignError",
    "CampaignMismatch",
    "CampaignOutcome",
    "CampaignStatus",
    "JobFailure",
    "atomic_write_json",
    "result_to_payload",
    "result_from_payload",
    "run_experiment_campaign",
    "resume_campaign",
    "campaign_status",
]

#: seconds the supervision loop waits on the pool per tick
POLL_INTERVAL = 0.02


def resolve_jobs(requested: Optional[int], job_count: Optional[int] = None) -> int:
    """Effective worker count for a campaign.

    ``requested=None`` defaults to ``os.cpu_count()``; with a known
    ``job_count`` the result is clamped to it (never start workers
    with nothing to do) and to at least 1.  Explicit requests below 1
    are rejected — the CLI surfaces that as a ``--jobs`` argument
    error before any work starts.
    """
    if requested is not None and requested < 1:
        raise ValueError("jobs must be >= 1")
    effective = requested if requested is not None else (os.cpu_count() or 1)
    if job_count is not None:
        effective = min(effective, max(1, job_count))
    return max(1, effective)


# ======================================================================
# Job payloads: ApproximationResult <-> durable JSON
# ======================================================================
def result_to_payload(spec: RunSpec, result: ApproximationResult) -> Dict[str, Any]:
    """Serialise one job's result for its checkpoint file."""
    return {
        "schema": _SCHEMA,
        "fingerprint": spec.fingerprint(),
        "label": spec.label,
        "algorithm": result.algorithm,
        "benchmark": spec.name,
        "med": result.med,
        "elapsed_seconds": result.elapsed_seconds,
        "stats": dataclasses.asdict(result.stats),
        "round_history": list(result.round_history),
        "settings": [setting_to_dict(s) for s in result.sequence.settings],
        "seed": spec.seed_info(),
    }


def result_from_payload(
    spec: RunSpec, payload: Dict[str, Any]
) -> ApproximationResult:
    """Reconstruct a job result, validating it belongs to ``spec``."""
    if payload.get("schema") != _SCHEMA:
        raise CampaignError(f"unsupported job payload schema {payload.get('schema')!r}")
    if payload.get("fingerprint") != spec.fingerprint():
        raise CampaignMismatch(
            f"job payload fingerprint {payload.get('fingerprint')!r} does not "
            f"match spec {spec.label} ({spec.fingerprint()})"
        )
    settings = [setting_from_dict(s) for s in payload["settings"]]
    sequence = SettingSequence(spec.n_outputs, settings)
    stats_fields = {f.name for f in dataclasses.fields(SearchStats)}
    stats = SearchStats(
        **{k: v for k, v in payload.get("stats", {}).items() if k in stats_fields}
    )
    return ApproximationResult(
        algorithm=payload["algorithm"],
        target=spec.target_function(),
        sequence=sequence,
        med=float(payload["med"]),
        elapsed_seconds=float(payload["elapsed_seconds"]),
        stats=stats,
        round_history=[float(v) for v in payload.get("round_history", [])],
    )


# ======================================================================
# Engine configuration and outcomes
# ======================================================================
@dataclass(frozen=True)
class EngineConfig:
    """Supervision knobs of the checkpointed engine."""

    #: concurrent worker processes
    n_jobs: int = 1
    #: per-job wall-clock timeout in seconds (None = unlimited)
    job_timeout: Optional[float] = None
    #: retries after the first failed attempt before quarantine
    max_retries: int = 2
    #: serve live /metrics + /healthz on this port while the campaign
    #: runs (0 = ephemeral port; None = no server).  Read-only: the
    #: endpoint never changes campaign results.
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        if self.metrics_port is not None and not (
            0 <= self.metrics_port <= 65535
        ):
            raise ValueError("metrics_port must be in [0, 65535]")


@dataclass
class JobFailure:
    """Why one job attempt (or a whole job) failed."""

    index: int
    label: str
    reason: str
    attempts: int
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class CampaignOutcome:
    """What a campaign run produced.

    ``results`` is in spec order; quarantined jobs are ``None`` —
    partial-result reporting instead of campaign abort.
    """

    results: List[Optional[ApproximationResult]]
    resumed: int = 0
    executed: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: List[JobFailure] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(result is not None for result in self.results)

    def require_complete(self) -> List[ApproximationResult]:
        if not self.complete:
            labels = ", ".join(f.label for f in self.quarantined)
            raise CampaignError(
                f"campaign incomplete: {len(self.quarantined)} job(s) "
                f"quarantined ({labels})"
            )
        return list(self.results)  # type: ignore[arg-type]


# ======================================================================
# The engine
# ======================================================================
class Engine:
    """Checkpointed, supervised executor of :class:`RunSpec` campaigns.

    With ``campaign_dir=None`` the engine still supervises workers
    (timeouts, retries, quarantine) but checkpoints into a temporary
    directory discarded after the run.  With a directory, completed
    jobs are durable: a second ``run`` over the same specs skips them
    (``engine.resumed``) and an interrupted campaign picks up where it
    stopped.
    """

    def __init__(
        self,
        campaign_dir: Optional[str] = None,
        config: Optional[EngineConfig] = None,
        faults: Optional[faults_mod.FaultPlan] = None,
    ) -> None:
        self.campaign_dir = campaign_dir
        self.config = config or EngineConfig()
        self.faults = faults if faults is not None else faults_mod.from_env()
        #: recorded in campaign.json so ``repro resume`` can rebuild specs
        self.invocation: Optional[Dict[str, Any]] = None
        #: outcome of the most recent :meth:`run`
        self.last_outcome: Optional[CampaignOutcome] = None
        #: the checkpoint store of the in-flight (or last) run
        self.store: Optional[LocalStore] = None
        #: live metrics hub while a --metrics-port run is in flight
        self._hub = None
        #: (host, port) of the running metrics server, if any
        self.metrics_address: Optional[Tuple[str, int]] = None

    # -- campaign layout ----------------------------------------------
    def _init_campaign(self, specs: Sequence[RunSpec]) -> None:
        """Create or validate the campaign manifest for these specs."""
        if self.store is None:
            assert self.campaign_dir is not None
            self.store = LocalStore(self.campaign_dir)
            self.store.prepare()
        jobs = [
            {
                "id": f"job-{index:05d}",
                "label": spec.label,
                "fingerprint": spec.fingerprint(),
                "benchmark": spec.name,
                "algorithm": spec.algorithm,
            }
            for index, spec in enumerate(specs)
        ]
        existing = self.store.read_manifest()
        if existing is not None:
            recorded = [job["fingerprint"] for job in existing.get("jobs", [])]
            ours = [job["fingerprint"] for job in jobs]
            if recorded != ours:
                raise CampaignMismatch(
                    f"{self.campaign_dir} holds a different campaign "
                    f"({len(recorded)} job(s) recorded, {len(ours)} requested; "
                    "fingerprints differ)"
                )
            return
        manifest = {
            "schema": _SCHEMA,
            "created": time.time(),
            "engine": dataclasses.asdict(self.config),
            "invocation": self.invocation,
            "jobs": jobs,
        }
        self.store.write_manifest(manifest)

    # -- the run loop --------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> CampaignOutcome:
        """Execute the campaign, resuming any persisted jobs."""
        specs = list(specs)
        outcome = CampaignOutcome(results=[None] * len(specs))
        if not specs:
            self.last_outcome = outcome
            return outcome
        try:
            with contextlib.ExitStack() as stack:
                self._start_metrics(stack, len(specs))
                if self.campaign_dir is not None:
                    self.store = LocalStore(self.campaign_dir)
                    self.store.prepare()
                    self._init_campaign(specs)
                    self._execute(specs, outcome)
                else:
                    with tempfile.TemporaryDirectory(
                        prefix="repro-engine-"
                    ) as tmp_dir:
                        self.store = LocalStore(tmp_dir)
                        self.store.prepare()
                        self._execute(specs, outcome)
        finally:
            self._hub = None
        self.last_outcome = outcome
        return outcome

    def _start_metrics(self, stack: contextlib.ExitStack, total: int) -> None:
        """Serve a live /metrics + /healthz view while the campaign runs.

        Only active with ``config.metrics_port``.  The endpoint is
        strictly read-only; the one observable side effect is that a
        telemetry session (with a :class:`~repro.obs.NullSink`) is
        opened when none is active, so live counters exist to serve —
        results stay byte-identical either way (the telemetry on/off
        differential tests prove it).
        """
        port = self.config.metrics_port
        if port is None:
            return
        from ..obs import exposition

        if obs.current() is None:
            stack.enter_context(obs.session(obs.NullSink()))
        hub = exposition.MetricsHub(telemetry=obs.current())
        invocation = self.invocation or {}
        hub.campaign_update(
            state="running",
            total=total,
            experiment=invocation.get("experiment"),
            scale=invocation.get("scale"),
        )
        server = exposition.MetricsServer(hub, port=port)
        server.start()
        self.metrics_address = (server.host, server.port)
        print(f"[repro] live metrics: {server.url}/metrics", file=sys.stderr)
        stack.callback(server.stop)
        stack.callback(lambda: hub.campaign_update(state="done", running=0))
        self._hub = hub

    def _sync_hub(
        self,
        outcome: CampaignOutcome,
        running: Optional[int] = None,
        pool=None,
    ) -> None:
        """Publish campaign progress (and ``pool``'s counts, when the
        supervision loop passes its pool) to the live hub, if any."""
        hub = self._hub
        if hub is None:
            return
        fields: Dict[str, Any] = {
            "done": outcome.resumed + outcome.executed,
            "resumed": outcome.resumed,
            "retried": outcome.retries,
            "timeouts": outcome.timeouts,
            "quarantined": len(outcome.quarantined),
        }
        if running is not None:
            fields["running"] = running
        hub.campaign_update(**fields)
        if pool is not None:
            hub.pool_update(pool.stats())

    def _execute(self, specs: List[RunSpec], outcome: CampaignOutcome) -> None:
        telemetry = obs.current()
        with obs.span("engine.run", jobs=len(specs), n_jobs=self.config.n_jobs):
            pending: deque = deque()
            for index, spec in enumerate(specs):
                if telemetry is not None:
                    telemetry.event("run.seeded", **spec.seed_info())
                if not self._try_resume(spec, index, outcome):
                    pending.append(index)
            self._supervise(specs, pending, outcome)

    def _try_resume(
        self, spec: RunSpec, index: int, outcome: CampaignOutcome
    ) -> bool:
        """Adopt a persisted checkpoint for this job, if one is valid."""
        assert self.store is not None
        try:
            payload = self.store.read_job(index)
        except (ValueError, OSError):
            # Torn or stale checkpoint (should be impossible with atomic
            # writes, but e.g. an injected corruption survives a kill):
            # discard and re-run the job.
            self.store.discard_job(index)
            return False
        if payload is None:
            return False
        try:
            result = result_from_payload(spec, payload)
        except CampaignMismatch:
            raise
        except (ValueError, KeyError, TypeError):
            self.store.discard_job(index)
            return False
        outcome.results[index] = result
        outcome.resumed += 1
        obs.incr("engine.resumed")
        obs.observe("run.med", result.med)
        obs.event(
            "engine.job_resumed", job=index, label=spec.label, med=result.med
        )
        self._sync_hub(outcome)
        return True

    # -- supervision helpers -------------------------------------------
    def _prepare_attempt(self, index: int, attempt: int):
        """Fault-plan lookup before (re)starting a job."""
        fault = self.faults.worker_fault(index, attempt)
        if fault is not None:
            obs.incr("faults.injected")
            obs.event(
                "faults.worker_injected",
                job=index,
                kind=fault.kind,
                attempt=attempt,
            )
        return fault

    def _fail_job(
        self,
        specs: List[RunSpec],
        attempts: Dict[int, int],
        pending: deque,
        outcome: CampaignOutcome,
        index: int,
        reason: str,
        detail: str = "",
    ) -> None:
        """Record a failed attempt: retry (bounded) or quarantine."""
        assert self.store is not None
        attempts[index] = attempts.get(index, 0) + 1
        self.store.discard_job(index)
        if attempts[index] <= self.config.max_retries:
            outcome.retries += 1
            obs.incr("engine.retries")
            obs.event(
                "engine.retry",
                job=index,
                label=specs[index].label,
                attempt=attempts[index],
                reason=reason,
            )
            pending.append(index)
            self._sync_hub(outcome)
            return
        failure = JobFailure(
            index=index,
            label=specs[index].label,
            reason=reason,
            attempts=attempts[index],
            detail=detail,
        )
        outcome.quarantined.append(failure)
        obs.incr("engine.quarantined")
        obs.event(
            "engine.quarantine", job=index, label=failure.label, reason=reason
        )
        self.store.write_quarantine(index, failure.to_dict())
        self._sync_hub(outcome)

    def _finish_job(
        self,
        specs: List[RunSpec],
        attempts: Dict[int, int],
        pending: deque,
        outcome: CampaignOutcome,
        telemetry,
        index: int,
        attempt: int,
    ) -> None:
        """Validate and adopt a persisted checkpoint for a finished job.

        Success is decided purely by payload validity on disk — the
        payload is persisted before it is adopted, so a crash at any
        point leaves a resumable campaign.
        """
        assert self.store is not None
        try:
            payload = self.store.read_job(index)
            if payload is None:
                raise ValueError("checkpoint missing after worker exit")
            result = result_from_payload(specs[index], payload)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self._fail_job(
                specs,
                attempts,
                pending,
                outcome,
                index,
                "corrupt-payload",
                detail=str(exc),
            )
            return
        outcome.results[index] = result
        outcome.executed += 1
        obs.incr("engine.jobs")
        obs.observe("engine.job_seconds", result.elapsed_seconds)
        obs.observe("run.med", result.med)
        if telemetry is not None and isinstance(payload.get("telemetry"), list):
            telemetry.absorb(payload["telemetry"], worker=index)
        self._sync_hub(outcome)
        obs.event(
            "engine.job_completed",
            job=index,
            label=specs[index].label,
            attempt=attempt,
            med=result.med,
            elapsed=result.elapsed_seconds,
        )
        completed_event(specs[index], result, worker=index)
        fault = self.faults.engine_fault(index)
        if fault is not None:
            # Injected engine death: flush what we have, then die the
            # hard way (SIGKILL) exactly as a crashed orchestrator
            # would — the resume path must make this invisible.
            obs.incr("faults.injected")
            if telemetry is not None:
                telemetry.flush()
            os.kill(os.getpid(), signal.SIGKILL)

    def _supervise(
        self,
        specs: List[RunSpec],
        pending: deque,
        outcome: CampaignOutcome,
    ) -> None:
        """Run the pending jobs on a warm pool with timeout, retry and quarantine.

        Workers ship payloads over their result pipe; the parent writes
        each checkpoint atomically and then adopts it by reading it
        back, so a resumed campaign sees exactly what a live one did.
        A timed out or crashed worker is killed and replaced (the pool
        restarts it); its job re-enters ``pending`` like any other
        failure.
        """
        from .pool import WorkerPool

        assert self.store is not None
        config = self.config
        telemetry = obs.current()
        attempts: Dict[int, int] = {}
        running: Dict[int, Optional[float]] = {}  # index -> deadline

        def fail(index: int, reason: str, detail: str = "") -> None:
            self._fail_job(
                specs, attempts, pending, outcome, index, reason, detail
            )

        pool = WorkerPool(
            min(config.n_jobs, max(1, len(pending))),
            capture_telemetry=telemetry is not None,
        )
        try:
            while pending or running:
                while pending and pool.has_idle():
                    index = pending.popleft()
                    attempt = attempts.get(index, 0)
                    fault = self._prepare_attempt(index, attempt)
                    pool.submit(index, specs[index], attempt, fault)
                    running[index] = (
                        time.monotonic() + config.job_timeout
                        if config.job_timeout is not None
                        else None
                    )
                self._sync_hub(outcome, running=len(running), pool=pool)
                for event in pool.wait(POLL_INTERVAL):
                    running.pop(event.index, None)
                    if event.kind == "ok":
                        if event.raw is not None:
                            # injected corruption: persist the garbage
                            # so the read-back rejects it
                            self.store.write_job_raw(event.index, event.raw)
                        else:
                            self.store.write_job(event.index, event.payload)
                        self._finish_job(
                            specs,
                            attempts,
                            pending,
                            outcome,
                            telemetry,
                            event.index,
                            event.attempt,
                        )
                    elif event.kind == "error":
                        fail(event.index, "worker-error", event.detail)
                    else:
                        fail(event.index, f"worker-exit:{event.exitcode}")
                now = time.monotonic()
                for index, deadline in list(running.items()):
                    if deadline is not None and now > deadline:
                        pool.kill_job(index)
                        del running[index]
                        outcome.timeouts += 1
                        obs.incr("engine.timeouts")
                        fail(
                            index,
                            "timeout",
                            detail=f"exceeded {config.job_timeout}s",
                        )
        finally:
            pool.close()


# ======================================================================
# Experiment campaign orchestration (CLI `run` / `resume` / `status`)
# ======================================================================
_EXPERIMENTS = ("table2", "fig5")


def _run_experiment(experiment: str, scale, base_seed: int, engine: Engine):
    from .fig5 import run_fig5
    from .table2 import run_table2

    if experiment == "table2":
        return run_table2(scale, base_seed=base_seed, engine=engine)
    if experiment == "fig5":
        return run_fig5(scale, base_seed=base_seed, engine=engine)
    raise CampaignError(
        f"unknown experiment {experiment!r}; choose from {_EXPERIMENTS}"
    )


def run_experiment_campaign(
    experiment: str,
    scale,
    base_seed: int = 0,
    campaign_dir: Optional[str] = None,
    config: Optional[EngineConfig] = None,
    faults: Optional[faults_mod.FaultPlan] = None,
) -> Tuple[Any, CampaignOutcome]:
    """Run a paper experiment as a checkpointed campaign.

    ``scale`` is an :class:`~repro.experiments.runner.ExperimentScale`
    or a registered scale name.  Returns the experiment result object
    and the engine outcome (resume/retry/quarantine accounting).
    """
    from .runner import ExperimentScale

    if isinstance(scale, str):
        scale = ExperimentScale.by_name(scale)
    engine = Engine(campaign_dir, config, faults)
    engine.invocation = {
        "experiment": experiment,
        "scale": scale.name,
        "base_seed": base_seed,
    }
    result = _run_experiment(experiment, scale, base_seed, engine)
    assert engine.last_outcome is not None
    return result, engine.last_outcome


def _load_manifest(campaign_dir: str) -> Dict[str, Any]:
    manifest = LocalStore(campaign_dir).read_manifest()
    if manifest is None:
        raise CampaignError(f"no campaign found at {campaign_dir}")
    return manifest


def resume_campaign(
    campaign_dir: str,
    config: Optional[EngineConfig] = None,
    faults: Optional[faults_mod.FaultPlan] = None,
) -> Tuple[Any, CampaignOutcome]:
    """Resume an interrupted campaign from its checkpoint directory.

    Rebuilds the spec list from the invocation recorded in
    ``campaign.json``; completed jobs are adopted from their checkpoint
    files (never re-executed), the rest run to completion.  Only the
    invocation and the job fingerprints are read back, so manifest
    fields this engine no longer knows are ignored.
    """
    manifest = _load_manifest(campaign_dir)
    invocation = manifest.get("invocation")
    if not invocation:
        raise CampaignError(
            f"{campaign_dir} records no invocation; it was not created by "
            "`repro run` — resume it by re-running the original engine call"
        )
    return run_experiment_campaign(
        invocation["experiment"],
        invocation["scale"],
        int(invocation.get("base_seed") or 0),
        campaign_dir,
        config,
        faults,
    )


@dataclass
class CampaignStatus:
    """Snapshot of a checkpoint directory's progress."""

    campaign_dir: str
    invocation: Optional[Dict[str, Any]]
    total: int
    done: List[str] = field(default_factory=list)
    pending: List[str] = field(default_factory=list)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)

    def render(self) -> str:
        header = f"campaign {self.campaign_dir}"
        if self.invocation:
            header += (
                f" — {self.invocation.get('experiment')}"
                f" (scale={self.invocation.get('scale')},"
                f" seed={self.invocation.get('base_seed')})"
            )
        rows = [
            ["done", len(self.done)],
            ["pending", len(self.pending)],
            ["quarantined", len(self.quarantined)],
            ["total", self.total],
        ]
        lines = [reporting.format_table(["state", "jobs"], rows, title=header)]
        for failure in self.quarantined:
            lines.append(
                f"  quarantined {failure.get('label', '?')}: "
                f"{failure.get('reason', '?')} "
                f"after {failure.get('attempts', '?')} attempt(s)"
            )
        return "\n".join(lines)


def campaign_status(campaign_dir: str) -> CampaignStatus:
    """Inspect a checkpoint directory without executing anything."""
    manifest = _load_manifest(campaign_dir)
    jobs = manifest.get("jobs", [])
    status = CampaignStatus(
        campaign_dir=campaign_dir,
        invocation=manifest.get("invocation"),
        total=len(jobs),
    )
    store = LocalStore(campaign_dir)
    for index, job in enumerate(jobs):
        label = job.get("label", job["id"])
        quarantine_path = store.quarantine_path(index)
        if os.path.exists(store.job_path(index)):
            status.done.append(label)
        elif os.path.exists(quarantine_path):
            with open(quarantine_path) as handle:
                status.quarantined.append(json.load(handle))
        else:
            status.pending.append(label)
    return status
