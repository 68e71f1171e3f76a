"""Deterministic fault injection for the experiment engine.

The checkpointed engine (:mod:`repro.experiments.engine`) and its
chaos tests need *reproducible* failures: a fault plan names exactly
which jobs fail, how, and on which attempt, so a test (or the CI chaos
job) can assert that the recovered campaign is byte-identical to a
fault-free one and that the retry/quarantine counters match the plan.

A plan is a ``;``-separated list of fault specs::

    crash@3             worker for job 3 dies (os._exit) on attempt 0
    hang@5              worker for job 5 hangs (parent must time it out)
    corrupt@2           worker writes a truncated payload, then exits 0
    crash@4#1           fires on retry attempt 1 instead of attempt 0
    crash@4#*           fires on *every* attempt (makes job 4 poison)
    abort@3             SIGKILL the *engine* right after job 3 persists

Plans come from the ``REPRO_FAULTS`` environment variable (the CLI and
CI chaos job) or are passed programmatically to the engine.  With no
plan active every helper is a cheap no-op, and the engine's outputs
are byte-identical to the unfaulted path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "WORKER_KINDS",
    "ENGINE_KINDS",
    "CRASH_EXIT_CODE",
    "Fault",
    "FaultPlan",
    "from_env",
    "inject_worker_fault",
]

#: environment variable holding the active fault plan
ENV_VAR = "REPRO_FAULTS"

#: faults executed inside a worker process
WORKER_KINDS = ("crash", "hang", "corrupt")

#: faults executed by the engine (parent) process
ENGINE_KINDS = ("abort",)

#: exit status of a worker killed by an injected crash
CRASH_EXIT_CODE = 66

#: how long an injected hang sleeps — far beyond any sane job timeout
HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class Fault:
    """One planned failure.

    ``attempt`` selects which execution attempt of the job the fault
    fires on (0 = first try); ``None`` means every attempt, which turns
    the job into a poison job that must end up quarantined.
    """

    kind: str
    job_index: int
    attempt: Optional[int] = 0

    def __post_init__(self) -> None:
        known = WORKER_KINDS + ENGINE_KINDS
        if self.kind not in known:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {known}"
            )
        if self.job_index < 0:
            raise ValueError("job_index must be >= 0")
        if self.attempt is not None and self.attempt < 0:
            raise ValueError("attempt must be >= 0 (or None for every attempt)")

    def render(self) -> str:
        spec = f"{self.kind}@{self.job_index}"
        if self.attempt is None:
            return f"{spec}#*"
        if self.attempt != 0:
            return f"{spec}#{self.attempt}"
        return spec

    @classmethod
    def parse(cls, text: str) -> "Fault":
        spec = text.strip()
        if "@" not in spec:
            raise ValueError(
                f"bad fault spec {text!r}: expected kind@jobindex[#attempt]"
            )
        kind, _, rest = spec.partition("@")
        index_text, hash_mark, attempt_text = rest.partition("#")
        attempt: Optional[int] = 0
        try:
            index = int(index_text)
            if hash_mark:
                attempt = None if attempt_text == "*" else int(attempt_text)
        except ValueError:
            raise ValueError(
                f"bad fault spec {text!r}: job index and attempt must be "
                "integers (kind@jobindex[#attempt|#*])"
            ) from None
        return cls(kind.strip(), index, attempt)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, ordered collection of planned faults."""

    faults: Tuple[Fault, ...] = ()

    @classmethod
    def parse(cls, text: Optional[str]) -> "FaultPlan":
        """Parse a ``;``-separated plan string (empty/None = no faults)."""
        if not text or not text.strip():
            return cls()
        return cls(
            tuple(Fault.parse(part) for part in text.split(";") if part.strip())
        )

    def render(self) -> str:
        return ";".join(fault.render() for fault in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def counts(self) -> Dict[str, int]:
        """Histogram of fault kinds, e.g. ``{"crash": 2, "hang": 1}``."""
        histogram: Dict[str, int] = {}
        for fault in self.faults:
            histogram[fault.kind] = histogram.get(fault.kind, 0) + 1
        return histogram

    def worker_fault(self, job_index: int, attempt: int) -> Optional[Fault]:
        """The worker-side fault to inject for this (job, attempt), if any."""
        for fault in self.faults:
            if (
                fault.kind in WORKER_KINDS
                and fault.job_index == job_index
                and (fault.attempt is None or fault.attempt == attempt)
            ):
                return fault
        return None

    def engine_fault(self, job_index: int) -> Optional[Fault]:
        """The engine-side fault that fires once this job has persisted."""
        for fault in self.faults:
            if fault.kind in ENGINE_KINDS and fault.job_index == job_index:
                return fault
        return None


def from_env(environ=os.environ) -> FaultPlan:
    """The plan configured via ``REPRO_FAULTS`` (empty when unset)."""
    return FaultPlan.parse(environ.get(ENV_VAR))


def inject_worker_fault(fault: Optional[Fault]) -> None:
    """Execute a pre-computation worker fault (crash / hang).

    ``corrupt`` is handled by the worker's persistence step (the
    computation itself succeeds; the payload written is garbage), so it
    is a no-op here.
    """
    if fault is None:
        return
    if fault.kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if fault.kind == "hang":
        time.sleep(HANG_SECONDS)
