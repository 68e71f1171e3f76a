"""Repeated algorithm runs described as picklable job specs.

The paper parallelises OptForPart calls over 44 threads; the Python
port instead batches them within a run (each BS-SA, DALTA or ND
generation is one stacked kernel call) and parallelises at the coarser
repeated-run granularity (independent seeds of whole algorithm runs),
which needs no shared state and keeps every run bit-identical to its
serial counterpart.

A :class:`RunSpec` carries plain data (truth table, config, seed), so
jobs pickle cleanly on every platform.  Seeding uses
``np.random.SeedSequence(base_seed).spawn(...)`` — the same spawn the
serial :func:`repro.experiments.runner.repeated_runs` performs — so a
spec's run is bit-identical to the serial one, and
:meth:`RunSpec.seed_info` exposes the spawned seed for run manifests.

:func:`run_many` executes a job list in this process, in order.
Multi-process execution is the campaign engine's
(:class:`repro.experiments.engine.Engine`, on the warm worker pool);
it executes the same specs through :meth:`RunSpec.execute`, so both
give the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np
# numpy 2 loads numpy.random on first use.  Load it with this module, so
# forked campaign jobs inherit it rather than each importing it again.
import numpy.random  # noqa: F401

from .. import obs
from ..boolean.function import BooleanFunction
from ..core.bs_sa import run_bssa
from ..core.config import AlgorithmConfig
from ..core.dalta import run_dalta
from ..core.result import ApproximationResult

__all__ = ["RunSpec", "run_many"]


class RunSpec:
    """One algorithm run, described by picklable data.

    Seeding comes in two flavours: the default *spawned* mode draws the
    run's generator from ``SeedSequence(base_seed).spawn(...)`` exactly
    like the serial runner, while ``direct_seed`` pins the generator to
    ``np.random.default_rng(direct_seed)`` — the form the Fig. 5
    harness uses for its single BS-SA compilations.
    """

    def __init__(
        self,
        algorithm: str,
        table: np.ndarray,
        n_inputs: int,
        n_outputs: int,
        name: str,
        config: AlgorithmConfig,
        base_seed: Optional[int],
        spawn_index: int,
        architecture: str = "normal",
        direct_seed: Optional[int] = None,
    ) -> None:
        if algorithm not in ("dalta", "bs-sa"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.table = np.asarray(table, dtype=np.int64)
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.name = name
        self.config = config
        self.base_seed = base_seed
        self.spawn_index = int(spawn_index)
        self.architecture = architecture
        self.direct_seed = direct_seed

    @classmethod
    def for_function(
        cls,
        algorithm: str,
        target: BooleanFunction,
        config: AlgorithmConfig,
        base_seed: Optional[int],
        spawn_index: int,
        architecture: str = "normal",
        direct_seed: Optional[int] = None,
    ) -> "RunSpec":
        return cls(
            algorithm,
            target.table,
            target.n_inputs,
            target.n_outputs,
            target.name,
            config,
            base_seed,
            spawn_index,
            architecture,
            direct_seed,
        )

    def target_function(self) -> BooleanFunction:
        """Materialise the target this spec runs against."""
        return BooleanFunction(
            self.n_inputs, self.n_outputs, self.table, name=self.name
        )

    def fingerprint(self) -> str:
        """Content digest binding a durable campaign job to this spec.

        Covers everything that determines the run's output — the target
        table, the algorithm configuration, and the seeding — so a
        checkpoint directory can refuse to resume against a different
        campaign definition.
        """
        digest = hashlib.sha256()
        digest.update(self.table.tobytes())
        descriptor = {
            "algorithm": self.algorithm,
            "name": self.name,
            "n_inputs": self.n_inputs,
            "n_outputs": self.n_outputs,
            "config": dataclasses.asdict(self.config),
            "base_seed": self.base_seed,
            "spawn_index": self.spawn_index,
            "architecture": self.architecture,
            "direct_seed": self.direct_seed,
        }
        digest.update(json.dumps(descriptor, sort_keys=True).encode())
        return digest.hexdigest()[:16]

    @property
    def label(self) -> str:
        """Human-readable job label for status displays."""
        seed = (
            f"seed={self.direct_seed}"
            if self.direct_seed is not None
            else f"run={self.spawn_index}"
        )
        return f"{self.name}/{self.algorithm}/{self.architecture}[{seed}]"

    def seed_sequence(self) -> np.random.SeedSequence:
        """The spawned child seed, exactly as the serial runner spawns it.

        ``SeedSequence(base_seed).spawn(k)[i]`` is the canonical spawn
        the serial :func:`repeated_runs` performs, so worker run ``i``
        is bit-identical to serial run ``i`` by construction.
        """
        return np.random.SeedSequence(self.base_seed).spawn(
            self.spawn_index + 1
        )[self.spawn_index]

    def seed_info(self) -> Dict[str, Any]:
        """Manifest record of the seed driving this run."""
        if self.direct_seed is not None:
            return {
                "benchmark": self.name,
                "algorithm": self.algorithm,
                "direct_seed": self.direct_seed,
            }
        sequence = self.seed_sequence()
        return {
            "benchmark": self.name,
            "algorithm": self.algorithm,
            "base_seed": self.base_seed,
            "spawn_index": self.spawn_index,
            "spawn_key": list(sequence.spawn_key),
            "state": [int(w) for w in sequence.generate_state(4)],
        }

    def _rng(self) -> np.random.Generator:
        """Identical to run ``spawn_index`` of the serial repeated_runs.

        In direct-seed mode, ``np.random.default_rng(direct_seed)``.
        """
        if self.direct_seed is not None:
            return np.random.default_rng(self.direct_seed)
        return np.random.default_rng(self.seed_sequence())

    def execute(self) -> ApproximationResult:
        # Re-seed the legacy global NumPy state from the same spawned
        # sequence: the algorithms only use the explicit generator, but
        # this pins down any incidental np.random.* use in workloads.
        if self.direct_seed is not None:
            np.random.seed(self.direct_seed % (2**32))
        else:
            sequence = self.seed_sequence()
            np.random.seed(int(sequence.generate_state(1)[0]) % (2**32))
        target = self.target_function()
        if self.algorithm == "dalta":
            return run_dalta(target, self.config, rng=self._rng())
        return run_bssa(
            target, self.config, rng=self._rng(), architecture=self.architecture
        )


def run_many(specs: Sequence[RunSpec]) -> List[ApproximationResult]:
    """Execute run specs in this process, in spec order.

    Under an active telemetry session every spec records its seed
    (``run.seeded``) and every run its MED (``run.med``) and a
    ``run.completed`` event (one progress line on the stderr sink) —
    the records the campaign engine emits for its jobs.
    """
    telemetry = obs.current()
    if telemetry is not None:
        for spec in specs:
            telemetry.event("run.seeded", **spec.seed_info())
    results = []
    for spec in specs:
        result = spec.execute()
        if telemetry is not None:
            obs.observe("run.med", result.med)
            completed_event(spec, result)
        results.append(result)
    return results


def completed_event(spec: RunSpec, result: ApproximationResult, **attrs) -> None:
    """Emit the ``run.completed`` progress event of one finished run."""
    obs.event(
        "run.completed",
        benchmark=spec.name,
        algorithm=spec.algorithm,
        seed=spec.spawn_index,
        elapsed=result.elapsed_seconds,
        **attrs,
    )
