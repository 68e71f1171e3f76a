"""Common experiment plumbing: scales, repeated runs, workload caching."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..boolean.function import BooleanFunction
from ..core.config import AlgorithmConfig
from ..core.result import ApproximationResult
from ..workloads import registry

__all__ = [
    "ExperimentScale",
    "SCALE_NAMES",
    "build_suite",
    "repeated_runs",
    "repeat_specs",
]

#: registered scale names accepted by :meth:`ExperimentScale.by_name`
SCALE_NAMES = ("smoke", "default", "paper")


@dataclass(frozen=True)
class ExperimentScale:
    """One knob for "paper scale vs laptop scale".

    The paper runs 16-bit benchmarks with P=500/1000 and 10 repeats on
    a 48-core machine; the default scale keeps every code path
    identical but shrinks the function width and search budgets so the
    whole harness reruns in minutes on one core.
    """

    name: str
    n_inputs: int
    n_runs: int
    dalta_config: AlgorithmConfig
    bssa_config: AlgorithmConfig
    benchmarks: Sequence[str] = field(default_factory=registry.names)
    #: worker processes for repeated runs (1 = serial; results are
    #: bit-identical either way)
    n_jobs: int = 1

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """The exact Section V setup (hours of compute in pure Python)."""
        return cls(
            name="paper",
            n_inputs=16,
            n_runs=10,
            dalta_config=AlgorithmConfig.paper_dalta(),
            bssa_config=AlgorithmConfig.paper_bssa(),
        )

    @classmethod
    def default(cls) -> "ExperimentScale":
        """Laptop scale: 12-bit functions, reduced budgets, 3 repeats.

        DALTA keeps its 2x partition budget relative to BS-SA, exactly
        as in the paper (P = 1000 vs 500).
        """
        from dataclasses import replace

        bssa = AlgorithmConfig.reduced()
        dalta = replace(bssa, partition_limit=2 * bssa.partition_limit)
        return cls(
            name="default",
            n_inputs=12,
            n_runs=3,
            dalta_config=dalta,
            bssa_config=bssa,
        )

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """CI scale: tiny functions, two benchmarks, seconds end-to-end."""
        bssa = AlgorithmConfig.fast()
        from dataclasses import replace

        dalta = replace(bssa, partition_limit=2 * bssa.partition_limit)
        return cls(
            name="smoke",
            n_inputs=8,
            n_runs=2,
            dalta_config=dalta,
            bssa_config=bssa,
            benchmarks=("cos", "multiplier"),
        )

    @classmethod
    def by_name(cls, name: str) -> "ExperimentScale":
        """Resolve a registered scale name (see :data:`SCALE_NAMES`)."""
        if name not in SCALE_NAMES:
            raise ValueError(
                f"unknown scale {name!r}; choose from {', '.join(SCALE_NAMES)}"
            )
        return getattr(cls, name)()


def build_suite(scale: ExperimentScale) -> Dict[str, BooleanFunction]:
    """Materialise the benchmark functions for a scale."""
    return {
        name: registry.get(name, scale.n_inputs) for name in scale.benchmarks
    }


def repeat_specs(
    algorithm: str,
    target: BooleanFunction,
    config: AlgorithmConfig,
    n_runs: int,
    base_seed: Optional[int],
    architecture: str = "normal",
):
    """Build the :class:`RunSpec` list for ``n_runs`` repeated runs.

    Spec ``i`` is bit-identical to serial run ``i`` of
    :func:`repeated_runs` under the same ``base_seed`` — this is the
    single place the Table-II / Fig-5 harnesses and the checkpointed
    engine derive their repeated-run jobs from.
    """
    from .parallel import RunSpec

    return [
        RunSpec.for_function(
            algorithm, target, config, base_seed, index, architecture
        )
        for index in range(n_runs)
    ]


def repeated_runs(
    run: Callable[[np.random.Generator], ApproximationResult],
    n_runs: int,
    base_seed: Optional[int] = 0,
) -> List[ApproximationResult]:
    """Execute ``run`` with independent per-run generators.

    Seeds are spawned deterministically from ``base_seed`` so repeated
    experiments are reproducible while runs stay independent.
    """
    seed_seq = np.random.SeedSequence(base_seed)
    children = seed_seq.spawn(n_runs)
    results: List[ApproximationResult] = []
    for index, child in enumerate(children):
        if obs.enabled():
            obs.event(
                "run.seeded",
                base_seed=base_seed,
                spawn_index=index,
                spawn_key=list(child.spawn_key),
                state=[int(w) for w in child.generate_state(4)],
            )
        with obs.span("experiment.run", run=index):
            result = run(np.random.default_rng(child))
        if obs.enabled():
            med = getattr(result, "med", None)
            if med is not None:
                obs.observe("run.med", med)
            obs.event(
                "run.completed",
                benchmark=getattr(
                    getattr(result, "target", None), "name", None
                ),
                algorithm=getattr(result, "algorithm", None),
                seed=index,
                elapsed=getattr(result, "elapsed_seconds", None),
            )
        results.append(result)
    return results
