"""One-shot compilation as a library call: the ``repro compile`` body.

Both the CLI subcommand and the serve daemon (:mod:`repro.serve`) go
through :func:`compile_one` / :func:`artifact_from_result`, so a
served response is byte-identical to an offline compile by
construction — there is exactly one code path that turns a request
into an artifact.

The contract that makes this work: :meth:`RunSpec.execute` with
``direct_seed == config.seed`` drives ``run_bssa`` / ``run_dalta``
with ``np.random.default_rng(config.seed)`` — precisely the generator
:func:`repro.approximate` builds when no explicit ``rng`` is passed —
so wrapping a compilation in a :class:`RunSpec` (the picklable form
the warm pool executes) changes nothing about the search.

An artifact is a plain JSON-able dict.  Everything inside it is
deterministic (settings, MED, Verilog text, error metrics); wall-clock
timing lives *outside* the artifact, in :class:`CompileArtifact`'s
``elapsed_seconds``, so artifacts can be byte-compared across cache
layers, processes, and daemon restarts.
"""

from __future__ import annotations

import dataclasses
import json
import time
from typing import Any, Dict, Optional, Sequence

import numpy as np

from . import workloads
from .boolean.function import BooleanFunction
from .core import serialize
from .core.compiler import ALGORITHMS, ARCHITECTURES, ApproxLUT
from .core.config import AlgorithmConfig
from .core.result import ApproximationResult
from .experiments.parallel import RunSpec
from .metrics import distributions

__all__ = [
    "ARTIFACT_SCHEMA",
    "BUDGETS",
    "CompileArtifact",
    "artifact_from_result",
    "build_run_spec",
    "build_target",
    "budget_config",
    "canonical_json",
    "compile_one",
    "requested_architecture",
]

#: version stamp inside every compiled artifact payload
ARTIFACT_SCHEMA = 1

#: named search budgets exposed by ``repro compile --budget`` and the
#: daemon's ``"budget"`` request knob
BUDGETS = {
    "fast": AlgorithmConfig.fast,
    "reduced": AlgorithmConfig.reduced,
    "paper": AlgorithmConfig.paper_bssa,
}

#: largest raw truth table accepted (2**16 rows = a 16-bit function)
MAX_TABLE_BITS = 16


def budget_config(budget: str, seed: Optional[int] = 0) -> AlgorithmConfig:
    """Resolve a named budget to a seeded :class:`AlgorithmConfig`."""
    try:
        factory = BUDGETS[budget]
    except KeyError:
        raise ValueError(
            f"unknown budget {budget!r}; choose from {sorted(BUDGETS)}"
        )
    config = factory()
    if seed is not None:
        config = config.with_seed(seed)
    return config


def build_target(
    benchmark: Optional[str] = None,
    bits: int = 10,
    table: Optional[Sequence[int]] = None,
    n_outputs: Optional[int] = None,
    name: Optional[str] = None,
) -> BooleanFunction:
    """Materialise the compilation target.

    Exactly one of ``benchmark`` (a registered workload name, built at
    ``bits`` inputs) or ``table`` (a raw truth table of ``2**n``
    output words, requiring ``n_outputs``) must be given.
    """
    if (benchmark is None) == (table is None):
        raise ValueError("give exactly one of benchmark= or table=")
    if table is not None:
        if n_outputs is None:
            raise ValueError("a raw table needs n_outputs=")
        rows = len(table)
        n_inputs = max(rows - 1, 0).bit_length()
        if rows < 2 or rows != (1 << n_inputs):
            raise ValueError(
                f"table length must be a power of two >= 2, got {rows}"
            )
        if n_inputs > MAX_TABLE_BITS:
            raise ValueError(
                f"table too large: {n_inputs} input bits "
                f"(limit {MAX_TABLE_BITS})"
            )
        return BooleanFunction(
            n_inputs, int(n_outputs), np.asarray(table), name=name or ""
        )
    return workloads.get(benchmark, n_inputs=bits)


def build_run_spec(
    target: BooleanFunction,
    architecture: str = "bto-normal-nd",
    algorithm: str = "bs-sa",
    config: Optional[AlgorithmConfig] = None,
) -> RunSpec:
    """Wrap one compilation in the picklable :class:`RunSpec` form.

    The hardware ``architecture`` maps onto the search architecture the
    same way :func:`repro.approximate` maps it (``"dalta"`` hardware
    searches in plain ``"normal"`` mode); ``direct_seed`` is pinned to
    ``config.seed`` so :meth:`RunSpec.execute` draws the identical
    generator.  The mapping is bijective over ``ARCHITECTURES``, so
    ``spec.fingerprint()`` uniquely keys the finished artifact.
    """
    if architecture not in ARCHITECTURES:
        raise ValueError(
            f"unknown architecture {architecture!r}; "
            f"choose from {ARCHITECTURES}"
        )
    if algorithm not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    if config is None:
        config = budget_config("reduced")
    search_arch = "normal" if architecture == "dalta" else architecture
    return RunSpec.for_function(
        algorithm,
        target,
        config,
        base_seed=None,
        spawn_index=0,
        architecture=search_arch,
        direct_seed=config.seed,
    )


def requested_architecture(spec: RunSpec) -> str:
    """Invert the search-architecture mapping of :func:`build_run_spec`."""
    return "dalta" if spec.architecture == "normal" else spec.architecture


def _jsonable(value: Any) -> Any:
    """Recursively coerce numpy scalars so ``json.dumps`` round-trips."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def canonical_json(payload: Dict[str, Any]) -> str:
    """The byte form artifacts are compared in, everywhere."""
    return json.dumps(payload, sort_keys=True)


@dataclasses.dataclass
class CompileArtifact:
    """A finished compilation: deterministic payload + timing sidecar.

    ``payload`` is the JSON document served by the daemon and stored
    in the artifact cache; it contains nothing non-deterministic.
    ``lut`` keeps the in-process :class:`ApproxLUT` for callers (the
    CLI) that want the hardware report or ``serialize.save``.
    """

    payload: Dict[str, Any]
    lut: ApproxLUT
    spec: RunSpec
    elapsed_seconds: float = 0.0

    @property
    def fingerprint(self) -> str:
        return self.payload["fingerprint"]

    @property
    def med(self) -> float:
        return self.payload["med"]

    def canonical(self) -> str:
        return canonical_json(self.payload)


def artifact_from_result(
    spec: RunSpec,
    result: ApproximationResult,
    elapsed_seconds: float = 0.0,
) -> CompileArtifact:
    """Build the served artifact from a finished search result.

    ``result`` may come from an in-process :meth:`RunSpec.execute` or
    from a pool worker's checkpoint payload round-tripped through
    :func:`repro.experiments.engine.result_from_payload` — both carry
    the exact same settings and floats, so the artifact is identical
    either way.  Search timing/statistics are deliberately excluded:
    the payload must be byte-stable across processes and cache layers.
    """
    architecture = requested_architecture(spec)
    target = spec.target_function()
    p = distributions.uniform(target.n_inputs)
    lut = ApproxLUT(target, result, architecture, p)
    payload = _jsonable(
        {
            "schema": ARTIFACT_SCHEMA,
            "fingerprint": spec.fingerprint(),
            "target": {
                "name": target.name,
                "n_inputs": target.n_inputs,
                "n_outputs": target.n_outputs,
            },
            "architecture": architecture,
            "algorithm": spec.algorithm,
            "seed": spec.seed_info(),
            "med": lut.med,
            "mode_counts": lut.mode_counts(),
            "lut_bits": lut.lut_entries(),
            "error": lut.error_report().as_dict(),
            "hardware": {"report": lut.hardware().report()},
            "config": json.loads(serialize.dumps(lut)),
            "verilog": lut.to_verilog(),
        }
    )
    return CompileArtifact(
        payload=payload, lut=lut, spec=spec, elapsed_seconds=elapsed_seconds
    )


def compile_one(
    benchmark: Optional[str] = None,
    *,
    bits: int = 10,
    table: Optional[Sequence[int]] = None,
    n_outputs: Optional[int] = None,
    name: Optional[str] = None,
    architecture: str = "bto-normal-nd",
    algorithm: str = "bs-sa",
    budget: str = "reduced",
    seed: Optional[int] = 0,
    config: Optional[AlgorithmConfig] = None,
) -> CompileArtifact:
    """Compile one target in-process and return its artifact.

    This is the ``repro compile`` body as a library call; the serve
    daemon executes the same :class:`RunSpec` in a pool worker and
    builds its artifact with :func:`artifact_from_result` — both
    produce byte-identical payloads.
    """
    if config is None:
        config = budget_config(budget, seed)
    elif seed is not None:
        config = config.with_seed(seed)
    target = build_target(
        benchmark, bits=bits, table=table, n_outputs=n_outputs, name=name
    )
    spec = build_run_spec(target, architecture, algorithm, config)
    start = time.perf_counter()
    result = spec.execute()
    elapsed = time.perf_counter() - start
    return artifact_from_result(spec, result, elapsed_seconds=elapsed)
