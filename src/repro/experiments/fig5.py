"""Fig. 5: architecture comparison (MED / area / latency / energy).

Builds, for every benchmark, the five architectures the paper compares:

* ``roundout`` — output-rounding baseline, ``q`` tuned per benchmark so
  its MED exceeds DALTA's (the paper's §V-B rule),
* ``roundin`` — input-rounding baseline at the paper's relative block
  width (``w = 6`` at 16 inputs, scaled proportionally),
* ``dalta`` — DALTA configured with its best-of-``n_runs`` result,
* ``bto-normal`` and ``bto-normal-nd`` — the proposed reconfigurable
  architectures, compiled with a single BS-SA run (the paper runs
  BS-SA once "thanks to its high stability").

Each design is functionally verified (the VCS substitute) and measured
on the same 1024-read workload; the harness reports per-benchmark raw
numbers and the geometric means normalised to DALTA — exactly the
quantities plotted in Fig. 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..boolean.function import BooleanFunction
from ..hardware.architectures import (
    BtoNormalDesign,
    BtoNormalNdDesign,
    DaltaDesign,
    Design,
    RoundInDesign,
    RoundOutDesign,
)
from ..hardware.power import measure_energy, random_read_workload
from ..hardware.simulate import verify_design
from ..metrics import med
from . import reporting
from .parallel import RunSpec, run_many
from .runner import ExperimentScale, build_suite, repeat_specs

__all__ = ["Fig5Metrics", "Fig5Result", "run_fig5", "ARCHITECTURE_ORDER"]

ARCHITECTURE_ORDER = ("roundout", "roundin", "dalta", "bto-normal", "bto-normal-nd")

METRICS = ("med", "area", "latency", "energy")


@dataclass
class Fig5Metrics:
    """The four Fig. 5 metrics of one design on one benchmark."""

    med: float
    area: float
    latency: float
    energy: float
    verified: bool
    extra: Dict[str, float] = field(default_factory=dict)

    def get(self, metric: str) -> float:
        return getattr(self, metric)


@dataclass
class Fig5Result:
    """The regenerated Fig. 5 data."""

    scale_name: str
    n_inputs: int
    per_benchmark: Dict[str, Dict[str, Fig5Metrics]] = field(default_factory=dict)

    def geomeans(self) -> Dict[str, Dict[str, float]]:
        """metric -> architecture -> geomean over benchmarks."""
        result: Dict[str, Dict[str, float]] = {}
        for metric in METRICS:
            result[metric] = {
                arch: reporting.geomean(
                    bench[arch].get(metric) for bench in self.per_benchmark.values()
                )
                for arch in ARCHITECTURE_ORDER
            }
        return result

    def normalized(self) -> Dict[str, Dict[str, float]]:
        """Geomeans normalised to DALTA (the paper's presentation)."""
        return {
            metric: reporting.normalize_to(values, "dalta")
            for metric, values in self.geomeans().items()
        }

    def headline(self) -> Dict[str, float]:
        """The paper's headline deltas vs DALTA (positive = better)."""
        norm = self.normalized()
        return {
            "bto_normal_error_reduction": 1 - norm["med"]["bto-normal"],
            "bto_normal_energy_reduction": 1 - norm["energy"]["bto-normal"],
            "bto_normal_nd_error_reduction": 1 - norm["med"]["bto-normal-nd"],
            "bto_normal_nd_energy_delta": norm["energy"]["bto-normal-nd"] - 1,
            "bto_normal_nd_area_overhead": norm["area"]["bto-normal-nd"] - 1,
        }

    def all_verified(self) -> bool:
        return all(
            metrics.verified
            for bench in self.per_benchmark.values()
            for metrics in bench.values()
        )

    def render(self) -> str:
        norm = self.normalized()
        headers = ["metric (vs DALTA)"] + list(ARCHITECTURE_ORDER)
        body = [
            [metric] + [norm[metric][arch] for arch in ARCHITECTURE_ORDER]
            for metric in METRICS
        ]
        table = reporting.format_table(
            headers,
            body,
            title=(
                f"Fig. 5 reproduction — scale={self.scale_name}, "
                f"{self.n_inputs}-bit benchmarks (geomean, normalised to DALTA)"
            ),
        )
        headline = self.headline()
        footer = "\n".join(
            [
                "headline vs paper:",
                f"  BTO-Normal error reduction: "
                f"{100 * headline['bto_normal_error_reduction']:.1f}% (paper: 10.4%)",
                f"  BTO-Normal energy reduction: "
                f"{100 * headline['bto_normal_energy_reduction']:.1f}% (paper: 19.2%)",
                f"  BTO-Normal-ND error reduction: "
                f"{100 * headline['bto_normal_nd_error_reduction']:.1f}% (paper: 23.0%)",
                f"  BTO-Normal-ND energy delta: "
                f"{100 * headline['bto_normal_nd_energy_delta']:+.1f}% (paper: ~0%)",
                f"  BTO-Normal-ND area overhead: "
                f"{100 * headline['bto_normal_nd_area_overhead']:+.1f}% (paper: +29%)",
                f"functional verification: "
                f"{'all PASS' if self.all_verified() else 'FAILURES PRESENT'}",
            ]
        )
        return table + "\n" + footer

    def as_dict(self) -> dict:
        return {
            "scale": self.scale_name,
            "n_inputs": self.n_inputs,
            "per_benchmark": {
                bench: {
                    arch: {
                        "med": m.med,
                        "area": m.area,
                        "latency": m.latency,
                        "energy": m.energy,
                        "verified": m.verified,
                        **m.extra,
                    }
                    for arch, m in archs.items()
                }
                for bench, archs in self.per_benchmark.items()
            },
            "normalized_geomeans": self.normalized(),
            "headline": self.headline(),
        }


def _tune_roundout(target: BooleanFunction, dalta_med: float) -> RoundOutDesign:
    """Smallest ``q`` whose MED exceeds DALTA's (paper §V-B)."""
    for q in range(1, target.n_outputs):
        design = RoundOutDesign(target, q)
        if med(target.table, design.approx_table()) > dalta_med:
            return design
    return RoundOutDesign(target, target.n_outputs - 1)


def _tune_roundin(target: BooleanFunction, dalta_med: float) -> RoundInDesign:
    """The ``w`` whose MED is closest to DALTA's (paper: "comparable").

    At the paper's scale this lands on w = 6; at reduced scales the
    same rule keeps the comparison meaningful.
    """
    best: Optional[RoundInDesign] = None
    best_gap = float("inf")
    floor = max(dalta_med, 1e-9)
    for w in range(1, target.n_inputs):
        design = RoundInDesign(target, w)
        m = max(med(target.table, design.approx_table()), 1e-9)
        gap = abs(np.log(m / floor))
        if gap < best_gap:
            best, best_gap = design, gap
    assert best is not None
    return best


def _measure(
    design: Design, target: BooleanFunction, words: np.ndarray
) -> Fig5Metrics:
    verification = verify_design(design, words=words)
    energy = measure_energy(design, words=words)
    return Fig5Metrics(
        med=med(target.table, design.approx_table()),
        area=design.area_um2(),
        latency=design.critical_path_ps(),
        energy=energy.per_read_fj,
        verified=verification.passed,
        extra={"storage_bits": float(design.storage_bits())},
    )


def _fig5_specs(scale: ExperimentScale, target: BooleanFunction, base_seed: int):
    """Job list for one benchmark: DALTA repeats + the two BS-SA runs.

    The two BS-SA compilations pin their generators via ``direct_seed``
    to ``np.random.default_rng(base_seed + 17)`` and ``(base_seed +
    29)``.
    """
    specs = repeat_specs(
        "dalta", target, scale.dalta_config, scale.n_runs, base_seed
    )
    for architecture, offset in (("bto-normal", 17), ("bto-normal-nd", 29)):
        specs.append(
            RunSpec.for_function(
                "bs-sa",
                target,
                scale.bssa_config,
                None,
                0,
                architecture=architecture,
                direct_seed=base_seed + offset,
            )
        )
    return specs


def _benchmark_metrics(
    name: str,
    target: BooleanFunction,
    best_dalta,
    bto,
    nd,
    base_seed: int,
) -> Dict[str, Fig5Metrics]:
    """Build and measure the five designs from the compiled results."""
    words = random_read_workload(target.n_inputs, seed=base_seed)
    designs: Dict[str, Design] = {
        "roundout": _tune_roundout(target, best_dalta.med),
        "roundin": _tune_roundin(target, best_dalta.med),
        "dalta": DaltaDesign(f"{name}-dalta", target, best_dalta.sequence),
        "bto-normal": BtoNormalDesign(
            f"{name}-bto-normal", target, bto.sequence
        ),
        "bto-normal-nd": BtoNormalNdDesign(
            f"{name}-bto-normal-nd", target, nd.sequence
        ),
    }
    return {
        arch: _measure(design, target, words)
        for arch, design in designs.items()
    }


def run_fig5(
    scale: Optional[ExperimentScale] = None,
    base_seed: int = 0,
    engine=None,
) -> Fig5Result:
    """Regenerate the Fig. 5 comparison at the given scale.

    All algorithm runs are one job list: in this process without
    ``engine``, one checkpointed campaign with it (byte-identical
    either way).  Design construction and measurement stay in-process
    — they are deterministic and cheap relative to the searches.  A
    benchmark with quarantined jobs is dropped from the result.
    """
    if scale is None:
        scale = ExperimentScale.default()
    suite = build_suite(scale)
    specs = [
        spec
        for target in suite.values()
        for spec in _fig5_specs(scale, target, base_seed)
    ]
    results = engine.run(specs).results if engine is not None else run_many(specs)

    result = Fig5Result(scale.name, scale.n_inputs)
    per_bench = scale.n_runs + 2
    for index, (name, target) in enumerate(suite.items()):
        block = results[index * per_bench : (index + 1) * per_bench]
        # DALTA: best of n_runs, as the paper configures it; the
        # proposed architectures: one BS-SA run each.
        dalta_runs = [r for r in block[: scale.n_runs] if r is not None]
        bto, nd = block[scale.n_runs :]
        if not dalta_runs or bto is None or nd is None:
            continue
        best_dalta = min(dalta_runs, key=lambda r: r.med)
        result.per_benchmark[name] = _benchmark_metrics(
            name, target, best_dalta, bto, nd, base_seed
        )
    return result
