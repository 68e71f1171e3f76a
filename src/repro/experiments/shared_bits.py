"""Extension study: how many shared bits should non-disjoint sharing use?

The paper restricts the shared set ``C`` to one variable "so that the
hardware cost is not increased too much" (§IV-B1).  This study
quantifies that choice: for ``s = 0`` (plain disjoint), ``1`` (the
paper) and ``2`` (the generalisation), it compiles every output bit
with the best ``s``-shared decomposition found around the BS-SA
partitions, then measures the realised MED, LUT storage, area and
1024-read energy of the resulting homogeneous architecture.

Expected shape: error decreases with ``s`` with diminishing returns,
while storage/energy grow roughly with ``2**s`` free tables — the
trade-off that justifies the paper's ``s = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..boolean.function import BooleanFunction
from ..core.bs_sa import find_best_settings, run_bssa
from ..core.config import AlgorithmConfig
from ..core.cost import cost_vectors_fixed
from ..core.nondisjoint import optimize_multi_shared
from ..core.settings import Setting, SettingBits, SettingSequence
from ..hardware.architectures import DaltaDesign, MultiSharedNdDesign
from ..hardware.power import measure_energy, random_read_workload
from ..hardware.simulate import verify_design
from ..metrics import distributions
from ..workloads import registry
from . import reporting
from .runner import ExperimentScale

__all__ = ["SharedBitsPoint", "SharedBitsResult", "run_shared_bits_study"]


@dataclass
class SharedBitsPoint:
    """Measurements of one shared-set size on one benchmark."""

    n_shared: int
    med: float
    lut_bits: int
    area_um2: float
    energy_fj: float
    verified: bool


@dataclass
class SharedBitsResult:
    """The full study: benchmark -> [points for s = 0, 1, 2, ...]."""

    scale_name: str
    n_inputs: int
    rows: Dict[str, List[SharedBitsPoint]] = field(default_factory=dict)

    def geomean_med(self, n_shared: int) -> float:
        return reporting.geomean(
            next(pt.med for pt in points if pt.n_shared == n_shared)
            for points in self.rows.values()
        )

    def render(self) -> str:
        headers = ["benchmark", "s", "MED", "LUT bits", "area um^2", "fJ/read"]
        body = []
        for bench, points in self.rows.items():
            for pt in points:
                body.append(
                    [bench, pt.n_shared, pt.med, pt.lut_bits, pt.area_um2, pt.energy_fj]
                )
        shared_counts = sorted(
            {pt.n_shared for points in self.rows.values() for pt in points}
        )
        footer = "geomean MED by s: " + ", ".join(
            f"s={s}: {reporting.format_value(self.geomean_med(s))}"
            for s in shared_counts
        )
        table = reporting.format_table(
            headers,
            body,
            title=(
                f"Shared-bits study (extension) — scale={self.scale_name}, "
                f"{self.n_inputs}-bit benchmarks"
            ),
        )
        return table + "\n" + footer

    def as_dict(self) -> dict:
        return {
            "scale": self.scale_name,
            "n_inputs": self.n_inputs,
            "rows": {
                bench: [
                    {
                        "n_shared": pt.n_shared,
                        "med": pt.med,
                        "lut_bits": pt.lut_bits,
                        "area_um2": pt.area_um2,
                        "energy_fj": pt.energy_fj,
                    }
                    for pt in points
                ]
                for bench, points in self.rows.items()
            },
        }


def _nested_candidates(
    target: BooleanFunction,
    base: SettingSequence,
    max_shared: int,
    config: AlgorithmConfig,
    rng: np.random.Generator,
    p: np.ndarray,
) -> List[Dict[int, Setting]]:
    """Per output bit: the best setting allowed at each shared-set size.

    The choice sets nest — the size-``s`` candidate is the best of the
    disjoint candidate and every greedily-grown shared set up to size
    ``s`` — so per-bit candidate errors are monotone non-increasing in
    ``s`` *by construction*.  Candidates for all sizes are derived in
    one pass against the same base context so the comparison is not
    polluted by independent random streams.
    """
    candidates: List[Dict[int, Setting]] = []
    bits = SettingBits(target.n_inputs)
    for k in range(target.n_outputs):
        rest = base.rest_word(target, k, bits)
        costs = cost_vectors_fixed(target, rest, k)
        found = find_best_settings(costs, p, target.n_inputs, config, rng)
        best = found.best
        incumbent = base[k]
        if incumbent is not None and incumbent.mode == "normal":
            incumbent_error = costs.evaluate(bits(incumbent), p)
            if incumbent_error <= best.error:
                best = Setting(incumbent_error, incumbent.decomposition)

        per_size: Dict[int, Setting] = {0: best}
        partition = best.decomposition.partition
        chosen: List[int] = []
        current = best
        for size in range(1, max_shared + 1):
            if partition.n_bound <= size:
                per_size[size] = current
                continue
            best_bit, best_result = None, None
            for bit in partition.bound:
                if bit in chosen:
                    continue
                result = optimize_multi_shared(
                    costs,
                    p,
                    partition,
                    target.n_inputs,
                    chosen + [bit],
                    n_initial_patterns=config.n_initial_patterns,
                    rng=rng,
                )
                if best_result is None or result.error < best_result.error:
                    best_bit, best_result = bit, result
            if best_bit is None:
                per_size[size] = current
                continue
            chosen.append(best_bit)
            if best_result.error < current.error:
                current = Setting(best_result.error, best_result.decomposition)
            per_size[size] = current
        candidates.append(per_size)
    return candidates


def run_shared_bits_study(
    scale: Optional[ExperimentScale] = None,
    benchmarks: Sequence[str] = ("cos", "multiplier"),
    shared_sizes: Sequence[int] = (0, 1, 2),
    base_seed: int = 0,
) -> SharedBitsResult:
    """Run the study at the given scale over the listed benchmarks."""
    if scale is None:
        scale = ExperimentScale.default()
    result = SharedBitsResult(scale.name, scale.n_inputs)
    config = scale.bssa_config

    for name in benchmarks:
        target = registry.get(name, scale.n_inputs)
        p = distributions.uniform(target.n_inputs)
        words = random_read_workload(target.n_inputs, seed=base_seed)
        rng = np.random.default_rng(base_seed + 7)
        compiled = run_bssa(target, config, rng=rng)
        candidates = _nested_candidates(
            target, compiled.sequence, max(shared_sizes), config, rng, p
        )

        points: List[SharedBitsPoint] = []
        for s in shared_sizes:
            sequence = SettingSequence(
                target.n_outputs, [candidates[k][s] for k in range(target.n_outputs)]
            )
            if s == 0:
                design = DaltaDesign(f"{name}-s0", target, sequence)
            else:
                design = MultiSharedNdDesign(
                    f"{name}-s{s}", target, sequence, n_shared_max=s
                )
            verification = verify_design(design, words=words)
            energy = measure_energy(design, words=words)
            points.append(
                SharedBitsPoint(
                    n_shared=s,
                    med=sequence.med(target, p),
                    lut_bits=sequence.total_lut_entries(),
                    area_um2=design.area_um2(),
                    energy_fj=energy.per_read_fj,
                    verified=verification.passed,
                )
            )
        result.rows[name] = points
    return result
