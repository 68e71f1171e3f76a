"""Fig. 6: accuracy-energy trade-off of cos on BTO-Normal-ND.

The paper's case study: by choosing each output bit's mode (BTO /
normal / ND) on the BTO-Normal-ND architecture, a family of
configurations trades accuracy against energy; six consecutive
configurations dominate DALTA in *both* error and energy.

The harness reproduces the sweep:

1. compile the benchmark once with BS-SA and collect, for every output
   bit, its best setting in each of the three modes;
2. walk the trade-off curve from the all-BTO configuration upward,
   greedily upgrading the bit whose mode change buys the largest error
   reduction (BTO → normal → ND);
3. for every configuration on the walk, measure the exact MED and the
   1024-read energy of the assembled design, and compare against the
   DALTA reference point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..boolean.function import BooleanFunction
from ..core.bs_sa import _nd_setting, find_best_settings, run_bssa
from ..core.config import AlgorithmConfig
from ..core.cost import cost_vectors_fixed
from ..core.result import SearchStats
from ..core.settings import Setting, SettingBits, SettingSequence
from ..hardware.architectures import BtoNormalNdDesign, DaltaDesign
from ..hardware.power import measure_energy, random_read_workload
from ..metrics import distributions
from . import reporting
from .parallel import run_many
from .runner import ExperimentScale, repeat_specs
from ..workloads import registry

__all__ = ["Fig6Point", "Fig6Result", "run_fig6", "per_bit_candidates"]

_MODE_ORDER = ("bto", "normal", "nd")


def per_bit_candidates(
    target: BooleanFunction,
    sequence: SettingSequence,
    config: AlgorithmConfig,
    rng: np.random.Generator,
    p: Optional[np.ndarray] = None,
) -> List[Dict[str, Setting]]:
    """Best setting per mode for every output bit, in the fixed context.

    The context is the compiled ``sequence``; candidates for different
    bits are computed independently against it (the standard
    configuration-sweep approximation).
    """
    if p is None:
        p = distributions.uniform(target.n_inputs)
    candidates: List[Dict[str, Setting]] = []
    bits = SettingBits(target.n_inputs)
    for k in range(target.n_outputs):
        rest = sequence.rest_word(target, k, bits)
        costs = cost_vectors_fixed(target, rest, k)
        found = find_best_settings(
            costs,
            p,
            target.n_inputs,
            config,
            rng,
            n_beam=max(1, config.nd_candidates),
            collect_bto=True,
        )
        nd = _nd_setting(
            costs, p, target.n_inputs, found.settings, config, rng, SearchStats()
        )
        # The compiled sequence's own setting competes as the
        # normal-mode candidate — a fresh small-budget search must not
        # degrade the configuration it anchors.
        normal = found.best
        incumbent = sequence[k]
        if incumbent is not None and incumbent.mode == "normal":
            incumbent_error = costs.evaluate(bits(incumbent), p)
            if incumbent_error <= normal.error:
                normal = Setting(incumbent_error, incumbent.decomposition)
        per_mode = {"normal": normal}
        if found.bto is not None:
            per_mode["bto"] = found.bto
        if nd is not None:
            per_mode["nd"] = nd
        candidates.append(per_mode)
    return candidates


@dataclass
class Fig6Point:
    """One configuration on the trade-off curve."""

    modes: Tuple[int, int, int]  # (#BTO, #Normal, #ND)
    med: float
    energy_fj: float

    def dominates(self, med: float, energy_fj: float) -> bool:
        """Strictly better than a reference in both coordinates."""
        return self.med < med and self.energy_fj < energy_fj


@dataclass
class Fig6Result:
    """The regenerated Fig. 6 sweep."""

    benchmark: str
    n_inputs: int
    points: List[Fig6Point] = field(default_factory=list)
    dalta_med: float = 0.0
    dalta_energy_fj: float = 0.0

    def dominating_points(self) -> List[Fig6Point]:
        return [
            pt
            for pt in self.points
            if pt.dominates(self.dalta_med, self.dalta_energy_fj)
        ]

    def pareto_front(self) -> List[Fig6Point]:
        """Non-dominated subset, sorted by energy."""
        ordered = sorted(self.points, key=lambda pt: (pt.energy_fj, pt.med))
        front: List[Fig6Point] = []
        best_med = float("inf")
        for pt in ordered:
            if pt.med < best_med:
                front.append(pt)
                best_med = pt.med
        return front

    def render(self) -> str:
        headers = ["(#BTO, #Normal, #ND)", "MED", "energy/read (fJ)", "beats DALTA"]
        rows = [
            [
                str(pt.modes),
                pt.med,
                pt.energy_fj,
                "yes" if pt.dominates(self.dalta_med, self.dalta_energy_fj) else "",
            ]
            for pt in sorted(self.points, key=lambda pt: pt.energy_fj)
        ]
        table = reporting.format_table(
            headers,
            rows,
            title=(
                f"Fig. 6 reproduction — {self.benchmark} "
                f"({self.n_inputs}-bit) on BTO-Normal-ND"
            ),
        )
        footer = (
            f"DALTA reference: MED={reporting.format_value(self.dalta_med)}, "
            f"energy={reporting.format_value(self.dalta_energy_fj)} fJ/read\n"
            f"configurations dominating DALTA in both error and energy: "
            f"{len(self.dominating_points())} (paper: >= 6)"
        )
        return table + "\n" + footer

    def as_dict(self) -> dict:
        return {
            "benchmark": self.benchmark,
            "n_inputs": self.n_inputs,
            "dalta": {"med": self.dalta_med, "energy_fj": self.dalta_energy_fj},
            "points": [
                {"modes": pt.modes, "med": pt.med, "energy_fj": pt.energy_fj}
                for pt in self.points
            ],
            "n_dominating": len(self.dominating_points()),
        }


def _mode_histogram(assignment: List[str]) -> Tuple[int, int, int]:
    return (
        assignment.count("bto"),
        assignment.count("normal"),
        assignment.count("nd"),
    )


def _measure_configuration(
    target: BooleanFunction,
    candidates: List[Dict[str, Setting]],
    assignment: List[str],
    words: np.ndarray,
    p: np.ndarray,
) -> Fig6Point:
    settings = [candidates[k][assignment[k]] for k in range(len(assignment))]
    sequence = SettingSequence(target.n_outputs, settings)
    design = BtoNormalNdDesign(f"{target.name}-fig6", target, sequence)
    energy = measure_energy(design, words=words)
    return Fig6Point(
        modes=_mode_histogram(assignment),
        med=sequence.med(target, p),
        energy_fj=energy.per_read_fj,
    )


def run_fig6(
    benchmark: str = "cos",
    scale: Optional[ExperimentScale] = None,
    base_seed: int = 0,
) -> Fig6Result:
    """Regenerate the Fig. 6 sweep (cos by default, any benchmark works)."""
    if scale is None:
        scale = ExperimentScale.default()
    target = registry.get(benchmark, scale.n_inputs)

    # DALTA reference point (best of n_runs, as in Fig. 5).
    dalta_runs = run_many(
        repeat_specs("dalta", target, scale.dalta_config, scale.n_runs, base_seed)
    )
    best_dalta = min(dalta_runs, key=lambda r: r.med)
    return sweep_tradeoff(
        target,
        scale.bssa_config,
        dalta_reference=best_dalta.sequence,
        base_seed=base_seed,
    )


def sweep_tradeoff(
    target: BooleanFunction,
    config: AlgorithmConfig,
    dalta_reference: Optional[SettingSequence] = None,
    base_seed: int = 0,
    p: Optional[np.ndarray] = None,
) -> Fig6Result:
    """Sweep the BTO-Normal-ND mode space for an arbitrary function.

    This is the user-facing form of the Fig. 6 protocol: pass any
    target function (and optionally a baseline setting sequence to
    anchor the comparison point) and receive the full trade-off curve.
    """
    if p is None:
        p = distributions.uniform(target.n_inputs)
    words = random_read_workload(target.n_inputs, seed=base_seed)
    result = Fig6Result(target.name, target.n_inputs)

    if dalta_reference is not None:
        dalta_design = DaltaDesign(
            f"{target.name}-dalta", target, dalta_reference
        )
        result.dalta_med = dalta_reference.med(target, p)
        result.dalta_energy_fj = measure_energy(
            dalta_design, words=words
        ).per_read_fj

    # Per-bit mode candidates around one compiled BS-SA solution.
    rng = np.random.default_rng(base_seed + 101)
    compiled = run_bssa(target, config, rng=rng, architecture="normal")
    candidates = per_bit_candidates(target, compiled.sequence, config, rng, p)

    # Greedy walk from all-BTO, upgrading the most error-reducing bit.
    assignment = ["bto" if "bto" in c else "normal" for c in candidates]
    result.points.append(
        _measure_configuration(target, candidates, assignment, words, p)
    )
    while True:
        best_k, best_gain, best_mode = -1, 0.0, ""
        for k, modes in enumerate(candidates):
            current = assignment[k]
            idx = _MODE_ORDER.index(current)
            for upgrade in _MODE_ORDER[idx + 1 :]:
                if upgrade not in modes:
                    continue
                gain = modes[current].error - modes[upgrade].error
                if gain > best_gain:
                    best_k, best_gain, best_mode = k, gain, upgrade
                break  # only consider the next mode up per step
        if best_k < 0:
            # No error-reducing upgrade left; finish the walk by
            # upgrading everything that still has a higher mode once.
            break
        assignment[best_k] = best_mode
        result.points.append(
            _measure_configuration(target, candidates, assignment, words, p)
        )
    return result
