"""Table II: DALTA's algorithm vs BS-SA.

For every benchmark, both algorithms run ``n_runs`` times with
independent seeds; the harness reports the minimum, average, and
standard deviation of the MED plus the average runtime, then the
geometric means over the suite — the exact layout of Table II.

The paper's headline: BS-SA reduces the geomean minimum MED by 11.1%
and the stdev by 97.1% using roughly half the runtime (its P is half
of DALTA's).  The *shape* to check here: BS-SA's min and avg MEDs are
lower, its stdev is far lower, and its runtime is lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from . import reporting
from .parallel import run_many
from .runner import ExperimentScale, build_suite, repeat_specs

__all__ = ["Table2Row", "Table2Result", "run_table2"]


@dataclass
class Table2Row:
    """One benchmark's statistics for both algorithms."""

    benchmark: str
    dalta: Dict[str, float]
    dalta_time: float
    bssa: Dict[str, float]
    bssa_time: float


@dataclass
class Table2Result:
    """The regenerated Table II."""

    scale_name: str
    n_inputs: int
    n_runs: int
    rows: List[Table2Row] = field(default_factory=list)

    def geomeans(self) -> Dict[str, float]:
        keys = ("min", "avg", "stdev")
        result: Dict[str, float] = {}
        for algo in ("dalta", "bssa"):
            stats = [getattr(row, algo) for row in self.rows]
            for key in keys:
                result[f"{algo}_{key}"] = reporting.geomean(s[key] for s in stats)
            result[f"{algo}_time"] = reporting.geomean(
                getattr(row, f"{algo}_time") for row in self.rows
            )
        return result

    def improvement(self) -> Dict[str, float]:
        """Relative reduction of BS-SA vs DALTA on the geomeans.

        Positive values mean BS-SA is better (lower).  The paper
        reports min: 11.1%, stdev: 97.1%, time: ~50%.
        """
        g = self.geomeans()
        return {
            key: 1.0 - g[f"bssa_{key}"] / g[f"dalta_{key}"]
            for key in ("min", "avg", "stdev", "time")
        }

    def render(self) -> str:
        headers = [
            "benchmark",
            "DALTA min",
            "DALTA avg",
            "DALTA stdev",
            "DALTA t(s)",
            "BS-SA min",
            "BS-SA avg",
            "BS-SA stdev",
            "BS-SA t(s)",
        ]
        body = [
            [
                row.benchmark,
                row.dalta["min"],
                row.dalta["avg"],
                row.dalta["stdev"],
                row.dalta_time,
                row.bssa["min"],
                row.bssa["avg"],
                row.bssa["stdev"],
                row.bssa_time,
            ]
            for row in self.rows
        ]
        g = self.geomeans()
        body.append(
            [
                "GEOMEAN",
                g["dalta_min"],
                g["dalta_avg"],
                g["dalta_stdev"],
                g["dalta_time"],
                g["bssa_min"],
                g["bssa_avg"],
                g["bssa_stdev"],
                g["bssa_time"],
            ]
        )
        improvement = self.improvement()
        footer = (
            "BS-SA vs DALTA (geomean reduction): "
            + ", ".join(f"{k}: {100 * v:.1f}%" for k, v in improvement.items())
        )
        table = reporting.format_table(
            headers,
            body,
            title=(
                f"Table II reproduction — scale={self.scale_name}, "
                f"{self.n_inputs}-bit benchmarks, {self.n_runs} runs"
            ),
        )
        return table + "\n" + footer

    def as_dict(self) -> dict:
        return {
            "scale": self.scale_name,
            "n_inputs": self.n_inputs,
            "n_runs": self.n_runs,
            "rows": [
                {
                    "benchmark": r.benchmark,
                    "dalta": r.dalta,
                    "dalta_time": r.dalta_time,
                    "bssa": r.bssa,
                    "bssa_time": r.bssa_time,
                }
                for r in self.rows
            ],
            "geomeans": self.geomeans(),
            "improvement": self.improvement(),
        }


def _table2_specs(scale: ExperimentScale, suite, base_seed: int):
    """One flat job list for the whole campaign, in benchmark order.

    Per benchmark: ``n_runs`` DALTA jobs at ``base_seed`` then
    ``n_runs`` BS-SA jobs at ``base_seed + 1``.
    """
    specs = []
    for _, target in suite.items():
        specs.extend(
            repeat_specs("dalta", target, scale.dalta_config, scale.n_runs, base_seed)
        )
        specs.extend(
            repeat_specs(
                "bs-sa", target, scale.bssa_config, scale.n_runs, base_seed + 1
            )
        )
    return specs


def _table2_row(name: str, dalta_runs, bssa_runs) -> Table2Row:
    return Table2Row(
        benchmark=name,
        dalta=reporting.summarize_runs([r.med for r in dalta_runs]),
        dalta_time=float(np.mean([r.elapsed_seconds for r in dalta_runs])),
        bssa=reporting.summarize_runs([r.med for r in bssa_runs]),
        bssa_time=float(np.mean([r.elapsed_seconds for r in bssa_runs])),
    )


def run_table2(
    scale: Optional[ExperimentScale] = None,
    base_seed: int = 0,
    engine=None,
) -> Table2Result:
    """Regenerate Table II at the given scale.

    The whole campaign is one job list.  Without ``engine`` it runs in
    this process (:func:`~repro.experiments.parallel.run_many`); with
    one (a :class:`repro.experiments.engine.Engine`) it runs
    checkpointed on the warm pool — resumable and fault-tolerant, and
    byte-identical under the same ``base_seed``.  Quarantined jobs are
    dropped from the statistics (partial-result reporting); a
    benchmark left without runs of either algorithm gets no row.
    """
    if scale is None:
        scale = ExperimentScale.default()
    suite = build_suite(scale)
    specs = _table2_specs(scale, suite, base_seed)
    results = engine.run(specs).results if engine is not None else run_many(specs)

    result = Table2Result(scale.name, scale.n_inputs, scale.n_runs)
    n_runs = scale.n_runs
    for index, name in enumerate(suite):
        block = results[2 * n_runs * index : 2 * n_runs * (index + 1)]
        dalta_runs = [r for r in block[:n_runs] if r is not None]
        bssa_runs = [r for r in block[n_runs:] if r is not None]
        if dalta_runs and bssa_runs:
            result.rows.append(_table2_row(name, dalta_runs, bssa_runs))
    return result
