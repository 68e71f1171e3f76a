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

from .. import obs
from ..core.bs_sa import run_bssa
from ..core.dalta import run_dalta
from . import reporting
from .runner import ExperimentScale, build_suite, repeat_specs, repeated_runs

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
    ``n_runs`` BS-SA jobs at ``base_seed + 1`` — the same specs (and
    therefore the same spawned seeds) as the ``run_many`` path.
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

    With ``engine`` (a :class:`repro.experiments.engine.Engine`), the
    whole campaign runs as one checkpointed job list — resumable and
    fault-tolerant; quarantined jobs are dropped from the statistics
    (partial-result reporting).  Outputs are byte-identical to the
    engine-less path under the same ``base_seed``.
    """
    if scale is None:
        scale = ExperimentScale.default()
    suite = build_suite(scale)
    result = Table2Result(scale.name, scale.n_inputs, scale.n_runs)

    if engine is not None:
        specs = _table2_specs(scale, suite, base_seed)
        outcome = engine.run(specs)
        cursor = 0
        for name in suite:
            dalta_runs = [
                r
                for r in outcome.results[cursor : cursor + scale.n_runs]
                if r is not None
            ]
            cursor += scale.n_runs
            bssa_runs = [
                r
                for r in outcome.results[cursor : cursor + scale.n_runs]
                if r is not None
            ]
            cursor += scale.n_runs
            if not dalta_runs or not bssa_runs:
                continue
            result.rows.append(_table2_row(name, dalta_runs, bssa_runs))
        return result

    for name, target in suite.items():
        with obs.span("table2.benchmark", benchmark=name):
            if scale.n_jobs > 1:
                from .parallel import run_many

                dalta_specs = repeat_specs(
                    "dalta", target, scale.dalta_config, scale.n_runs, base_seed
                )
                bssa_specs = repeat_specs(
                    "bs-sa", target, scale.bssa_config, scale.n_runs, base_seed + 1
                )
                dalta_runs = run_many(dalta_specs, scale.n_jobs)
                bssa_runs = run_many(bssa_specs, scale.n_jobs)
            else:
                dalta_runs = repeated_runs(
                    lambda rng: run_dalta(target, scale.dalta_config, rng=rng),
                    scale.n_runs,
                    base_seed,
                )
                bssa_runs = repeated_runs(
                    lambda rng: run_bssa(target, scale.bssa_config, rng=rng),
                    scale.n_runs,
                    base_seed + 1,
                )
            result.rows.append(_table2_row(name, dalta_runs, bssa_runs))
    return result
