"""Experiment harnesses — one module per paper table/figure.

* :mod:`repro.experiments.table1` — the benchmark suite listing.
* :mod:`repro.experiments.table2` — DALTA vs BS-SA statistics.
* :mod:`repro.experiments.fig5` — architecture comparison.
* :mod:`repro.experiments.fig6` — accuracy-energy trade-off sweep.
* :mod:`repro.experiments.ablation` — design-choice ablations.

The package imports no submodule itself: each name below is loaded from
its submodule on first access (PEP 562), so ``repro.compile_api``, which
needs only :mod:`~repro.experiments.parallel`, does not pay for the
harnesses, the campaign engine or the checkpoint store.
"""

from importlib import import_module

#: public name -> the submodule that defines it
_SOURCES = {
    "AblationResult": "ablation",
    "run_ablation": "ablation",
    "Fig5Metrics": "fig5",
    "Fig5Result": "fig5",
    "run_fig5": "fig5",
    "Fig6Point": "fig6",
    "Fig6Result": "fig6",
    "per_bit_candidates": "fig6",
    "run_fig6": "fig6",
    "sweep_tradeoff": "fig6",
    "SharedBitsPoint": "shared_bits",
    "SharedBitsResult": "shared_bits",
    "run_shared_bits_study": "shared_bits",
    "DistributionStudyResult": "distribution_study",
    "run_distribution_study": "distribution_study",
    "RunSpec": "parallel",
    "run_many": "parallel",
    "CampaignOutcome": "engine",
    "Engine": "engine",
    "EngineConfig": "engine",
    "campaign_status": "engine",
    "resume_campaign": "engine",
    "run_experiment_campaign": "engine",
    "ExperimentScale": "runner",
    "build_suite": "runner",
    "repeat_specs": "runner",
    "repeated_runs": "runner",
    "Table1Result": "table1",
    "run_table1": "table1",
    "Table2Result": "table2",
    "Table2Row": "table2",
    "run_table2": "table2",
}

__all__ = [*_SOURCES, "reporting"]


def __getattr__(name: str):
    if name == "reporting":
        return import_module(f"{__name__}.reporting")
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(f"{__name__}.{source}"), name)
    globals()[name] = value
    return value
