"""Core optimisation layer: cost models, OptForPart, DALTA, BS-SA."""

from .bs_sa import FindBestSettingsResult, find_best_settings, run_bssa
from .compiler import ALGORITHMS, ARCHITECTURES, ApproxLUT, approximate
from .config import AlgorithmConfig
from .cost import (
    BitCosts,
    cost_vectors_accurate_lsb,
    cost_vectors_fixed,
    cost_vectors_predictive,
    msb_word,
    rest_word,
)
from .dalta import run_dalta
from .modes import select_mode, select_mode_bto_normal, select_mode_bto_normal_nd
from .nondisjoint import (
    MultiSharedResult,
    NonDisjointResult,
    optimize_multi_shared,
    optimize_nondisjoint,
    optimize_nondisjoint_shared,
)
from .opt_for_part import (
    OptForPartResult,
    opt_for_part,
    opt_for_part_bto,
    opt_for_part_exhaustive,
    opt_for_part_exhaustive_many,
    opt_for_part_many,
)
from .result import ApproximationResult, SearchStats
from .settings import Setting, SettingSequence
from . import serialize

__all__ = [
    "FindBestSettingsResult",
    "find_best_settings",
    "run_bssa",
    "ALGORITHMS",
    "ARCHITECTURES",
    "ApproxLUT",
    "approximate",
    "AlgorithmConfig",
    "BitCosts",
    "cost_vectors_accurate_lsb",
    "cost_vectors_fixed",
    "cost_vectors_predictive",
    "msb_word",
    "rest_word",
    "run_dalta",
    "select_mode",
    "select_mode_bto_normal",
    "select_mode_bto_normal_nd",
    "MultiSharedResult",
    "NonDisjointResult",
    "optimize_multi_shared",
    "optimize_nondisjoint",
    "optimize_nondisjoint_shared",
    "OptForPartResult",
    "opt_for_part",
    "opt_for_part_bto",
    "opt_for_part_exhaustive",
    "opt_for_part_exhaustive_many",
    "opt_for_part_many",
    "ApproximationResult",
    "SearchStats",
    "Setting",
    "SettingSequence",
    "serialize",
]
