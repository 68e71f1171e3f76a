"""The six continuous benchmark functions of Table I.

Each function is quantised per the paper's construction (taken from
ApproxLUT): inputs and outputs both use the same bit width (16 in the
paper), the input domain is sampled uniformly and the output linearly
quantised onto the stated range.

``denoise`` is a substitution (see DESIGN.md §4): AxBench's denoise
kernel is not redistributable here, so we use a smooth 1-D Gaussian
kernel ``0.81·exp(−x²/1.25)`` matched to Table I's domain ``[0, 3]``
and range ``[0, 0.81]``.  Only the quantised truth table enters the
algorithms, so any smooth function with these bounds exercises the
same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..boolean.function import BooleanFunction

__all__ = ["ContinuousSpec", "CONTINUOUS", "build_continuous"]


@dataclass(frozen=True)
class ContinuousSpec:
    """Domain/range metadata of one continuous benchmark (Table I)."""

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    domain: Tuple[float, float]
    value_range: Tuple[float, float]

    def describe(self) -> str:
        lo, hi = self.domain
        vlo, vhi = self.value_range
        return f"{self.name}(x), x ∈ [{lo:g}, {hi:g}], f ∈ [{vlo:g}, {vhi:g}]"


#: ``math.erf`` applied elementwise; the quantised tables equal those
#: built on ``scipy.special.erf`` at every width from 2 to 20 bits
#: (``tests/workloads/test_continuous.py`` pins them)
_erf = np.vectorize(math.erf, otypes=[np.float64])


def _denoise(x: np.ndarray) -> np.ndarray:
    """Smooth denoising kernel standing in for AxBench's `denoise`."""
    return 0.81 * np.exp(-np.square(x) / 1.25)


CONTINUOUS: Dict[str, ContinuousSpec] = {
    "cos": ContinuousSpec("cos", np.cos, (0.0, math.pi / 2), (0.0, 1.0)),
    "tan": ContinuousSpec("tan", np.tan, (0.0, 2 * math.pi / 5), (0.0, 3.08)),
    "exp": ContinuousSpec("exp", np.exp, (0.0, 3.0), (0.0, 20.09)),
    "ln": ContinuousSpec("ln", np.log, (1.0, 10.0), (0.0, 2.30)),
    "erf": ContinuousSpec("erf", _erf, (0.0, 3.0), (0.0, 1.0)),
    "denoise": ContinuousSpec("denoise", _denoise, (0.0, 3.0), (0.0, 0.81)),
}


def build_continuous(name: str, n_inputs: int = 16) -> BooleanFunction:
    """Quantise one of the continuous benchmarks at the given width.

    Input and output widths are equal, as in the paper (16/16).
    """
    try:
        spec = CONTINUOUS[name]
    except KeyError:
        raise ValueError(
            f"unknown continuous benchmark {name!r}; "
            f"choose from {sorted(CONTINUOUS)}"
        ) from None
    return BooleanFunction.from_real_function(
        spec.func,
        spec.domain,
        spec.value_range,
        n_inputs=n_inputs,
        n_outputs=n_inputs,
        name=name,
    )
