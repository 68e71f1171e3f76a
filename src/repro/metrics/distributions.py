"""Input probability distributions over the ``2**n`` input words.

The paper's objective (MED) is an expectation over the input
distribution ``p_X``; the experiments assume a uniform distribution but
the non-disjoint derivation (Eq. (2)) conditions on the value of the
shared bit, so conditional/marginal machinery is provided here.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..boolean import ops

__all__ = [
    "uniform",
    "normalized",
    "from_weights",
    "truncated_gaussian",
    "geometric_bit",
    "condition_on_bit",
    "marginalize_bit",
    "bit_probability",
    "validate",
]


def validate(p: np.ndarray, n_inputs: int) -> np.ndarray:
    """Check that ``p`` is a distribution over ``2**n_inputs`` words."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (1 << n_inputs,):
        raise ValueError(
            f"distribution has shape {p.shape}, expected ({1 << n_inputs},)"
        )
    if np.any(p < 0):
        raise ValueError("probabilities must be non-negative")
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-9):
        raise ValueError(f"probabilities sum to {total}, expected 1")
    return p


def uniform(n_inputs: int) -> np.ndarray:
    """The uniform distribution used throughout the paper's experiments."""
    size = 1 << n_inputs
    return np.full(size, 1.0 / size, dtype=np.float64)


def normalized(weights: np.ndarray) -> np.ndarray:
    """Normalise non-negative weights into a distribution."""
    weights = np.asarray(weights, dtype=np.float64)
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return weights / total


def from_weights(weights: np.ndarray, n_inputs: int) -> np.ndarray:
    """Normalise and validate a weight vector for ``n_inputs`` bits."""
    p = normalized(weights)
    return validate(p, n_inputs)


def truncated_gaussian(n_inputs: int, mean: float = 0.5, std: float = 0.15) -> np.ndarray:
    """A bell-shaped input distribution over the normalised input range.

    ``mean`` and ``std`` are expressed as fractions of the input range
    ``[0, 2**n - 1]``.  Useful for experiments on non-uniform input
    statistics (an extension the error model fully supports).
    """
    size = 1 << n_inputs
    xs = np.arange(size, dtype=np.float64) / (size - 1)
    weights = np.exp(-0.5 * ((xs - mean) / std) ** 2)
    return normalized(weights)


def geometric_bit(n_inputs: int, p_one: float = 0.3) -> np.ndarray:
    """Independent-bit distribution with ``P(bit = 1) = p_one`` per bit."""
    if not 0 < p_one < 1:
        raise ValueError(f"p_one must be in (0, 1), got {p_one}")
    xs = ops.all_inputs(n_inputs)
    ones = ops.popcount(xs, n_inputs).astype(np.float64)
    weights = (p_one**ones) * ((1 - p_one) ** (n_inputs - ones))
    return normalized(weights)


def bit_probability(p: np.ndarray, n_inputs: int, bit: int) -> float:
    """``P(x_bit = 1)`` under the distribution ``p``."""
    p = np.asarray(p, dtype=np.float64)
    return float(ops.cofactor(p, n_inputs, {bit: 1}).sum())


def condition_on_bit(
    p: np.ndarray, n_inputs: int, bit: int, value: int
) -> Tuple[np.ndarray, float]:
    """Distribution over the *reduced* space ``X \\ {x_bit}`` given the bit.

    Returns ``(p_reduced, prior)`` where ``prior = P(x_bit = value)``
    and ``p_reduced`` is the conditional distribution indexed by the
    reduced word (the remaining variables re-packed densely, preserving
    order).  When the prior is zero the conditional is returned uniform
    so downstream optimisation stays well-defined (its contribution to
    any expectation is zero anyway).
    """
    p = np.asarray(p, dtype=np.float64)
    selected = ops.cofactor(p, n_inputs, {bit: value})
    prior = float(selected.sum())
    if prior <= 0:
        return uniform(n_inputs - 1), 0.0
    return selected / prior, prior


def marginalize_bit(p: np.ndarray, n_inputs: int, bit: int) -> np.ndarray:
    """Marginal distribution over the reduced space ``X \\ {x_bit}``."""
    p0, w0 = condition_on_bit(p, n_inputs, bit, 0)
    p1, w1 = condition_on_bit(p, n_inputs, bit, 1)
    return p0 * w0 + p1 * w1
