"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.boolean import BooleanFunction, Partition
from repro.core import AlgorithmConfig


@pytest.fixture
def rng():
    """Deterministic generator for test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def fast_config():
    """Tiny algorithm budgets for quick end-to-end runs."""
    return AlgorithmConfig.fast(seed=7)


def random_function(
    n_inputs: int, n_outputs: int, rng: np.random.Generator, name: str = "rand"
) -> BooleanFunction:
    """A uniformly random multi-output Boolean function."""
    table = rng.integers(0, 1 << n_outputs, size=1 << n_inputs, dtype=np.int64)
    return BooleanFunction(n_inputs, n_outputs, table, name=name)


def random_bits(n_inputs: int, rng: np.random.Generator) -> np.ndarray:
    """A random single-output truth table (0/1 vector)."""
    return rng.integers(0, 2, size=1 << n_inputs, dtype=np.int64)


def small_partition(n_inputs: int = 4, bound: int = 2) -> Partition:
    """The canonical low-bits-bound partition used in many tests."""
    return Partition(tuple(range(bound, n_inputs)), tuple(range(bound)))


def run_on_pool(specs, n_jobs: int = 2):
    """Run specs on the warm pool: one engine campaign, no retries, no faults.

    The multi-process twin of ``run_many(specs)`` — results in spec
    order; a failed job raises ``CampaignError``.
    """
    from repro.experiments.engine import Engine, EngineConfig
    from repro.faults import FaultPlan

    engine = Engine(
        config=EngineConfig(n_jobs=n_jobs, max_retries=0), faults=FaultPlan()
    )
    return engine.run(specs).require_complete()
