"""Microbenchmarks of the performance-critical kernels.

The paper notes both algorithms "spend most of their runtime in calling
the function OptForPart", so its throughput (and the power-simulation
kernel used by every energy measurement) are tracked here.
"""

import numpy as np

from repro import caching
from repro.boolean import Partition, random_partition
from repro.core import cost_vectors_fixed, opt_for_part, opt_for_part_many
from repro.hardware import LutRam, ToggleLedger
from repro.metrics import distributions
from repro.workloads import get


def _cost_setup(n_inputs: int, bound_size: int):
    target = get("cos", n_inputs)
    rest = target.table & ~np.int64(1 << (n_inputs - 1))
    costs = cost_vectors_fixed(target.table, rest, n_inputs - 1)
    partition = Partition(
        tuple(range(bound_size, n_inputs)), tuple(range(bound_size))
    )
    p = distributions.uniform(n_inputs)
    return costs, p, partition, n_inputs


def test_opt_for_part_12bit(benchmark):
    costs, p, partition, n = _cost_setup(12, 7)
    rng = np.random.default_rng(0)
    result = benchmark(
        opt_for_part, costs, p, partition, n, n_initial_patterns=30, rng=rng
    )
    assert result.error >= 0


def test_opt_for_part_paper_shape_16bit(benchmark):
    """The paper's kernel shape: 16 inputs, bound size 9 (2**9 columns)."""
    costs, p, partition, n = _cost_setup(16, 9)
    rng = np.random.default_rng(0)
    result = benchmark.pedantic(
        opt_for_part,
        args=(costs, p, partition, n),
        kwargs={"n_initial_patterns": 30, "rng": rng},
        rounds=3,
        iterations=1,
    )
    assert result.error >= 0


def test_opt_for_part_many_neighbourhood(benchmark):
    """Batched kernel over an SA-neighbourhood-sized partition set.

    The shape one ``opt_for_part_many`` call sees inside the search
    loops: a handful of same-shape partitions sharing one cost context.
    """
    costs, p, _, n = _cost_setup(12, 7)
    sample_rng = np.random.default_rng(1)
    partitions = [random_partition(n, 7, sample_rng) for _ in range(8)]

    def run():
        return opt_for_part_many(
            costs,
            p,
            partitions,
            n,
            n_initial_patterns=30,
            rng=np.random.default_rng(0),
        )

    results = benchmark(run)
    assert len(results) == len(partitions)


def test_opt_for_part_many_reference(benchmark):
    """The same batch on the reference kernel (fast paths off).

    Timed beside :func:`test_opt_for_part_many_neighbourhood` (the
    exact sweep) so a local run shows the two kernels' kernel-level
    ratio.
    """
    costs, p, _, n = _cost_setup(12, 7)
    sample_rng = np.random.default_rng(1)
    partitions = [random_partition(n, 7, sample_rng) for _ in range(8)]

    def run():
        with caching.fast_paths(False):
            return opt_for_part_many(
                costs,
                p,
                partitions,
                n,
                n_initial_patterns=30,
                rng=np.random.default_rng(0),
            )

    results = benchmark(run)
    assert len(results) == len(partitions)


def test_lut_ram_power_simulation(benchmark):
    rng = np.random.default_rng(0)
    contents = rng.integers(0, 2, size=1 << 9, dtype=np.int64)
    ram = LutRam("bench", 9, 1, contents)
    addresses = rng.integers(0, 1 << 9, size=1024)

    def run():
        ledger = ToggleLedger()
        ram.simulate(addresses, ledger)
        return ledger

    ledger = benchmark(run)
    assert ledger.total() > 0


def test_workload_quantisation(benchmark):
    f = benchmark(get, "erf", 14)
    assert f.size == 1 << 14
