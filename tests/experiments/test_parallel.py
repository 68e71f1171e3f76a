"""Unit tests for run specs, the in-process loop and its pool twin."""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro import compile_api
from repro.core import AlgorithmConfig, run_bssa
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.runner import repeated_runs
from repro.workloads import get

from ..conftest import run_on_pool


@pytest.fixture(scope="module")
def target():
    return get("cos", 8)


@pytest.fixture(scope="module")
def config():
    return AlgorithmConfig.fast(seed=None)


class TestRunSpec:
    def test_rejects_unknown_algorithm(self, target, config):
        with pytest.raises(ValueError):
            RunSpec.for_function("genetic", target, config, 0, 0)

    def test_matches_serial_seeding(self, target, config):
        serial = repeated_runs(
            lambda rng: run_bssa(target, config, rng=rng), 2, base_seed=9
        )
        specs = [RunSpec.for_function("bs-sa", target, config, 9, i) for i in range(2)]
        in_process = run_many(specs)
        assert [r.med for r in serial] == [r.med for r in in_process]

    def test_worker_processes_identical(self, target, config):
        specs = [RunSpec.for_function("bs-sa", target, config, 3, i) for i in range(2)]
        single = run_many(specs)
        multi = run_on_pool(specs)
        assert [r.med for r in single] == [r.med for r in multi]

    def test_dalta_spec(self, target, config):
        spec = RunSpec.for_function("dalta", target, config, 0, 0)
        result = spec.execute()
        assert result.algorithm == "dalta"


class TestRunMany:
    def test_empty(self):
        assert run_many([]) == []


class TestRetention:
    def test_runs_leave_no_state_behind(self):
        """A warm worker's memory must not grow with the jobs it runs.

        Pool workers and the serve daemon execute job after job in one
        process; any per-partition state a run keeps would pile up
        there.  At 14 bits a 2D-table index cache held about 16 MB
        after one run.
        """
        specs = [
            compile_api.build_run_spec(
                get("cos", 14),
                config=replace(AlgorithmConfig.fast(seed=seed), bound_size=6),
            )
            for seed in (3, 4)
        ]
        tracemalloc.start()
        try:
            for spec in specs:
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                spec.execute()
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
                assert retained < 2**20, f"{retained / 2**20:.2f} MB retained"
        finally:
            tracemalloc.stop()
