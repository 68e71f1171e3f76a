"""Unit tests for the run executor (serial loop and warm pool)."""

from dataclasses import replace

import pytest

from repro.core import AlgorithmConfig, run_bssa
from repro.experiments import ExperimentScale, run_table2
from repro.experiments.parallel import RunSpec, run_many
from repro.experiments.runner import repeated_runs
from repro.workloads import get


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
        parallel = run_many(specs, n_jobs=1)
        assert [r.med for r in serial] == [r.med for r in parallel]

    def test_worker_processes_identical(self, target, config):
        specs = [RunSpec.for_function("bs-sa", target, config, 3, i) for i in range(2)]
        single = run_many(specs, n_jobs=1)
        multi = run_many(specs, n_jobs=2)
        assert [r.med for r in single] == [r.med for r in multi]

    def test_dalta_spec(self, target, config):
        spec = RunSpec.for_function("dalta", target, config, 0, 0)
        result = spec.execute()
        assert result.algorithm == "dalta"


class TestRunMany:
    def test_rejects_bad_jobs(self, target, config):
        with pytest.raises(ValueError):
            run_many([], n_jobs=0)

    def test_empty(self):
        assert run_many([], n_jobs=2) == []


class TestParallelTable2:
    def test_table2_results_independent_of_n_jobs(self):
        scale = ExperimentScale.smoke()
        serial = run_table2(scale, base_seed=4)
        parallel = run_table2(replace(scale, n_jobs=2), base_seed=4)
        for a, b in zip(serial.rows, parallel.rows):
            assert a.dalta == b.dalta
            assert a.bssa == b.bssa
