"""Telemetry integration with the BS-SA/DALTA pipeline.

Covers the ISSUE acceptance criteria: identical algorithm outputs with
telemetry on/off, trace contents for a real run, summarised wall-clock
agreement, and counter aggregation across worker processes.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import AlgorithmConfig, run_bssa, run_dalta
from repro.experiments.parallel import RunSpec, run_many
from repro.obs.summarize import summarize
from repro.workloads import get

from ..conftest import run_on_pool


@pytest.fixture(scope="module")
def target():
    return get("cos", 8)


@pytest.fixture(scope="module")
def config():
    return AlgorithmConfig.fast()


class TestByteIdentical:
    def test_run_bssa_identical_with_telemetry(self, target, config):
        plain = run_bssa(target, config, rng=np.random.default_rng(0))
        with obs.session(obs.MemorySink()):
            traced = run_bssa(target, config, rng=np.random.default_rng(0))
        assert traced.med == plain.med
        assert (
            traced.approx_function.table.tobytes()
            == plain.approx_function.table.tobytes()
        )
        assert traced.round_history == plain.round_history

    def test_run_dalta_identical_with_telemetry(self, target, config):
        plain = run_dalta(target, config, rng=np.random.default_rng(0))
        with obs.session(obs.MemorySink()):
            traced = run_dalta(target, config, rng=np.random.default_rng(0))
        assert traced.med == plain.med
        assert (
            traced.approx_function.table.tobytes()
            == plain.approx_function.table.tobytes()
        )


class TestTraceContents:
    def test_bssa_trace_spans_and_counters(self, target, config):
        sink = obs.MemorySink()
        with obs.session(sink):
            run_bssa(target, config, rng=np.random.default_rng(0))
        names = {s["name"] for s in sink.spans()}
        assert {
            "bssa.run",
            "bssa.beam_round",
            "bssa.sa_iteration",
            "opt.for_part",
        } <= names
        assert len(sink.spans("bssa.beam_round")) == target.n_outputs
        counters = sink.counters()
        assert counters["opt.calls"] > 0
        assert counters["bssa.predictive_model_calls"] > 0
        assert counters["sa.partitions_evaluated"] > 0
        moves = (
            counters.get("sa.moves_accepted", 0)
            + counters.get("sa.moves_accepted_uphill", 0)
            + counters.get("sa.moves_rejected", 0)
        )
        assert moves > 0

    def test_dalta_trace_spans(self, target, config):
        sink = obs.MemorySink()
        with obs.session(sink):
            run_dalta(target, config, rng=np.random.default_rng(0))
        assert len(sink.spans("dalta.run")) == 1
        assert len(sink.spans("dalta.round")) == config.rounds
        assert len(sink.spans("dalta.bit")) == config.rounds * target.n_outputs

    def test_summarize_matches_untraced_wallclock(self, target, config):
        untraced = run_bssa(target, config, rng=np.random.default_rng(0))
        sink = obs.MemorySink()
        with obs.session(sink):
            traced = run_bssa(target, config, rng=np.random.default_rng(0))
        summary = summarize(sink.records)
        # the root span reproduces the run's own elapsed clock within 5%
        assert summary.total_seconds == pytest.approx(
            traced.elapsed_seconds, rel=0.05
        )
        # and stays comparable to an untraced run (generous: scheduling
        # noise dominates at unit-test scale)
        assert summary.total_seconds < 5 * max(untraced.elapsed_seconds, 0.01)


class TestParallelAggregation:
    def test_counters_aggregate_across_workers(self, target, config):
        specs = [
            RunSpec.for_function("bs-sa", target, config, 3, i) for i in range(2)
        ]
        serial_counts = []
        for spec in specs:
            sink = obs.MemorySink()
            with obs.session(sink):
                spec.execute()
            serial_counts.append(sink.counters())

        sink = obs.MemorySink()
        with obs.session(sink) as session:
            results = run_on_pool(specs)
            merged = dict(session.counters)
        assert all(r is not None for r in results)
        for key in ("opt.calls", "sa.partitions_evaluated"):
            assert merged[key] == sum(c[key] for c in serial_counts)

    def test_parallel_trace_has_worker_spans_and_progress(self, target, config):
        specs = [
            RunSpec.for_function("bs-sa", target, config, 3, i) for i in range(2)
        ]
        sink = obs.MemorySink()
        with obs.session(sink):
            run_on_pool(specs)
        runs = sink.spans("bssa.run")
        assert len(runs) == 2
        assert {s["attrs"]["worker"] for s in runs} == {0, 1}
        completed = sink.events("run.completed")
        assert len(completed) == 2
        seeded = sink.events("run.seeded")
        assert [e["attrs"]["spawn_index"] for e in seeded] == [0, 1]

    def test_parallel_results_identical_under_telemetry(self, target, config):
        specs = [
            RunSpec.for_function("bs-sa", target, config, 5, i) for i in range(2)
        ]
        plain = run_many(specs)
        with obs.session(obs.MemorySink()):
            traced = run_on_pool(specs)
        assert [r.med for r in plain] == [r.med for r in traced]


class TestSeeding:
    def test_seed_info_matches_serial_spawn(self, target, config):
        spec = RunSpec.for_function("bs-sa", target, config, 11, 2)
        info = spec.seed_info()
        child = np.random.SeedSequence(11).spawn(3)[2]
        assert info["spawn_key"] == list(child.spawn_key)
        assert info["state"] == [int(w) for w in child.generate_state(4)]
        assert info["base_seed"] == 11 and info["spawn_index"] == 2

    def test_execute_bit_identical_to_serial_runner(self, target, config):
        from repro.experiments.runner import repeated_runs

        serial = repeated_runs(
            lambda rng: run_bssa(target, config, rng=rng), 3, base_seed=2
        )
        specs = [
            RunSpec.for_function("bs-sa", target, config, 2, i) for i in range(3)
        ]
        parallel = run_on_pool(specs)
        for a, b in zip(serial, parallel):
            assert a.med == b.med
            assert (
                a.approx_function.table.tobytes()
                == b.approx_function.table.tobytes()
            )
