"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import checks, loadgen, stats, tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- the percentile rule ------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    summary = stats.summarize(float(v) for v in range(1, 101))
    assert summary.n == 100
    assert summary.p50 == 50.5
    assert summary.tail == 90.0  # 91..100 lie beyond it
    assert summary.tail_q == 90.0
    assert summary.max == 100.0


def test_tail_needs_eleven_samples():
    eleven = stats.summarize(range(11))
    assert eleven.tail == 0 and eleven.tail_q == pytest.approx(100 / 11)
    ten = stats.summarize(range(10))
    assert ten.tail is None and ten.tail_q is None
    assert stats.tail_or_max(ten) == 9


def test_summary_ignores_sample_order():
    assert stats.summarize([3.0, 1.0, 2.0]) == stats.summarize([1.0, 2.0, 3.0])


def test_summarize_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.summarize([])


# -- self time of nested wrappers --------------------------------------
def test_self_time_subtracts_nested_layer():
    clock = FakeClock()
    probe = tracer.Tracer(clock=clock)

    def kernel():
        clock.advance(2.0)

    timed_kernel = probe.wrap(tracer.KERNEL, kernel)

    def search():
        clock.advance(1.0)
        timed_kernel()
        clock.advance(0.5)
        timed_kernel()

    probe.wrap(tracer.SEARCH, search)()
    layers = probe.snapshot()["layers"]
    assert layers[tracer.SEARCH]["union_s"] == 5.5
    assert layers[tracer.KERNEL]["union_s"] == 4.0
    assert layers[tracer.KERNEL]["calls"] == 2
    assert tracer.self_time(layers, tracer.SEARCH) == 1.5
    assert tracer.self_time(layers, tracer.KERNEL) == 4.0


def test_same_layer_call_inside_itself_is_counted_once():
    clock = FakeClock()
    probe = tracer.Tracer(clock=clock)

    def inner():
        clock.advance(1.0)

    timed_inner = probe.wrap(tracer.KERNEL, inner)

    def outer():
        clock.advance(1.0)
        timed_inner()

    probe.wrap(tracer.KERNEL, outer)()
    kernel = probe.snapshot()["layers"][tracer.KERNEL]
    assert kernel["calls"] == 1 and kernel["passes"] == 1
    assert kernel["union_s"] == kernel["sum_s"] == 2.0


def test_untimed_calls_pass_through():
    probe = tracer.Tracer(clock=FakeClock())
    wrapped = probe.wrap(tracer.KERNEL, lambda: 7, timed=lambda: False)
    assert wrapped() == 7
    kernel = probe.snapshot()["layers"][tracer.KERNEL]
    assert kernel["calls"] == 0 and kernel["passes"] == 1


def test_union_time_of_overlapping_calls():
    clock = tracer.LayerClock()
    # calls on two threads: [0, 3] and [1, 5], then [7, 8]
    assert clock.enter(0.0)
    assert not clock.enter(1.0)
    assert not clock.exit(0.0, 3.0, items=4)
    assert clock.exit(1.0, 5.0, items=1)
    clock.enter(7.0)
    clock.exit(7.0, 8.0, items=1)
    assert clock.union_s == 6.0
    assert clock.sum_s == 8.0
    assert clock.calls == 3 and clock.items == 6


# -- due-time latency ---------------------------------------------------
def test_latency_and_lateness_arithmetic():
    assert loadgen.latency(due=10.0, done=10.25) == 0.25
    # connection free before the due time: lateness counts from the due time
    assert loadgen.lateness(due=10.0, free=9.0, sent=10.01) == pytest.approx(0.01)
    # every connection busy at the due time: that wait is not the generator's
    assert loadgen.lateness(due=10.0, free=10.5, sent=10.5) == 0.0


def _run(shots, service, oversleep=0.0):
    clock = FakeClock()

    def sleep(seconds):
        clock.advance(seconds + oversleep)

    def send(body):
        clock.advance(service)
        return 200, {"ok": True}

    return loadgen.OpenLoop(send, 1, clock=clock, sleep=sleep).run(shots)


def test_latency_counts_from_due_time_when_server_is_slow():
    shots = [loadgen.Shot(d, "hi", i, b"{}") for i, d in enumerate((0.0, 0.1, 0.2))]
    outcomes = _run(shots, service=0.25)
    assert [round(o.latency, 9) for o in outcomes] == [0.25, 0.4, 0.55]
    assert [o.late for o in outcomes] == [0.0, 0.0, 0.0]


def test_generator_lateness_is_reported():
    shots = [loadgen.Shot(d, "lo", i, b"{}") for i, d in enumerate((0.0, 1.0))]
    outcomes = _run(shots, service=0.1, oversleep=0.05)
    assert outcomes[1].late == pytest.approx(0.05)
    assert outcomes[1].latency == pytest.approx(0.15)


def test_schedule_is_fixed_rate():
    assert loadgen.schedule(4.0, 1.0, 1.0) == [1.0, 1.25, 1.5, 1.75]


# -- correctness gates --------------------------------------------------
def test_med_and_shifted_geomean():
    assert checks.med([0, 4, 8, 12], [1, 4, 6, 12]) == 0.75
    assert checks.shifted_geomean([0.0, 3.0]) == pytest.approx(1.0)


def test_check_result_flags_a_changed_table():
    target = [0, 1, 2, 3]
    reference = checks.result_record(target, [0, 1, 3, 3])
    assert checks.check_result(reference, 0.25, target, [0, 1, 3, 3]) == (None, 0.25)
    reason, _ = checks.check_result(reference, 0.25, target, [0, 1, 2, 2])
    assert reason is not None
