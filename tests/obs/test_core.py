"""Unit tests for the telemetry primitives: spans, counters, sessions."""

import time

from repro import obs


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None

    def test_span_is_shared_noop(self):
        a = obs.span("x", attr=1)
        b = obs.span("y")
        assert a is b  # the singleton — no allocation on the hot path
        with a as entered:
            assert entered is a
        a.set(extra=2)  # no-op, must not raise

    def test_counters_noop(self):
        obs.incr("nothing")
        obs.observe("nothing", 1.0)
        obs.event("nothing", k=1)
        assert not obs.enabled()


class TestSpans:
    def test_nesting_depth_and_parents(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            with obs.span("outer", kind="test"):
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        inner = sink.spans("inner")
        outer = sink.spans("outer")
        assert len(inner) == 2 and len(outer) == 1
        assert outer[0]["depth"] == 0 and outer[0]["parent"] is None
        for span in inner:
            assert span["depth"] == 1
            assert span["parent"] == outer[0]["id"]
        assert outer[0]["attrs"] == {"kind": "test"}

    def test_timing_and_closing_order(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.01)
        inner, outer = sink.spans("inner")[0], sink.spans("outer")[0]
        assert inner["dur"] >= 0.01
        assert outer["dur"] >= inner["dur"]
        # children close (and are recorded) before their parent
        names = [s["name"] for s in sink.spans()]
        assert names == ["inner", "outer"]

    def test_mid_span_attributes(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            with obs.span("s", a=1) as span:
                span.set(b=2)
        assert sink.spans("s")[0]["attrs"] == {"a": 1, "b": 2}

    def test_error_flag_on_exception(self):
        sink = obs.MemorySink()
        try:
            with obs.session(sink):
                with obs.span("boom"):
                    raise RuntimeError("x")
        except RuntimeError:
            pass
        assert sink.spans("boom")[0]["error"] is True


class TestCountersAndEvents:
    def test_counters_snapshot_on_close(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            obs.incr("a")
            obs.incr("a", 2)
            obs.incr("b", 0.5)
            obs.observe("h", 7.0)
        assert sink.counters() == {"a": 3, "b": 0.5}
        counters = [r for r in sink.records if r["type"] == "counters"]
        assert counters[0]["histograms"]["h"]["count"] == 1
        assert "gauges" not in counters[0]  # counters and histograms only

    def test_events(self):
        sink = obs.MemorySink()
        with obs.session(sink):
            obs.event("run.completed", benchmark="cos", seed=0)
        events = sink.events("run.completed")
        assert len(events) == 1
        assert events[0]["attrs"]["benchmark"] == "cos"

    def test_merge_counters(self):
        telemetry = obs.Telemetry()
        telemetry.incr("x", 1)
        telemetry.merge_counters({"x": 2, "y": 5})
        assert telemetry.counters == {"x": 3, "y": 5}

    def test_absorb_replays_and_tags(self):
        worker = obs.MemorySink()
        with obs.session(worker):
            with obs.span("work"):
                obs.incr("n", 4)
                obs.observe("opt.for_part_seconds", 0.25)
        parent_sink = obs.MemorySink()
        parent = obs.Telemetry([parent_sink])
        parent.incr("n", 1)
        parent.absorb(worker.records, worker=3)
        assert parent.counters == {"n": 5}
        assert parent.histograms["opt.for_part_seconds"].count == 1
        replayed = [r for r in parent_sink.records if r["type"] == "span"]
        assert replayed[0]["attrs"]["worker"] == 3


class TestSession:
    def test_session_restores_previous(self):
        outer_sink = obs.MemorySink()
        with obs.session(outer_sink) as outer:
            assert obs.current() is outer
            with obs.session(obs.MemorySink()) as nested:
                assert obs.current() is nested
            assert obs.current() is outer
        assert obs.current() is None

    def test_enable_disable(self):
        telemetry = obs.enable(obs.MemorySink())
        try:
            assert obs.enabled() and obs.current() is telemetry
        finally:
            obs.disable()
        assert not obs.enabled()
