"""Unit tests for the tracing span API and its bounded ring."""

import json

from repro.obs.metrics import MetricsCollector, SpanStats, collecting
from repro.obs.tracing import (
    DEFAULT_CAPACITY,
    SpanRecord,
    Tracer,
    current_tracer,
    span,
    tracing_to,
)
from repro.radio.clock import SimClock


class TestTracer:
    def test_span_measures_simulated_time(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("work"):
            clock.advance(2.5)
        (record,) = tracer.records()
        assert record.name == "work"
        assert record.start_s == 0.0
        assert record.end_s == 2.5
        assert record.duration_s == 2.5
        assert record.wall_us >= 0

    def test_attrs_are_stringified_and_sorted(self):
        tracer = Tracer(SimClock())
        with tracer.span("s", cmdcl=0x25, mode="FULL"):
            pass
        (record,) = tracer.records()
        assert record.attrs == {"cmdcl": "37", "mode": "FULL"}
        assert list(record.attrs) == ["cmdcl", "mode"]

    def test_span_recorded_even_on_exception(self):
        tracer = Tracer(SimClock())
        try:
            with tracer.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        assert len(tracer.records()) == 1

    def test_ring_is_bounded_and_counts_drops(self):
        tracer = Tracer(SimClock(), capacity=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 2
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]

    def test_default_capacity(self):
        tracer = Tracer(SimClock())
        for _ in range(DEFAULT_CAPACITY + 1):
            with tracer.span("s"):
                pass
        assert len(tracer.records()) == DEFAULT_CAPACITY
        assert tracer.dropped == 1

    def test_clock_bound_lazily(self):
        tracer = Tracer()  # run_campaign binds the testbed clock later
        with tracer.span("early"):
            pass
        assert tracer.records()[0].duration_s == 0.0
        clock = SimClock()
        tracer.clock = clock
        with tracer.span("late"):
            clock.advance(1.0)
        assert tracer.records()[1].duration_s == 1.0

    def test_spans_fold_into_active_collector(self):
        clock = SimClock()
        tracer = Tracer(clock)
        collector = MetricsCollector()
        with collecting(collector):
            with tracer.span("phase"):
                clock.advance(0.5)
            with tracer.span("phase"):
                clock.advance(1.5)
        assert collector.snapshot().spans == {
            "phase": SpanStats(count=2, sim_time_us=2_000_000)
        }

    def test_no_collector_no_error(self):
        tracer = Tracer(SimClock())
        with tracer.span("lonely"):
            pass
        assert len(tracer.records()) == 1


class TestModuleSpan:
    def test_noop_without_tracer(self):
        assert current_tracer() is None
        with span("free") as tracer:
            assert tracer is None

    def test_routes_to_active_tracer(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracing_to(tracer):
            assert current_tracer() is tracer
            with span("routed", device="D1"):
                clock.advance(1.0)
        assert current_tracer() is None
        (record,) = tracer.records()
        assert record.name == "routed"
        assert record.attrs == {"device": "D1"}

    def test_nesting_uses_innermost(self):
        outer, inner = Tracer(SimClock()), Tracer(SimClock())
        with tracing_to(outer):
            with tracing_to(inner):
                with span("deep"):
                    pass
            with span("shallow"):
                pass
        assert [r.name for r in inner.records()] == ["deep"]
        assert [r.name for r in outer.records()] == ["shallow"]

    def test_stack_restored_on_exception(self):
        tracer = Tracer(SimClock())
        try:
            with tracing_to(tracer):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_tracer() is None


class TestExport:
    def test_jsonl_roundtrip(self, tmp_path):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("a", cmdcl=0x25):
            clock.advance(1.0)
        with tracer.span("b"):
            clock.advance(0.25)
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(str(path))
        assert written == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "a"
        assert first["duration_s"] == 1.0
        assert first["attrs"] == {"cmdcl": "37"}
        assert "wall_us" in first

    def test_record_to_dict_is_json_clean(self):
        record = SpanRecord(
            name="n", start_s=0.0, end_s=1.0, wall_us=5, attrs={"k": "v"}
        )
        dumped = json.dumps(record.to_dict(), sort_keys=True)
        assert json.loads(dumped)["duration_s"] == 1.0
