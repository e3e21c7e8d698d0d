"""Trace spans: deterministic ids, fake clocks, null-tracer cost."""

from __future__ import annotations

import io
import json

from repro.obs.trace import NULL_TRACER, Tracer, read_trace


def _records(sink: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in sink.getvalue().splitlines()]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestSpans:
    def test_span_records_offset_and_duration(self):
        sink = io.StringIO()
        tracer = Tracer(sink, run_id="r1", clock=FakeClock())
        with tracer.span("work", task=3):
            pass
        (record,) = _records(sink)
        assert record["trace"] == "r1"
        assert record["name"] == "work"
        assert record["span"] == 1
        assert record["parent"] is None
        # Epoch read at construction (101), enter at 102, exit at 103.
        assert record["start_s"] == 1.0
        assert record["duration_s"] == 1.0
        assert record["attrs"] == {"task": 3}

    def test_nested_spans_carry_parent_ids(self):
        sink = io.StringIO()
        tracer = Tracer(sink, run_id="r", clock=FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner", parent=outer):
                pass
        by_name = {r["name"]: r for r in _records(sink)}
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]

    def test_span_ids_are_sequential(self):
        sink = io.StringIO()
        tracer = Tracer(sink, clock=FakeClock())
        for _ in range(3):
            with tracer.span("s"):
                pass
        assert [r["span"] for r in _records(sink)] == [1, 2, 3]

    def test_read_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer(path, run_id="rt", clock=FakeClock()) as tracer:
            with tracer.span("a"):
                pass
        records = read_trace(path)
        assert len(records) == 1
        assert records[0]["name"] == "a"

    def test_totals_sum_durations_per_name(self):
        tracer = Tracer(io.StringIO(), clock=FakeClock())
        with tracer.span("outer") as outer:
            for _ in range(2):
                with tracer.span("inner", parent=outer):
                    pass
        # Outer enters at 102 and exits at 107; each inner span lasts 1.0.
        assert tracer.totals() == {"inner": 2.0, "outer": 5.0}

    def test_close_disables(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path, clock=FakeClock())
        tracer.close()
        assert tracer.enabled is False
        with tracer.span("late") as span:
            assert span.span_id == 0
        assert read_trace(path) == []


class TestNullTracer:
    def test_disabled_span_is_shared_and_inert(self):
        first = NULL_TRACER.span("anything", attr=1)
        second = NULL_TRACER.span("other")
        assert first is second  # one shared null span, no allocation
        with first as span:
            assert span.span_id == 0

    def test_disabled_tracer_writes_nothing(self, tmp_path):
        tracer = Tracer(None)
        with tracer.span("s"):
            pass
        assert tracer.enabled is False

    def test_null_tracer_has_no_totals(self):
        with NULL_TRACER.span("s"):
            pass
        assert NULL_TRACER.totals() == {}
