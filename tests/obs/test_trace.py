"""TraceRecorder mechanics: ids, nesting, events, export, the default.

Spans are opened through the one span API, :meth:`PerfRegistry.span`,
which feeds the process recorder installed by the ``rec`` fixture.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.obs.trace import (
    NULL_SPAN,
    TraceRecorder,
    get_recorder,
    recording,
    set_recorder,
)
from repro.perf import PerfRegistry


def fake_clock(step_ms=1.0):
    """Deterministic clock: each call advances by ``step_ms``."""
    state = {"t": 0.0}

    def clock():
        state["t"] += step_ms / 1e3
        return state["t"]

    return clock


@contextmanager
def installed(recorder):
    """``recorder`` as the process recorder for the block."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)


@pytest.fixture
def rec():
    with installed(TraceRecorder()) as recorder:
        yield recorder


@pytest.fixture
def off():
    with installed(TraceRecorder(enabled=False)) as recorder:
        yield recorder


def span(name, **fields):
    """One span through the single span API, on a private registry."""
    return PerfRegistry().span(name, **fields)


class TestDisabled:
    def test_default_recorder_is_disabled(self):
        assert get_recorder().enabled is False

    def test_disabled_records_nothing(self, off):
        with span("outer") as handle:
            handle.add(x=1)
            off.event("ping")
        assert len(off) == 0

    def test_disabled_spans_share_one_null_handle(self, off):
        with span("a") as h1, span("b") as h2:
            assert h1 is h2 is NULL_SPAN  # no per-call allocation


class TestSpans:
    def test_child_parent_ids_propagate(self, rec):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = rec.records  # children close (and emit) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert inner["trace"] == outer["trace"]

    def test_root_spans_start_new_traces(self, rec):
        with span("first"):
            pass
        with span("second"):
            pass
        first, second = rec.records
        assert first["trace"] != second["trace"]

    def test_ids_are_deterministic_counters(self, rec):
        with span("a"):
            pass
        with span("b"):
            pass
        assert [r["span"] for r in rec.records] == ["s1", "s2"]
        assert [r["trace"] for r in rec.records] == ["t1", "t2"]

    def test_durations_from_injected_clock(self, monkeypatch):
        monkeypatch.setattr(time, "perf_counter", fake_clock(step_ms=2.0))
        registry = PerfRegistry()
        # The recorder's origin is one read, the span's open and close
        # one each.
        with installed(TraceRecorder()) as recorder, registry.span("timed"):
            pass
        (record,) = recorder.records
        # One 2 ms step apart, and the registry folds in the very same
        # reading.
        assert record["t_ms"] == pytest.approx(2.0)
        assert record["dur_ms"] == pytest.approx(2.0)
        assert registry.span_stat("timed").total_ms == pytest.approx(2.0)

    def test_late_fields_via_add(self, rec):
        with span("work", phase="x") as handle:
            handle.add(result=42)
        (record,) = rec.records
        assert record["fields"] == {"phase": "x", "result": 42}

    def test_disabled_registry_still_traces(self, rec):
        registry = PerfRegistry(enabled=False)
        with registry.span("traced_only"):
            pass
        assert [r["name"] for r in rec.records] == ["traced_only"]
        assert registry.span_stat("traced_only").count == 0


class TestEvents:
    def test_event_attaches_to_innermost_span(self, rec):
        with span("outer"):
            with span("inner"):
                rec.event("ping", attempt=1)
        event = next(r for r in rec.records if r["kind"] == "event")
        inner = next(r for r in rec.records if r["name"] == "inner")
        assert event["span"] == inner["span"]
        assert event["fields"] == {"attempt": 1}

    def test_event_outside_any_span(self, rec):
        rec.event("lonely")
        (event,) = rec.records
        assert event["span"] is None


class TestFieldCoercion:
    def test_numpy_scalars_and_tuples_become_json(self, rec):
        with span("s") as handle:
            handle.add(
                reward=np.float64(1.5),
                fork=(np.int64(1), np.int64(0)),
                name=("ID", "P4Q8"),
            )
        text = rec.to_jsonl()
        parsed = json.loads(text)
        assert parsed["fields"]["reward"] == 1.5
        assert parsed["fields"]["fork"] == [1, 0]
        assert parsed["fields"]["name"] == ["ID", "P4Q8"]

    def test_unknown_objects_stringify(self, rec):
        rec.event("e", payload=object())
        assert isinstance(json.loads(rec.to_jsonl())["fields"]["payload"], str)


class TestExport:
    def test_to_jsonl_one_object_per_line(self, rec):
        with span("a"):
            rec.event("e")
        lines = rec.to_jsonl().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line)

    def test_dump_jsonl_round_trips(self, rec, tmp_path):
        with span("a"):
            pass
        path = tmp_path / "trace.jsonl"
        rec.dump_jsonl(path)
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text.splitlines()[0])["name"] == "a"

    def test_empty_dump_is_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        TraceRecorder().dump_jsonl(path)
        assert path.read_text() == ""

    def test_clear(self, rec):
        with span("a"):
            pass
        rec.clear()
        assert len(rec) == 0


class TestDefaultSwap:
    def test_set_recorder_returns_previous(self):
        mine = TraceRecorder(enabled=False)
        previous = set_recorder(mine)
        try:
            assert get_recorder() is mine
        finally:
            set_recorder(previous)

    def test_recording_swaps_and_restores(self, tmp_path):
        before = get_recorder()
        path = tmp_path / "out.jsonl"
        with recording(path) as rec:
            assert get_recorder() is rec
            assert rec.enabled
            with span("root"):
                pass
        assert get_recorder() is before
        assert json.loads(path.read_text().splitlines()[0])["name"] == "root"

    def test_recording_restores_on_error(self, tmp_path):
        before = get_recorder()
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            with recording(path):
                with span("doomed"):
                    pass
                raise RuntimeError("boom")
        assert get_recorder() is before
        # The crashed run still left its trace on disk.
        assert "doomed" in path.read_text()


class TestSpanErrorField:
    def test_raising_body_marks_span(self, rec):
        # Regression: a span whose body raised used to be recorded
        # indistinguishably from a clean one — the exception path, the
        # one a resilience trace exists to explain, was invisible.
        with pytest.raises(ValueError):
            with span("request", index=0):
                raise ValueError("mid-request failure")
        [record] = rec.records
        assert record["error"] == "ValueError"

    def test_clean_span_has_no_error_key(self, rec):
        with span("request"):
            pass
        [record] = rec.records
        assert "error" not in record

    def test_inner_error_marks_only_raising_span(self, rec):
        with pytest.raises(KeyError):
            with span("outer"):
                with span("inner"):
                    raise KeyError("inner only")
        inner, outer = rec.records
        assert inner["name"] == "inner" and inner["error"] == "KeyError"
        # The exception propagates through the outer span too, so it is
        # marked as well — both spans were on the failing path.
        assert outer["name"] == "outer" and outer["error"] == "KeyError"

    def test_handled_error_inside_span_stays_clean(self, rec):
        with span("request"):
            try:
                raise ValueError("handled")
            except ValueError:
                pass
        [record] = rec.records
        assert "error" not in record

    def test_clean_span_inside_except_block_stays_clean(self, rec):
        # Regression: the error used to come from sys.exc_info() at
        # close, which also sees an exception merely being handled
        # around the span, so this clean span was marked "KeyError".
        try:
            raise KeyError("handled outside the span")
        except KeyError:
            with span("fallback"):
                pass
        [record] = rec.records
        assert "error" not in record
