"""Crash-safe streaming sinks: durable-before-close, idempotent close."""

import json

import pytest

from repro.obs.sink import JsonlSink, recover_jsonl_records
from repro.obs.trace import TraceRecorder, recording
from repro.perf import PerfRegistry


class TestJsonlSink:
    def test_record_durable_before_close(self, tmp_path):
        # The point of the sink: a record is on disk the moment write()
        # returns, not when the sink is closed.
        path = tmp_path / "out.jsonl"
        sink = JsonlSink(path)
        sink.write({"kind": "event", "name": "x"})
        on_disk = path.read_text().splitlines()
        assert len(on_disk) == 1
        assert json.loads(on_disk[0])["name"] == "x"
        sink.close()

    def test_close_idempotent_and_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "out.jsonl")
        sink.close()
        sink.close()
        assert sink.closed
        with pytest.raises(ValueError, match="closed"):
            sink.write({"kind": "event"})

    def test_context_manager_counts_records(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"a": 1})
            sink.write({"a": 2})
        assert sink.closed
        assert sink.records_written == 2
        assert len(path.read_text().splitlines()) == 2


class TestJsonlRecovery:
    def test_torn_tail_dropped_durable_garbage_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"a": 1})
        with path.open("ab") as handle:
            handle.write(b'{"a": 2')  # torn: dropped silently
        assert recover_jsonl_records(path) == [{"a": 1}]
        with path.open("ab") as handle:
            handle.write(b'}\nnot json\n')  # durable corruption: loud
        with pytest.raises(ValueError, match="corrupt"):
            recover_jsonl_records(path)

    def test_truncate_then_append_does_not_glue_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"a": 1})
        with path.open("ab") as handle:
            handle.write(b'{"a": 2')  # torn mid-write
        recover_jsonl_records(path, truncate=True)
        with JsonlSink(path, append=True) as sink:
            sink.write({"a": 3})
        assert recover_jsonl_records(path) == [{"a": 1}, {"a": 3}]

    def test_append_mode_preserves_existing_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JsonlSink(path) as sink:
            sink.write({"a": 1})
        with JsonlSink(path, append=True) as sink:
            sink.write({"a": 2})
        assert recover_jsonl_records(path) == [{"a": 1}, {"a": 2}]
        # The default (append=False) keeps its truncate-on-open contract.
        with JsonlSink(path) as sink:
            sink.write({"a": 3})
        assert recover_jsonl_records(path) == [{"a": 3}]


class TestStreamingRecorder:
    def test_records_stream_to_sink_as_produced(self, tmp_path):
        # Regression: the recorder used to buffer everything in memory
        # and write only at recording() exit — a killed run lost the
        # whole trace. With a sink, closed spans are durable mid-run.
        path = tmp_path / "trace.jsonl"
        with recording(path, stream=True) as recorder:
            with PerfRegistry().span("request", index=0):
                recorder.event("retry", attempt=1)
            # Still inside the block: both records must already be on disk.
            lines = [json.loads(l) for l in path.read_text().splitlines()]
            assert [r["kind"] for r in lines] == ["event", "span"]
        final = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(final) == 2

    def test_stream_without_path_rejected(self):
        with pytest.raises(ValueError, match="needs a path"):
            with recording(stream=True):
                pass

    def test_sink_survives_exception_in_block(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with pytest.raises(RuntimeError):
            with recording(path, stream=True):
                with PerfRegistry().span("doomed"):
                    pass
                raise RuntimeError("boom")
        assert len(path.read_text().splitlines()) == 1

    def test_direct_sink_parameter(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            recorder = TraceRecorder(enabled=True, sink=sink)
            recorder.event("standalone")
        assert json.loads(path.read_text())["name"] == "standalone"
