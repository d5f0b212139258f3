"""The ``python -m repro.obs`` CLI and its ``repro obs`` alias."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.obs.__main__ import main as obs_main
from repro.obs.trace import recording
from repro.perf import PerfRegistry


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    with recording(path) as rec:
        with PerfRegistry().span("emulator.request", index=0) as handle:
            rec.event("offload.retry", attempt=1)
            handle.add(latency_ms=75.0, fork_path=[1])
    return path


class TestObsReport:
    def test_text_report(self, trace_path, capsys):
        assert obs_main(["report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "emulator.request" in out

    def test_json_report(self, trace_path, capsys):
        assert obs_main(["report", str(trace_path), "--json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["unparsed"] == 0
        assert parsed["fork_counts"] == {"1": 1}

    def test_strict_passes_clean_trace(self, trace_path):
        assert obs_main(["report", str(trace_path), "--strict"]) == 0

    def test_strict_fails_on_unparsed(self, tmp_path, capsys):
        path = tmp_path / "broken.jsonl"
        path.write_text("this is not json\n")
        assert obs_main(["report", str(path), "--strict"]) == 1
        assert "unparsed" in capsys.readouterr().err

    def test_lenient_tolerates_unparsed(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("this is not json\n")
        assert obs_main(["report", str(path)]) == 0


class TestTopLevelAlias:
    def test_repro_obs_report(self, trace_path, capsys):
        assert repro_main(["obs", "report", str(trace_path)]) == 0
        assert "trace report" in capsys.readouterr().out

    def test_repro_obs_strict_propagates_exit(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("garbage\n")
        assert repro_main(["obs", "report", str(path), "--strict"]) == 1
