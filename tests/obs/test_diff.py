"""Cross-run regression diffing: artifacts, verdicts, CLI exit codes."""

import json

import pytest

from repro.obs.__main__ import ARTIFACT_ERROR_EXIT, main as obs_main
from repro.obs.diff import DiffEntry, diff_artifacts, load_artifact
from repro.obs.trace import TraceRecorder


def bench_json(path, means, medians=None):
    """Write a minimal pytest-benchmark JSON with the given mean runtimes."""
    medians = medians or {}
    payload = {
        "benchmarks": [
            {
                "name": name,
                "stats": {"mean": mean, "median": medians.get(name, mean)},
            }
            for name, mean in means.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return path


def trace_jsonl(path, latencies, start_ms=0.0, spacing_ms=1_000.0):
    """Write a small request trace with the given simulated latencies."""
    rec = TraceRecorder()
    for index, latency in enumerate(latencies):
        with rec.span(
            "emulator.request",
            index=index,
            start_sim_ms=start_ms + index * spacing_ms,
        ) as span:
            span.add(latency_ms=float(latency), fork_path=[0])
    rec.dump_jsonl(path)
    return path


class TestLoadArtifact:
    def test_detects_bench_json(self, tmp_path):
        path = bench_json(tmp_path / "bench.json", {"test_search": 0.5})
        kind, metrics = load_artifact(path)
        assert kind == "bench"
        assert metrics["test_search"]["mean_s"] == (0.5, "latency")

    def test_detects_report_json(self, tmp_path):
        trace = trace_jsonl(tmp_path / "trace.jsonl", [10.0, 20.0])
        _, summary = load_artifact(trace)  # traces load as reports
        report = tmp_path / "report.json"
        from repro.obs.report import summarize_trace

        report.write_text(json.dumps(summarize_trace(trace).to_json_dict()))
        kind, metrics = load_artifact(report)
        assert kind == "report"
        assert metrics == summary

    def test_trace_metrics_exclude_wall_clock_timings(self, tmp_path):
        trace = trace_jsonl(tmp_path / "trace.jsonl", [10.0, 20.0])
        _, metrics = load_artifact(trace)
        assert metrics["phase:emulator.request"] == {"count": (2.0, "count")}
        assert "p50" in metrics["request_latency_ms"]
        assert "p50" in metrics["windowed_latency_ms"]
        for entry in metrics.values():
            assert "total_ms" not in entry
            assert "mean_ms" not in entry

    def test_rejects_unparseable_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a trace\nnot json either\n")
        with pytest.raises(ValueError, match="neither"):
            load_artifact(path)


class TestVerdicts:
    def test_injected_regression_detected_and_exits_nonzero(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"test_search": 1.0})
        other = bench_json(tmp_path / "other.json", {"test_search": 1.25})
        report = diff_artifacts(base, other, warn_threshold=0.10, fail_threshold=0.20)
        assert [e.verdict for e in report.entries] == ["regression"] * 2
        assert report.exit_code == 1

    def test_drift_between_thresholds_warns_only(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"b": 1.0})
        other = bench_json(tmp_path / "other.json", {"b": 1.15})
        report = diff_artifacts(base, other, warn_threshold=0.10, fail_threshold=0.25)
        assert {e.verdict for e in report.entries} == {"warn"}
        assert report.exit_code == 0

    def test_improvement_annotated(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"b": 1.0})
        other = bench_json(tmp_path / "other.json", {"b": 0.5})
        report = diff_artifacts(base, other)
        assert {e.verdict for e in report.entries} == {"improved"}
        assert report.exit_code == 0

    def test_within_warn_is_ok(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"b": 1.0})
        other = bench_json(tmp_path / "other.json", {"b": 1.05})
        report = diff_artifacts(base, other)
        assert {e.verdict for e in report.entries} == {"ok"}

    def test_count_metrics_never_fail(self, tmp_path):
        # 3 vs 9 requests: a 200% count change warns but cannot fail.
        base = trace_jsonl(tmp_path / "base.jsonl", [10.0] * 3)
        other = trace_jsonl(tmp_path / "other.jsonl", [10.0] * 9)
        report = diff_artifacts(base, other, fail_threshold=0.25)
        counts = [e for e in report.entries if not e.directional]
        assert counts
        assert all(e.verdict in ("ok", "warn") for e in counts)
        assert report.exit_code == 0

    def test_latency_regression_in_traces_fails(self, tmp_path):
        base = trace_jsonl(tmp_path / "base.jsonl", [100.0] * 8)
        other = trace_jsonl(tmp_path / "other.jsonl", [130.0] * 8)
        report = diff_artifacts(base, other, fail_threshold=0.25)
        regressed = {e.metric for e in report.regressions}
        assert "p50" in regressed
        assert report.exit_code == 1

    def test_missing_benchmark_is_a_warning(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"kept": 1.0, "gone": 1.0})
        other = bench_json(tmp_path / "other.json", {"kept": 1.0})
        report = diff_artifacts(base, other)
        gone = [e for e in report.entries if e.name == "gone"]
        assert gone
        assert all(e.verdict == "warn" for e in gone)
        assert all(e.other == 0.0 for e in gone)
        assert report.exit_code == 0

    def test_zero_base_warns_not_fails(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"b": 0.0})
        other = bench_json(tmp_path / "other.json", {"b": 5.0})
        report = diff_artifacts(base, other)
        assert {e.verdict for e in report.entries} == {"warn"}
        entry = report.entries[0]
        assert entry.ratio is None

    def test_mixed_artifact_kinds_rejected(self, tmp_path):
        bench = bench_json(tmp_path / "bench.json", {"b": 1.0})
        trace = trace_jsonl(tmp_path / "trace.jsonl", [10.0])
        with pytest.raises(ValueError, match="cannot diff"):
            diff_artifacts(bench, trace)

    def test_threshold_validation(self, tmp_path):
        bench = bench_json(tmp_path / "bench.json", {"b": 1.0})
        with pytest.raises(ValueError, match=">= 0"):
            diff_artifacts(bench, bench, warn_threshold=-0.1)
        with pytest.raises(ValueError, match="fail_threshold"):
            diff_artifacts(bench, bench, warn_threshold=0.5, fail_threshold=0.1)

    def test_identical_artifacts_all_ok(self, tmp_path):
        bench = bench_json(tmp_path / "bench.json", {"a": 1.0, "b": 2.0})
        report = diff_artifacts(bench, bench)
        assert report.entries
        assert {e.verdict for e in report.entries} == {"ok"}


class TestDiffEntry:
    def test_delta_and_ratio(self):
        entry = DiffEntry("b", "mean_s", base=2.0, other=3.0, verdict="warn")
        assert entry.delta == pytest.approx(1.0)
        assert entry.ratio == pytest.approx(1.5)
        assert entry.to_dict()["verdict"] == "warn"


class TestRender:
    def test_render_sorts_most_severe_first(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"bad": 1.0, "fine": 1.0})
        other = bench_json(tmp_path / "other.json", {"bad": 2.0, "fine": 1.0})
        report = diff_artifacts(base, other)
        text = report.render()
        assert text.index("REGRESSION") < text.index("OK")
        assert "regression(s)" in text

    def test_render_empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"benchmarks": []}))
        report = diff_artifacts(path, path)
        assert "no comparable metrics" in report.render()


class TestDiffCLI:
    def test_exit_one_on_regression(self, tmp_path, capsys):
        base = bench_json(tmp_path / "base.json", {"b": 1.0})
        other = bench_json(tmp_path / "other.json", {"b": 2.0})
        assert obs_main(["diff", str(base), str(other)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_exit_zero_on_clean_diff(self, tmp_path, capsys):
        bench = bench_json(tmp_path / "bench.json", {"b": 1.0})
        assert obs_main(["diff", str(bench), str(bench)]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_json_output_and_report_file(self, tmp_path, capsys):
        base = bench_json(tmp_path / "base.json", {"b": 1.0})
        other = bench_json(tmp_path / "other.json", {"b": 2.0})
        report_path = tmp_path / "diff.json"
        code = obs_main(
            [
                "diff",
                str(base),
                str(other),
                "--json",
                "--report",
                str(report_path),
            ]
        )
        assert code == 1
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(report_path.read_text())
        assert printed == written
        assert written["regressions"] == 2
        assert written["entries"][0]["name"] == "b"

    @pytest.mark.parametrize("content", [None, "not json\n{", b"\xff\xfe\x00"])
    def test_bad_artifact_is_one_line_error(self, tmp_path, capsys, content):
        good = bench_json(tmp_path / "good.json", {"b": 1.0})
        bad = tmp_path / "bad.json"
        if isinstance(content, bytes):
            bad.write_bytes(content)
        elif content is not None:
            bad.write_text(content)
        for args in ([str(bad), str(good)], [str(good), str(bad)]):
            assert obs_main(["diff", *args]) == ARTIFACT_ERROR_EXIT
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(bad) in err
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_custom_thresholds(self, tmp_path):
        base = bench_json(tmp_path / "base.json", {"b": 1.0})
        other = bench_json(tmp_path / "other.json", {"b": 1.3})
        # 30% over a generous fail bar passes; over a tight one fails.
        assert (
            obs_main(["diff", str(base), str(other), "--fail", "0.5"]) == 0
        )
        assert (
            obs_main(["diff", str(base), str(other), "--fail", "0.2"]) == 1
        )
