"""Trace parsing/summary/rendering for ``obs report``."""

import json

import pytest

from repro.obs.report import (
    expand_trace_paths,
    parse_jsonl,
    render_report,
    spark,
    summarize_paths,
    summarize_records,
    summarize_trace,
)
from repro.obs.trace import recording
from repro.perf import PerfRegistry


def make_records():
    """A small hand-built trace exercising every report section."""
    return [
        {
            "kind": "span",
            "name": "emulator.request",
            "trace": "t1",
            "span": "s2",
            "parent": "s1",
            "t_ms": 1.0,
            "dur_ms": 0.5,
            "fields": {"fork_path": [1, 0], "latency_ms": 120.0},
        },
        {
            "kind": "event",
            "name": "offload.retry",
            "trace": "t1",
            "span": "s2",
            "t_ms": 1.2,
            "fields": {"attempt": 1},
        },
        {
            "kind": "event",
            "name": "rl.update",
            "trace": "t1",
            "span": "s1",
            "t_ms": 2.0,
            "fields": {
                "controller": "partition",
                "reward": 350.0,
                "baseline": 340.0,
                "advantage": 10.0,
                "entropy": 0.8,
            },
        },
        {
            "kind": "span",
            "name": "scenario.tree",
            "trace": "t1",
            "span": "s1",
            "parent": None,
            "t_ms": 0.0,
            "dur_ms": 5.0,
            "fields": {},
        },
    ]


class TestParse:
    def test_parses_valid_lines(self):
        text = "\n".join(json.dumps(r) for r in make_records())
        records, unparsed = parse_jsonl(text)
        assert len(records) == 4
        assert unparsed == 0

    def test_counts_garbage_lines(self):
        text = "not json at all\n" + json.dumps(make_records()[0])
        records, unparsed = parse_jsonl(text)
        assert len(records) == 1
        assert unparsed == 1

    def test_counts_wrong_shape_lines(self):
        bad = [
            json.dumps({"kind": "mystery", "name": "x"}),
            json.dumps({"kind": "span"}),  # no name
            json.dumps([1, 2, 3]),  # not an object
        ]
        records, unparsed = parse_jsonl("\n".join(bad))
        assert records == []
        assert unparsed == 3

    def test_blank_lines_ignored(self):
        records, unparsed = parse_jsonl("\n\n  \n")
        assert records == []
        assert unparsed == 0


class TestSummarize:
    def test_phase_aggregation(self):
        summary = summarize_records(make_records())
        assert summary.phases["emulator.request"].count == 1
        assert summary.phases["scenario.tree"].total_ms == pytest.approx(5.0)

    def test_fork_counts_and_latency(self):
        summary = summarize_records(make_records())
        assert summary.fork_counts == {"1>0": 1}
        assert summary.requests() == 1
        assert summary.request_latency.count == 1
        assert summary.request_latency.max == pytest.approx(120.0)

    def test_rl_curves_keyed_by_controller(self):
        summary = summarize_records(make_records())
        curve = summary.rl["partition"]
        assert curve.rewards == [350.0]
        assert curve.advantages == [10.0]
        assert curve.entropies == [0.8]

    def test_resilience_timeline_sorted(self):
        records = make_records()
        records.append(
            {
                "kind": "event",
                "name": "breaker.transition",
                "trace": "t1",
                "span": "s2",
                "t_ms": 0.5,
                "fields": {"from_state": "closed", "to_state": "open"},
            }
        )
        summary = summarize_records(records)
        names = [r["name"] for r in summary.resilience]
        assert names == ["breaker.transition", "offload.retry"]

    def test_span_index_supports_nesting_checks(self):
        summary = summarize_records(make_records())
        retry = summary.resilience[0]
        owner = summary.span_index[retry["span"]]
        assert owner["name"] == "emulator.request"

    def test_to_json_dict_is_json_serializable(self):
        summary = summarize_records(make_records())
        text = json.dumps(summary.to_json_dict())
        parsed = json.loads(text)
        assert parsed["spans"] == 2
        assert parsed["events"] == 2
        assert parsed["fork_counts"] == {"1>0": 1}


class TestRender:
    def test_report_mentions_every_section(self):
        report = render_report(summarize_records(make_records()))
        assert "phase timings" in report
        assert "requests by fork path" in report
        assert "RL training telemetry" in report
        assert "resilience timeline" in report
        assert "0 unparsed line(s)" in report

    def test_empty_trace_renders_header_only(self):
        report = render_report(summarize_records([]))
        assert "0 records" in report
        assert "phase timings" not in report

    def test_unparsed_count_surfaces(self):
        summary = summarize_records(make_records(), unparsed=3)
        assert "3 unparsed line(s)" in render_report(summary)


class TestSpark:
    def test_empty(self):
        assert spark([]) == ""

    def test_constant_series_is_flat(self):
        assert spark([5.0, 5.0, 5.0]) == "▁▁▁"

    def test_monotone_series_rises(self):
        line = spark([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁"
        assert line[-1] == "█"

    def test_long_series_resampled_to_width(self):
        assert len(spark(list(range(1000)), width=40)) == 40

    def test_downsampling_keeps_both_endpoints(self):
        # The spike lives only in the final sample; skipping it (the old
        # ``int(i * step)`` resampler did) renders a flat line.
        values = [0.0] * 99 + [1.0]
        line = spark(values, width=40)
        assert len(line) == 40
        assert line[-1] == "█"
        assert line[0] == "▁"

    def test_width_one_shows_most_recent_value(self):
        values = [0.0] * 9 + [1.0]
        assert len(spark(values, width=1)) == 1

    def test_exact_width_not_resampled(self):
        values = [0.0, 1.0]
        assert spark(values, width=2) == "▁█"


class TestRoundTrip:
    def test_recorder_output_summarizes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with recording(path) as rec:
            with PerfRegistry().span("emulator.request", index=0) as handle:
                rec.event("offload.retry", attempt=1)
                handle.add(latency_ms=50.0, fork_path=[0])
        summary = summarize_trace(path)
        assert summary.unparsed == 0
        assert summary.fork_counts == {"0": 1}
        assert summary.resilience[0]["name"] == "offload.retry"


class TestCacheTelemetry:
    def _records_with_stats(self):
        records = make_records()
        for t_ms, hits in ((3.0, 2), (4.0, 7)):
            records.append(
                {
                    "kind": "event",
                    "name": "memo.stats",
                    "trace": "t1",
                    "span": "s1",
                    "t_ms": t_ms,
                    "fields": {
                        "cache": "search.memo",
                        "hits": hits,
                        "misses": 3,
                        "evictions": 0,
                        "size": 3,
                        "maxsize": 65536,
                        "hit_rate": hits / (hits + 3),
                    },
                }
            )
        records.append(
            {
                "kind": "event",
                "name": "memo.stats",
                "trace": "t1",
                "span": "s1",
                "t_ms": 5.0,
                "fields": {"cache": "compose.memo", "hits": 1, "misses": 4},
            }
        )
        return records

    def test_latest_snapshot_per_cache_wins(self):
        summary = summarize_records(self._records_with_stats())
        assert set(summary.caches) == {"search.memo", "compose.memo"}
        # Stats are cumulative snapshots: the later event describes the run.
        assert summary.caches["search.memo"]["hits"] == 7
        assert summary.caches["compose.memo"]["misses"] == 4

    def test_caches_in_json_dict(self):
        summary = summarize_records(self._records_with_stats())
        parsed = json.loads(json.dumps(summary.to_json_dict()))
        assert parsed["caches"]["search.memo"]["hits"] == 7

    def test_render_includes_cache_section(self):
        report = render_report(summarize_records(self._records_with_stats()))
        assert "cache telemetry" in report
        assert "search.memo" in report
        assert "compose.memo" in report

    def test_no_stats_no_section(self):
        report = render_report(summarize_records(make_records()))
        assert "cache telemetry" not in report


def request_records(latencies, start_ms=0.0, spacing_ms=1_000.0):
    """Request spans with simulated start times (windowed-latency input)."""
    records = []
    for index, latency in enumerate(latencies):
        records.append(
            {
                "kind": "span",
                "name": "emulator.request",
                "trace": "t1",
                "span": f"r{index}",
                "parent": None,
                "t_ms": float(index),
                "dur_ms": 0.1,
                "fields": {
                    "fork_path": [0],
                    "latency_ms": float(latency),
                    "start_sim_ms": start_ms + index * spacing_ms,
                },
            }
        )
    return records


class TestWindowedLatency:
    def test_requests_land_in_completion_time_buckets(self):
        summary = summarize_records(request_records([10.0, 20.0, 30.0]))
        ring = summary.windowed_latency
        # Completion times 10, 1020, 2030 -> buckets 0, 1, 2.
        assert sorted(ring.slabs) == [0, 1, 2]
        assert ring.count == 3

    def test_spans_without_sim_time_skip_the_window(self):
        summary = summarize_records(make_records())
        assert summary.request_latency.count == 1
        assert summary.windowed_latency.count == 0

    def test_windowed_line_rendered(self):
        report = render_report(summarize_records(request_records([10.0] * 5)))
        assert "last 10s (sim time)" in report
        assert "p99" in report

    def test_windowed_state_in_json_dict(self):
        summary = summarize_records(request_records([10.0, 50.0]))
        parsed = json.loads(json.dumps(summary.to_json_dict()))
        assert parsed["windowed_latency"]["kind"] == "histogram"
        assert parsed["windowed_latency"]["current"]["count"] == 2


class TestSLOAlertsInReport:
    def _records_with_alert(self):
        records = make_records()
        records.append(
            {
                "kind": "event",
                "name": "slo.alert",
                "trace": "t1",
                "span": "s2",
                "t_ms": 3.0,
                "fields": {
                    "state": "firing",
                    "t_sim_ms": 26_500.0,
                    "burn_fast": 4.0,
                    "burn_slow": 2.1,
                    "budget_consumed": 0.8,
                    "objective_ms": 32.0,
                },
            }
        )
        return records

    def test_alert_joins_resilience_timeline_and_alert_list(self):
        summary = summarize_records(self._records_with_alert())
        assert [r["name"] for r in summary.slo_alerts] == ["slo.alert"]
        assert "slo.alert" in [r["name"] for r in summary.resilience]

    def test_alert_fields_exported_in_json(self):
        summary = summarize_records(self._records_with_alert())
        parsed = json.loads(json.dumps(summary.to_json_dict()))
        assert parsed["slo_alerts"] == [
            {
                "state": "firing",
                "t_sim_ms": 26_500.0,
                "burn_fast": 4.0,
                "burn_slow": 2.1,
                "budget_consumed": 0.8,
                "objective_ms": 32.0,
            }
        ]

    def test_alert_rendered_on_timeline(self):
        report = render_report(summarize_records(self._records_with_alert()))
        assert "slo.alert" in report
        assert "state=firing" in report


class TestSummarizePaths:
    def _write(self, path, records):
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        return path

    def test_single_file_matches_summarize_trace(self, tmp_path):
        path = self._write(tmp_path / "one.jsonl", make_records())
        merged = summarize_paths([path])
        single = summarize_trace(path)
        assert merged.to_json_dict() == single.to_json_dict()

    def test_directory_expands_to_sorted_members(self, tmp_path):
        self._write(tmp_path / "b.jsonl", make_records())
        self._write(tmp_path / "a.jsonl", make_records())
        (tmp_path / "notes.txt").write_text("ignored")
        files = expand_trace_paths([tmp_path])
        assert [f.name for f in files] == ["a.jsonl", "b.jsonl"]

    def test_merged_summary_equals_concatenated_records(self, tmp_path):
        left = request_records([10.0, 20.0])
        right = request_records([30.0, 40.0], start_ms=10_000.0)
        self._write(tmp_path / "a.jsonl", left)
        self._write(tmp_path / "b.jsonl", right)
        merged = summarize_paths([tmp_path])
        reference = summarize_records(left + right)
        assert merged.fork_counts == reference.fork_counts
        assert (
            merged.request_latency.state_dict()
            == reference.request_latency.state_dict()
        )
        assert (
            merged.windowed_latency.state() == reference.windowed_latency.state()
        )
        assert "(2 traces)" in merged.path

    def test_no_trace_files_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no trace files"):
            summarize_paths([tmp_path])
