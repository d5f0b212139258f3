"""Observability layer: structured traces, windowed metrics, SLOs, reports.

The layer :mod:`repro.perf` builds on (nothing here imports it): the
:class:`TraceRecorder` keeps the ids, nesting and records of a span tree
(one trace per scenario run / inference session, child spans per search
phase, episode and request) plus point events (controller updates,
retries, breaker transitions, SLO alerts); the spans themselves are
opened and timed by :meth:`repro.perf.PerfRegistry.span`, so one clock
read feeds both the registry and the trace. :mod:`repro.obs.window`
keeps the latency histogram and its sliding-window rings keyed on
*simulated* time; :mod:`repro.obs.slo` turns a latency objective into a
multi-window burn-rate alert; :mod:`repro.obs.sink` streams records to a
crash-safe JSONL file; and ``python -m repro.obs`` (also ``repro obs``)
ships two subcommands — ``report`` summarizes recorded traces (files or
per-task directories) into phase timings, per-fork request counts, RL
learning curves, windowed latency and a resilience timeline, and
``diff`` compares two runs' artifacts with regression verdicts.

Tracing is **off by default** — the process-wide recorder is disabled and
instrumented hot paths pay a single attribute check for it. Enable it
around a run with::

    from repro.obs import recording

    with recording("trace.jsonl"):
        run_scenario(scenario)
"""

from .diff import ArtifactError, DiffEntry, DiffReport, diff_artifacts, load_artifact
from .sink import JsonlSink
from .report import (
    RLCurve,
    SpanAgg,
    TraceSummary,
    expand_trace_paths,
    load_trace,
    parse_jsonl,
    render_report,
    summarize_paths,
    summarize_records,
    summarize_trace,
)
from .slo import (
    AlertEvent,
    BurnRateEvaluator,
    SLOPolicy,
    SLOStatus,
    make_burn_rate_breaker,
)
from .trace import (
    TraceRecorder,
    TraceSpan,
    get_recorder,
    recording,
    set_recorder,
)
from .window import (
    WindowedCounter,
    WindowedHistogram,
    merge_window_sections,
    merge_window_states,
)

__all__ = [
    "ArtifactError",
    "AlertEvent",
    "BurnRateEvaluator",
    "DiffEntry",
    "DiffReport",
    "JsonlSink",
    "RLCurve",
    "SLOPolicy",
    "SLOStatus",
    "SpanAgg",
    "TraceRecorder",
    "TraceSpan",
    "TraceSummary",
    "WindowedCounter",
    "WindowedHistogram",
    "diff_artifacts",
    "expand_trace_paths",
    "get_recorder",
    "load_artifact",
    "load_trace",
    "make_burn_rate_breaker",
    "merge_window_sections",
    "merge_window_states",
    "parse_jsonl",
    "recording",
    "render_report",
    "set_recorder",
    "summarize_paths",
    "summarize_records",
    "summarize_trace",
]
