"""Cross-run regression diffing: compare two runs' observability artifacts.

``repro obs diff BASE OTHER`` compares two files of any mix of:

- **pytest-benchmark JSON** (``BENCH_*.json``) — per-benchmark mean
  runtimes;
- **obs report JSON** (``repro obs report --json`` output) — per-phase
  wall timings plus the simulated request-latency percentiles, cumulative
  and windowed;
- **raw trace JSONL** — summarized on the fly into the same report shape.

Every compared metric becomes a :class:`DiffEntry` with a verdict:

========== =====================================================
``ok``     within the warn threshold
``warn``   drifted past ``warn`` but under ``fail`` (annotation)
``regression`` worse by at least ``fail`` (nonzero exit)
``improved``   better by at least ``warn`` (informational)
========== =====================================================

Latency-like metrics are directional (bigger is worse); count-like
metrics (requests per fork path, phase counts) diff symmetrically and
never fail the run on their own — machine speed can't change them, but a
behavioural change shows up as a loud ``warn``.

This is the soft complement to the hard ≥Nx gates in ``benchmarks/``:
``make bench-diff`` runs it in CI against checked-in baselines, so a
10–25% creep that no hard gate would catch still gets surfaced, while
genuine regressions past the configured threshold fail the job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .report import TraceSummary, parse_jsonl, summarize_records

PathLike = Union[str, Path]

#: Verdicts, in increasing severity (for sorting reports).
VERDICTS = ("improved", "ok", "warn", "regression")


@dataclass(frozen=True)
class DiffEntry:
    """One compared metric between the base and other run."""

    name: str
    metric: str
    base: float
    other: float
    verdict: str
    #: Directional metrics fail when ``other`` exceeds ``base``; count
    #: metrics are symmetric and cap at ``warn``.
    directional: bool = True

    @property
    def delta(self) -> float:
        return self.other - self.base

    @property
    def ratio(self) -> Optional[float]:
        if self.base == 0:
            return None
        return self.other / self.base

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "base": self.base,
            "other": self.other,
            "delta": self.delta,
            "ratio": self.ratio,
            "verdict": self.verdict,
        }


@dataclass
class DiffReport:
    """Every compared metric plus the thresholds that judged them."""

    base_path: str
    other_path: str
    warn_threshold: float
    fail_threshold: float
    entries: List[DiffEntry] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.verdict == "regression"]

    @property
    def warnings(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.verdict == "warn"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base_path,
            "other": self.other_path,
            "warn_threshold": self.warn_threshold,
            "fail_threshold": self.fail_threshold,
            "regressions": len(self.regressions),
            "warnings": len(self.warnings),
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def render(self) -> str:
        lines = [
            f"diff — base: {self.base_path}",
            f"       other: {self.other_path}",
            f"thresholds: warn ≥ {self.warn_threshold:.0%}, "
            f"fail ≥ {self.fail_threshold:.0%}",
            "",
        ]
        if not self.entries:
            lines.append("no comparable metrics found")
            return "\n".join(lines)
        rows = []
        order = {verdict: i for i, verdict in enumerate(VERDICTS)}
        for entry in sorted(
            self.entries,
            key=lambda e: (-order.get(e.verdict, 0), e.name, e.metric),
        ):
            ratio = entry.ratio
            change = f"{ratio - 1.0:+.1%}" if ratio is not None else "n/a"
            rows.append(
                [
                    entry.verdict.upper(),
                    entry.name,
                    entry.metric,
                    f"{entry.base:.6g}",
                    f"{entry.other:.6g}",
                    change,
                ]
            )
        headers = ["verdict", "name", "metric", "base", "other", "change"]
        cells = [headers] + rows
        widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
        for i, row in enumerate(cells):
            lines.append(
                "  ".join(c.ljust(widths[j]) for j, c in enumerate(row))
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(
            f"{len(self.regressions)} regression(s), "
            f"{len(self.warnings)} warning(s), "
            f"{len(self.entries)} metric(s) compared"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Artifact loading
# ---------------------------------------------------------------------------
class ArtifactError(ValueError):
    """An artifact that is missing, unreadable or not in a known format."""


def load_artifact(path: PathLike) -> Tuple[str, Dict[str, Any]]:
    """Load one artifact; returns ``(kind, metrics)``.

    ``kind`` is ``"bench"`` or ``"report"``; ``metrics`` maps
    ``(name, metric)``-style nested dicts as consumed by
    :func:`diff_artifacts`. Raw trace JSONL is summarized into the report
    shape, so traces and report JSONs diff interchangeably. Raises
    :class:`ArtifactError` when ``path`` cannot be read or parsed.
    """
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or str(error)
        raise ArtifactError(f"{path}: cannot read artifact ({reason})") from error
    data: Optional[Any] = None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict) and "benchmarks" in data:
        return "bench", _bench_metrics(data)
    if isinstance(data, dict) and "phases" in data:
        return "report", _report_metrics(data)
    # Fall back to trace JSONL (one JSON record per line).
    records, unparsed = parse_jsonl(text, str(path))
    if not records:
        raise ArtifactError(
            f"{path}: neither bench JSON, report JSON nor parseable "
            f"trace JSONL ({unparsed} unparsed line(s))"
        )
    summary = summarize_records(records, unparsed, path=str(path))
    return "report", _summary_metrics(summary)


def _bench_metrics(data: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """pytest-benchmark JSON -> {bench name: {metric: (value, kind)}}."""
    metrics: Dict[str, Dict[str, Any]] = {}
    for bench in data.get("benchmarks", []):
        name = str(bench.get("name", "?"))
        stats = bench.get("stats") or {}
        entry: Dict[str, Any] = {}
        mean = stats.get("mean")
        if mean is not None:
            entry["mean_s"] = (float(mean), "latency")
        median = stats.get("median")
        if median is not None:
            entry["median_s"] = (float(median), "latency")
        if entry:
            metrics[name] = entry
    return metrics


def _report_metrics(data: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """obs-report JSON dict -> comparable metrics (simulated time only).

    Wall-clock phase *timings* are intentionally excluded: they measure
    the machine, not the code under test, and would make trace diffs
    flap. Phase/request counts and simulated latencies are deterministic.
    """
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, agg in (data.get("phases") or {}).items():
        metrics[f"phase:{name}"] = {"count": (float(agg["count"]), "count")}
    for key, count in (data.get("fork_counts") or {}).items():
        metrics[f"fork:{key}"] = {"requests": (float(count), "count")}
    latency = data.get("request_latency") or {}
    if latency.get("count"):
        entry = {}
        for stat in ("p50", "p90", "p99", "mean"):
            if stat in latency:
                entry[stat] = (float(latency[stat]), "latency")
        entry["count"] = (float(latency["count"]), "count")
        metrics["request_latency_ms"] = entry
    windowed = (data.get("windowed_latency") or {}).get("current") or {}
    if windowed.get("count"):
        metrics["windowed_latency_ms"] = {
            stat: (float(windowed[stat]), "latency")
            for stat in ("p50", "p90", "p99", "mean")
            if stat in windowed
        }
    return metrics


def _summary_metrics(summary: TraceSummary) -> Dict[str, Dict[str, Any]]:
    return _report_metrics(summary.to_json_dict())


# ---------------------------------------------------------------------------
# Diffing
# ---------------------------------------------------------------------------
def _judge(
    base: float,
    other: float,
    kind: str,
    warn: float,
    fail: float,
) -> Tuple[str, bool]:
    """(verdict, directional) for one metric pair."""
    directional = kind == "latency"
    if base == 0.0:  # flowcheck: ignore[float-eq] -- 0.0 is the exact missing-side sentinel
        if other == 0.0:  # flowcheck: ignore[float-eq] -- see above
            return "ok", directional
        # No baseline to scale against: surface it, never hard-fail.
        return "warn", directional
    change = (other - base) / base
    if directional:
        if change >= fail:
            return "regression", directional
        if change >= warn:
            return "warn", directional
        if change <= -warn:
            return "improved", directional
        return "ok", directional
    # Symmetric count metric: any drift past warn is a warning; counts
    # cannot fail the diff on their own.
    if abs(change) >= warn:
        return "warn", directional
    return "ok", directional


def diff_artifacts(
    base_path: PathLike,
    other_path: PathLike,
    warn_threshold: float = 0.10,
    fail_threshold: float = 0.25,
) -> DiffReport:
    """Compare two artifacts into a :class:`DiffReport`.

    Metrics present in only one run are reported as ``warn`` entries
    (value 0 on the missing side) — a silently vanished benchmark is a
    finding, not a pass.
    """
    if warn_threshold < 0 or fail_threshold < 0:
        raise ValueError("thresholds must be >= 0")
    if fail_threshold < warn_threshold:
        raise ValueError(
            f"fail_threshold ({fail_threshold}) must be >= warn_threshold "
            f"({warn_threshold})"
        )
    base_kind, base_metrics = load_artifact(base_path)
    other_kind, other_metrics = load_artifact(other_path)
    if base_kind != other_kind:
        raise ValueError(
            f"cannot diff a {base_kind} artifact against a {other_kind} "
            f"artifact ({base_path} vs {other_path})"
        )
    report = DiffReport(
        base_path=str(base_path),
        other_path=str(other_path),
        warn_threshold=float(warn_threshold),
        fail_threshold=float(fail_threshold),
    )
    names = sorted(set(base_metrics) | set(other_metrics))
    for name in names:
        base_entry = base_metrics.get(name, {})
        other_entry = other_metrics.get(name, {})
        for metric in sorted(set(base_entry) | set(other_entry)):
            base_value, base_metric_kind = base_entry.get(metric, (0.0, None))
            other_value, other_metric_kind = other_entry.get(
                metric, (0.0, None)
            )
            kind = base_metric_kind or other_metric_kind or "latency"
            if metric not in base_entry or metric not in other_entry:
                # A metric on one side only is a finding, not a pass —
                # and not an "improvement" when the other side vanished.
                verdict, directional = "warn", kind == "latency"
            else:
                verdict, directional = _judge(
                    float(base_value),
                    float(other_value),
                    kind,
                    report.warn_threshold,
                    report.fail_threshold,
                )
            report.entries.append(
                DiffEntry(
                    name=name,
                    metric=metric,
                    base=float(base_value),
                    other=float(other_value),
                    verdict=verdict,
                    directional=directional,
                )
            )
    return report
