"""Observability CLI.

Usage::

    python -m repro.obs report trace.jsonl           # human summary
    python -m repro.obs report traces_dir/           # merge per-task traces
    python -m repro.obs report a.jsonl b.jsonl       # merge several files
    python -m repro.obs report trace.jsonl --json    # machine-readable
    python -m repro.obs report trace.jsonl --strict  # fail on unparsed
    python -m repro.obs diff base.json other.json    # regression verdicts

Also reachable as ``python -m repro obs ...``. ``report`` exits 0 on a
clean trace; ``--strict`` exits 1 when any line failed to parse (the
acceptance bar for a healthy trace is zero unparsed lines). ``diff``
compares two artifacts — ``BENCH_*.json``, ``report --json`` output, or
raw traces — and exits 1 when any directional metric regressed past
``--fail`` (default 25%); drift past ``--warn`` (default 10%) is
annotated but passes. A missing or unparseable artifact is a one-line
error on stderr and exit code 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .diff import ArtifactError, diff_artifacts

#: ``diff`` exit code for a missing or unparseable artifact (1 means a
#: regression; argparse uses 2 for usage errors).
ARTIFACT_ERROR_EXIT = 3
from .report import render_report, summarize_paths


def _cmd_report(args: argparse.Namespace) -> int:
    summary = summarize_paths(args.trace)
    if args.json:
        print(json.dumps(summary.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(render_report(summary))
    if args.strict and summary.unparsed:
        print(
            f"error: {summary.unparsed} unparsed line(s) in {summary.path}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        report = diff_artifacts(
            args.base,
            args.other,
            warn_threshold=args.warn,
            fail_threshold=args.fail,
        )
    except ArtifactError as error:
        print(f"error: {error}", file=sys.stderr)
        return ARTIFACT_ERROR_EXIT
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        )
    return report.exit_code


def build_parser(prog: str = "python -m repro.obs") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Summarize and diff structured observability artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report", help="summarize JSONL trace file(s) or a trace directory"
    )
    report.add_argument(
        "trace",
        nargs="+",
        help="trace .jsonl file(s) and/or directories of per-task traces",
    )
    report.add_argument(
        "--json", action="store_true", help="emit a JSON summary instead of text"
    )
    report.add_argument(
        "--strict", action="store_true", help="exit non-zero on unparsed lines"
    )
    report.set_defaults(func=_cmd_report)

    diff = sub.add_parser(
        "diff",
        help="compare two runs (bench JSON, report JSON, or raw traces)",
    )
    diff.add_argument("base", help="baseline artifact")
    diff.add_argument("other", help="artifact to judge against the baseline")
    diff.add_argument(
        "--warn",
        type=float,
        default=0.10,
        help="relative drift that earns a warning (default: 0.10)",
    )
    diff.add_argument(
        "--fail",
        type=float,
        default=0.25,
        help="relative regression that fails the diff (default: 0.25)",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the diff report as JSON"
    )
    diff.add_argument(
        "--report", help="also write the JSON diff report to this path"
    )
    diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[List[str]] = None, prog: str = "python -m repro.obs") -> int:
    parser = build_parser(prog=prog)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
