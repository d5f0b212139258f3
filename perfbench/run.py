"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload {search,serve,chaos} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps every layer entry point
(:mod:`tracer`) and reports per-layer self times and counts instead; it also
times the leading operations once without wrappers, to report the tracing
overhead.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. The line before it records the seed, ``nproc``, Python and
numpy versions. The same record, with any check failures, is written to
``perfbench/out/``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` declares them:
    the end-to-end metrics for an untraced run, the per-layer ones for a
    traced run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def environment(seed: int) -> Dict[str, object]:
    import numpy as np

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload_cls, seed: int, seconds: float) -> Tuple[object, Dict[str, float]]:
    from speed import SpeedSampler

    workload = workload_cls(seed)
    with SpeedSampler() as speed:
        setups = workload.setup_samples(workload.setup_repeats)
        workload.run(seconds)
    workload.finish()
    metrics = {
        "setup_s": statistics.median(
            seconds * speed.scale(start, end) for start, end, seconds in setups
        )
    }
    metrics.update(workload.timing(speed))
    metrics.update(workload.quality())
    metrics["peak_rss_mb"] = peak_rss_mb()
    return workload, metrics


def run_traced(workload_cls, seed: int, seconds: float) -> Tuple[object, Dict[str, float]]:
    from tracer import LAYER_NAMES, LayerPatches, SpanRecorder

    # The leading operations without wrappers are the base of the overhead.
    # One warm-up operation first, so neither side pays first-call costs.
    baseline = workload_cls(seed)
    baseline.setup_samples(1)
    baseline.run_op(0)
    begin = time.perf_counter_ns()
    for index in range(baseline.overhead_ops):
        baseline.run_op(index)
    untraced_ns = time.perf_counter_ns() - begin
    overhead_ops = baseline.overhead_ops
    del baseline

    workload = workload_cls(seed)
    recorder = SpanRecorder()

    def mark(index: int) -> None:
        recorder.request_id = index

    workload.on_request = mark
    with LayerPatches(recorder):
        begin = time.perf_counter_ns()
        workload.setup_samples(1)
        workload.run(seconds)
        wall_ns = time.perf_counter_ns() - begin
    workload.on_request = None
    workload.finish()
    traced_ns = sum(end - start for start, end in workload.op_spans[:overhead_ops])

    metrics: Dict[str, float] = {}
    self_times = recorder.self_times()
    for name in LAYER_NAMES:
        self_ns, calls = self_times.get(name, (0, 0))
        metrics[f"{name}.self_pct"] = 100.0 * self_ns / wall_ns
        metrics[f"{name}.calls"] = float(calls)
    metrics.update(workload.layer_stats())
    unattributed_ns = wall_ns - recorder.top_level_ns()
    metrics["trace.wall_ms"] = wall_ns / 1e6
    metrics["trace.unattributed_ms"] = unattributed_ns / 1e6
    metrics["trace.unattributed_pct"] = 100.0 * unattributed_ns / wall_ns
    metrics["trace.overhead_pct"] = 100.0 * (traced_ns / untraced_ns - 1.0)
    metrics["trace.spans"] = float(len(recorder))
    recorder.dump(OUT / f"spans-{workload.name}-seed{seed}.npz")
    return workload, metrics


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    units = declared_units(args.trace)
    run_kind = run_traced if args.trace else run_untraced
    workload, values = run_kind(WORKLOADS[args.workload], args.seed, args.seconds)
    if set(values) != set(units):
        raise RuntimeError(
            f"workload {args.workload} reported {sorted(set(values) - set(units))} "
            f"beyond BENCHMARK.json and not {sorted(set(units) - set(values))}"
        )

    tally = workload.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "errors": tally.errors,
        "result": result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    for error in tally.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
