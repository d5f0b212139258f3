"""Tests of the benchmark harness itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _fake_clock(*ticks: int):
    values = iter(ticks)
    return lambda: next(values)


def test_self_times_subtract_direct_children_only():
    # a [0, 100) holds b [10, 40) and d [50, 60); b holds c [20, 30).
    rec = tracer.SpanRecorder(clock=_fake_clock(0, 10, 20, 30, 40, 50, 60, 100))
    a = rec.open("a")
    b = rec.open("b")
    c = rec.open("c")
    rec.close(c)
    rec.close(b)
    d = rec.open("d")
    rec.close(d)
    rec.close(a)
    assert rec.self_times() == {"a": (60, 1), "b": (20, 1), "c": (10, 1), "d": (10, 1)}
    assert rec.top_level_ns() == 100
    assert list(rec.parent) == [-1, 0, 1, 0]


def test_self_times_add_up_to_wall_with_unattributed():
    # Two top-level spans with a gap; the same name nested in itself.
    rec = tracer.SpanRecorder(clock=_fake_clock(5, 7, 9, 12, 20, 30, 31))
    outer = rec.open("x")
    inner = rec.open("x")
    rec.close(inner)
    rec.close(outer)
    other = rec.open("y")
    rec.close(other)
    wall = 40
    total_self = sum(ns for ns, _ in rec.self_times().values())
    unattributed = wall - rec.top_level_ns()
    assert rec.self_times()["x"] == (7, 2)
    assert total_self + unattributed == wall


def test_closing_out_of_order_is_an_error():
    rec = tracer.SpanRecorder()
    first = rec.open("a")
    rec.open("b")
    with pytest.raises(RuntimeError):
        rec.close(first)


def test_speed_scale_averages_samples_in_or_nearest_the_interval():
    sampler = speed.SpeedSampler()
    ref = int(speed.REFERENCE_KERNEL_NS)
    sampler.at.extend(range(0, 100, 10))
    sampler.kernel_ns.extend([ref] * 5 + [2 * ref] * 5)
    assert sampler.scale(0, 45) == pytest.approx(1.0)
    assert sampler.scale(50, 100) == pytest.approx(0.5)
    # Too few samples inside: the five nearest the middle (40..80).
    assert sampler.scale(52, 53) == pytest.approx(1 / 1.8)
    assert sampler.scale(-50, -40) == pytest.approx(1.0)
    # A stretched sample counts as CAP times the median of all (now 2 ref).
    sampler.kernel_ns[1] = 1000 * ref
    assert sampler.scale(0, 45) == pytest.approx(5 / (4 + speed.CAP * 2))


def test_speed_kernel_runs_with_the_collector_paused(monkeypatch):
    import gc

    seen = []
    monkeypatch.setattr(speed, "reference_kernel", lambda: seen.append(gc.isenabled()))
    sampler = speed.SpeedSampler()
    assert gc.isenabled()
    sampler._sample(None, None)
    assert seen == [False]
    assert gc.isenabled()
    gc.disable()
    try:
        sampler._sample(None, None)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(sampler.kernel_ns) == len(sampler.at) == 2


def test_speed_sampler_samples_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler(period_s=0.01) as sampler:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.at) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_every_metric_name_is_well_formed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert len(metric["name"]) <= 64
    assert list(run.declared_units(0)) == [m["name"] for m in declared["end_to_end"]]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


class _Captured(Exception):
    pass


def test_seed_reaches_search(monkeypatch):
    import repro.experiments.common as common

    def capture(scenario, config=None, **kwargs):
        raise _Captured(scenario, config.seed)

    monkeypatch.setattr(common, "run_scenario", capture)
    orders = {}
    for seed in (1, 2):
        workload = workloads.SearchWorkload(seed)
        workload.state = list(range(len(workloads.SCENES)))  # stand-in scenes
        seen = []
        for index in range(workload.prefix_ops):
            with pytest.raises(_Captured) as caught:
                workload.run_op(index)
            scene, config_seed = caught.value.args
            assert config_seed == 0  # the default ExperimentConfig
            seen.append(scene)
        assert sorted(seen) == sorted(workload.state * workloads.SEARCH_REPEATS)
        orders[seed] = seen
    assert orders[1] != orders[2]


@pytest.mark.parametrize("cls", [workloads.ServeWorkload, workloads.ChaosWorkload])
def test_seed_reaches_serving_workloads(cls):
    targets = {}
    for seed in (1, 2, 1):
        workload = cls(seed)
        workload.setup_samples(1)
        targets.setdefault(seed, []).append(
            [workload._op_target(i)[3] for i in range(workload.ops_per_round)]
        )
    assert targets[1][0] == targets[1][1]
    assert targets[1][0] != targets[2][0]


def test_wrappers_are_removed_after_traced_run():
    from repro.model.spec import ModelSpec
    from repro.runtime.engine import FixedPlan
    from repro.search.baselines import dynamic_dnn_surgery
    import repro.search.tree as search_tree
    import repro.experiments.common as common

    before = {
        "fingerprint": ModelSpec.__dict__["fingerprint"],
        "execute": FixedPlan.__dict__["execute"],
        "surgery": dynamic_dnn_surgery,
        "branch_in_tree": search_tree.optimal_branch_search,
        "branch_in_common": common.optimal_branch_search,
    }
    _, metrics = run.run_traced(workloads.ServeWorkload, seed=3, seconds=0)
    assert metrics["runtime.fixed_execute.calls"] > 0
    assert tracer.find_wrappers() == []
    assert ModelSpec.__dict__["fingerprint"] is before["fingerprint"]
    assert FixedPlan.__dict__["execute"] is before["execute"]
    import repro.search.baselines as baselines

    assert baselines.dynamic_dnn_surgery is before["surgery"]
    assert search_tree.optimal_branch_search is before["branch_in_tree"]
    assert common.optimal_branch_search is before["branch_in_common"]


def test_functions_are_patched_where_callers_look_them_up():
    import repro.search.tree as search_tree
    import repro.experiments.common as common
    import repro.runtime.engine as engine

    recorder = tracer.SpanRecorder()
    with tracer.LayerPatches(recorder):
        assert getattr(search_tree.optimal_branch_search, "__wrapped_by_perfbench__", False)
        assert getattr(common.optimal_branch_search, "__wrapped_by_perfbench__", False)
        assert getattr(engine.resolve_offload, "__wrapped_by_perfbench__", False)
        assert tracer.find_wrappers()
    assert tracer.find_wrappers() == []


def test_traced_layers_cover_traced_wall():
    _, metrics = run.run_traced(workloads.ChaosWorkload, seed=4, seconds=0)
    assert set(metrics) == set(run.declared_units(1))
    self_pct = sum(v for k, v in metrics.items() if k.endswith(".self_pct"))
    assert self_pct + metrics["trace.unattributed_pct"] == pytest.approx(100.0)
    assert metrics["trace.unattributed_pct"] == pytest.approx(
        100.0 * metrics["trace.unattributed_ms"] / metrics["trace.wall_ms"]
    )
    assert metrics["runtime.session_infer.calls"] > 0
    assert metrics["faults.lookup.calls"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
