"""Serving hot path: wall time per request of the Alg. 2 plan walk.

Every block of every request costs the latency model of Eqns. 4–5 on the
edge and cloud specs it runs. ``DeviceProfile.model_latency_ms`` computes a
spec's latency once per profile and caches it on the immutable spec; the
uncached reference ``compute_model_latency_ms`` rebuilds the spec's MACC
table on every call. The bench serves the same requests through a searched
VGG11/phone tree and the scene's surgery split, with the process registry
on and off, once as shipped and once with the reference patched in, and
writes µs/request for each into ``extra_info``.

Gates (relative, so they hold across machines):

- the cached path is at least 2.5x faster than the uncached reference;
- the instrumentation (registry on minus off) costs at most 10 µs/request.
"""

import math
import time

import numpy as np
import pytest

from repro.experiments.common import ExperimentConfig, build_context, build_environment
from repro.latency.devices import DeviceProfile, compute_model_latency_ms
from repro.network.scenarios import get_scenario
from repro.perf import PerfRegistry, set_registry
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import FixedPlan, TreePlan, admit_plan
from repro.search.baselines import dynamic_dnn_surgery
from repro.search.tree import TreeSearchConfig, model_tree_search

SCENE = ("vgg11", "phone", "4G (weak) indoor")
REQUESTS = 2000
ROUNDS = 7
SEED = 3


@pytest.fixture(scope="module")
def served():
    """(plans by name, clean environment) for the bench scene."""
    scenario = get_scenario(*SCENE)
    context = build_context(scenario)
    trace = scenario.trace(duration_s=ExperimentConfig().trace_duration_s)
    config = TreeSearchConfig(episodes=3, branch_episodes=6, seed=0)
    tree = model_tree_search(context, trace.bandwidth_types(2), config=config).tree
    surgery = dynamic_dnn_surgery(context, float(np.median(trace.samples))).result
    plans = {
        "tree": TreePlan(tree),
        "fixed": FixedPlan(surgery.edge_spec, surgery.cloud_spec),
    }
    for plan in plans.values():
        admit_plan(plan, base=tree.base)
    return plans, build_environment(scenario, context, trace)


def _serve(plan, env) -> None:
    run_emulation(plan, env, num_requests=REQUESTS, seed=SEED, admit=False)


def _us_per_request(plan, env):
    """Best µs/request over ``ROUNDS`` batches with the registry on and
    off, the two interleaved round by round so host drift hits both."""
    registries = {True: PerfRegistry(), False: PerfRegistry(enabled=False)}
    best = dict.fromkeys(registries, math.inf)
    previous = set_registry(registries[True])
    try:
        _serve(plan, env)  # warm the spec latencies and the composer pool
        for _ in range(ROUNDS):
            for on, registry in registries.items():
                set_registry(registry)
                start = time.perf_counter()
                _serve(plan, env)
                best[on] = min(best[on], time.perf_counter() - start)
    finally:
        set_registry(previous)
    return {on: seconds / REQUESTS * 1e6 for on, seconds in best.items()}


def _timings(plans, env):
    """µs/request keyed by (plan name, registry on)."""
    return {
        (name, on): us
        for name, plan in plans.items()
        for on, us in _us_per_request(plan, env).items()
    }


def test_bench_serve_cached_latency(benchmark, served, monkeypatch):
    plans, env = served
    cached = _timings(plans, env)
    with monkeypatch.context() as patch:
        patch.setattr(DeviceProfile, "model_latency_ms", compute_model_latency_ms)
        uncached = _timings(plans, env)

    # The headline the bench-diff gate tracks: the tree plan, registry on.
    benchmark.pedantic(_serve, args=(plans["tree"], env), rounds=ROUNDS, iterations=1)

    for (name, on), us in cached.items():
        registry = "on" if on else "off"
        benchmark.extra_info[f"{name}_registry_{registry}_us"] = round(us, 2)
        benchmark.extra_info[f"{name}_registry_{registry}_uncached_us"] = round(
            uncached[name, on], 2
        )
    speedup = sum(uncached[name, True] for name in plans) / sum(
        cached[name, True] for name in plans
    )
    overhead = max(cached[name, True] - cached[name, False] for name in plans)
    benchmark.extra_info["speedup_vs_uncached"] = round(speedup, 2)
    benchmark.extra_info["registry_overhead_us"] = round(overhead, 2)

    assert speedup >= 2.5, f"cached latency serving only {speedup:.2f}x faster"
    assert overhead <= 10.0, f"registry costs {overhead:.2f} µs/request"
