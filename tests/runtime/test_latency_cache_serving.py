"""Serving with cached spec latencies equals serving with the uncached model.

``DeviceProfile.model_latency_ms`` caches each spec's compute latency on
the spec. For every scene of Table III, a small searched tree and the
scene's surgery split are served on a clean, a field and a faulted
environment, through ``run_emulation`` and through ``InferenceSession``;
then everything is served again with ``model_latency_ms`` replaced by the
uncached reference ``compute_model_latency_ms``. Outcomes, absorbed faults
and SLO summaries must be identical.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

import numpy as np
import pytest

from repro.experiments.chaos import (
    default_breaker,
    default_fault_schedule,
    default_offload_policy,
)
from repro.experiments.common import build_context, build_environment
from repro.latency.devices import DeviceProfile, compute_model_latency_ms
from repro.network.predictor import EWMAPredictor
from repro.network.scenarios import ALL_SCENARIOS
from repro.obs.slo import SLOPolicy
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import FixedPlan, TreePlan
from repro.runtime.field import FieldConditions, fieldify
from repro.runtime.session import InferenceSession
from repro.search.baselines import dynamic_dnn_surgery
from repro.search.tree import TreeSearchConfig, model_tree_search

TRACE_S = 3.0
REQUESTS = 12
SPACING_MS = 250.0  # REQUESTS arrivals cover the whole fault schedule
SLO_MS = 100.0
SEED = 5


def _scene(scenario):
    """The searched tree, the surgery split and the three environments."""
    context = build_context(scenario)
    trace = scenario.trace(duration_s=TRACE_S)
    types = trace.bandwidth_types(2)
    config = TreeSearchConfig(episodes=2, boost=False, seed=0)
    tree = model_tree_search(context, types, config=config).tree
    surgery = dynamic_dnn_surgery(context, float(np.median(trace.samples))).result
    clean = build_environment(scenario, context, trace)
    envs = {
        "clean": clean,
        "field": fieldify(clean, FieldConditions()),
        "faulted": default_fault_schedule(TRACE_S * 1e3).install(clean),
    }
    return tree, (surgery.edge_spec, surgery.cloud_spec), envs


def _emulate(plan, env, faulted: bool) -> Dict[str, Any]:
    if faulted:
        plan = dataclasses.replace(
            plan, policy=default_offload_policy(), breaker=default_breaker()
        )
        result = run_emulation(
            plan, env, num_requests=REQUESTS, seed=SEED, spacing_ms=SPACING_MS,
            queued=True, pipelined=True, slo=SLOPolicy(objective_ms=SLO_MS),
        )
    else:
        result = run_emulation(plan, env, num_requests=REQUESTS, seed=SEED)
    return {
        "outcomes": result.outcomes,
        "faults": result.swallowed_faults,
        "slo": result.slo,
    }


def _session(tree, env, faulted: bool) -> Dict[str, Any]:
    resilience = (
        dict(
            policy=default_offload_policy(),
            breaker=default_breaker(),
            slo=SLOPolicy(objective_ms=SLO_MS),
        )
        if faulted
        else {}
    )
    session = InferenceSession(tree, env, predictor=EWMAPredictor(), seed=SEED, **resilience)
    for i in range(REQUESTS):
        session.infer(at_ms=i * SPACING_MS)
    return {
        "outcomes": list(session.outcomes),
        "faults": dict(session.fault_counts),
        "stats": session.stats(),
    }


def _serve(tree, split, envs) -> Dict[str, Any]:
    served = {}
    for name, env in envs.items():
        faulted = name == "faulted"
        served[f"{name}/tree"] = _emulate(TreePlan(tree), env, faulted)
        served[f"{name}/surgery"] = _emulate(FixedPlan(*split), env, faulted)
        served[f"{name}/session"] = _session(tree, env, faulted)
    return served


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=str)
def test_cached_serving_equals_uncached(scenario, monkeypatch):
    tree, split, envs = _scene(scenario)
    cached = _serve(tree, split, envs)
    monkeypatch.setattr(DeviceProfile, "model_latency_ms", compute_model_latency_ms)
    uncached = _serve(tree, split, envs)
    assert cached.keys() == uncached.keys()
    for case in cached:
        assert cached[case] == uncached[case], case
