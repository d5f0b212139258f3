"""Golden serving equivalence: the serving path reproduces a recorded run.

Every serving entry point — ``run_emulation`` (plain, queued, and queued +
pipelined with a retry policy, breaker and SLO), ``InferenceSession`` (with
an EWMA predictor, policy, breaker and SLO) and ``compose_from_tree`` — is
replayed on three scenes under a clean, a field and a faulted environment,
plus plans and predictors that raise typed faults so the request fault
boundary runs. The fixture ``golden/serving.json.gz`` holds the searched
trees the cases serve and everything the recorded run produced:

- outcomes, absorbed faults, SLO summaries and session stats must match
  exactly;
- every registry counter, histogram and window recorded then must read the
  same now (new names may appear);
- trace records are compared in order without timestamps; a recorded
  record's fields must all be present with equal values (new fields may
  appear).

Regenerate the fixture (only when serving output is meant to change) from
the repository root::

    PYTHONPATH=src python -m tests.runtime.test_serving_golden
"""

from __future__ import annotations

import dataclasses
import gzip
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

import pytest

from repro.experiments.chaos import (
    default_breaker,
    default_fault_schedule,
    default_offload_policy,
)
from repro.experiments.common import build_context, build_environment
from repro.network.predictor import EWMAPredictor
from repro.network.scenarios import get_scenario
from repro.obs.slo import SLOPolicy
from repro.obs.trace import recording
from repro.perf import get_registry
from repro.runtime.emulator import run_emulation
from repro.runtime.engine import FixedPlan, TreePlan
from repro.runtime.faults import CloudUnreachableError, ProbeBlackoutError
from repro.runtime.field import FieldConditions, fieldify
from repro.runtime.session import InferenceSession
from repro.search.compose import compose_from_tree
from repro.search.serialize import tree_from_dict, tree_to_dict
from repro.search.tree import TreeSearchConfig, model_tree_search

FIXTURE = Path(__file__).parent / "golden" / "serving.json.gz"

SCENES = (
    ("vgg11", "phone", "4G (weak) indoor"),
    ("vgg11", "tx2", "4G indoor static"),
    ("alexnet", "phone", "WiFi outdoor slow"),
)
TRACE_S = 3.0
REQUESTS = 16
SPACING_MS = 150.0
SLO_MS = 100.0
SEED = 7


class _FlakyPlan:
    """Raises a typed fault on the first attempt of every third request."""

    def __init__(self, plan) -> None:
        self.plan = plan
        self.first_attempts = 0

    def execute(self, start_ms, env, rng):
        if not env.cloud_outages:  # a first attempt, not the device-only retry
            self.first_attempts += 1
            if self.first_attempts % 3 == 1:
                raise CloudUnreachableError("injected", t_ms=float(start_ms))
        return self.plan.execute(start_ms, env, rng)


class _FlakyPredictor(EWMAPredictor):
    """An EWMA predictor whose every fifth update reports a probe blackout."""

    def __init__(self) -> None:
        super().__init__()
        self.updates = 0

    def update(self, measurement_mbps: float) -> None:
        self.updates += 1
        if self.updates % 5 == 0:
            raise ProbeBlackoutError("injected")
        super().update(measurement_mbps)


def _search_tree(scene: Tuple[str, str, str]) -> Dict[str, Any]:
    scenario = get_scenario(*scene)
    types = scenario.trace(duration_s=TRACE_S).bandwidth_types(2)
    config = TreeSearchConfig(num_blocks=3, episodes=3, branch_episodes=6, seed=0)
    result = model_tree_search(build_context(scenario), types, config=config)
    return tree_to_dict(result.tree)


def _environments(scene: Tuple[str, str, str]):
    scenario = get_scenario(*scene)
    trace = scenario.trace(duration_s=TRACE_S)
    clean = build_environment(scenario, build_context(scenario), trace)
    faulted = default_fault_schedule(TRACE_S * 1e3).install(clean)
    return (
        ("clean", clean),
        ("field", fieldify(clean, FieldConditions())),
        ("faulted", faulted),
    )


def _first_branch(tree) -> FixedPlan:
    """A fixed split: the tree's first root-to-leaf branch."""
    path = tree.branches()[0]
    edge = None
    for node in path:
        if node.edge_spec is not None and len(node.edge_spec):
            edge = node.edge_spec if edge is None else edge.concatenate(node.edge_spec)
    return FixedPlan(edge, path[-1].cloud_spec)


def _plain(value: Any) -> Any:
    """JSON-normal form (tuples become lists, dataclasses dicts)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        value = dataclasses.asdict(value)
    return json.loads(json.dumps(value))


def _emulation(plan, env, **kwargs) -> Dict[str, Any]:
    result = run_emulation(plan, env, num_requests=REQUESTS, seed=SEED, **kwargs)
    breaker = getattr(plan, "breaker", None)
    return {
        "outcomes": [_plain(o) for o in result.outcomes],
        "swallowed_faults": result.swallowed_faults,
        "slo": result.slo,
        "breaker": breaker.transition_counts() if breaker is not None else None,
    }


def _resilient(plan):
    return dataclasses.replace(
        plan, policy=default_offload_policy(), breaker=default_breaker()
    )


def _session(tree, env, flaky: bool) -> Dict[str, Any]:
    session = InferenceSession(
        tree,
        env,
        predictor=_FlakyPredictor() if flaky else EWMAPredictor(),
        seed=SEED,
        policy=default_offload_policy(),
        breaker=default_breaker(),
        slo=SLOPolicy(objective_ms=SLO_MS),
    )
    if flaky:
        session._plan = _FlakyPlan(session._plan)
    for i in range(REQUESTS):
        session.infer(at_ms=i * SPACING_MS)
    return {
        "outcomes": [_plain(o) for o in session.outcomes],
        "stats": _plain(session.stats()),
    }


def _cases(tree, env) -> List[Tuple[str, Callable[[], Dict[str, Any]]]]:
    queued = dict(queued=True, spacing_ms=SPACING_MS)
    piped = dict(queued, pipelined=True, slo=SLOPolicy(objective_ms=SLO_MS))
    cases = []
    for method, make in (
        ("tree", lambda: TreePlan(tree)),
        ("fixed", lambda: _first_branch(tree)),
    ):
        cases += [
            (f"{method}/plain", lambda make=make: _emulation(make(), env)),
            (f"{method}/queued", lambda make=make: _emulation(make(), env, **queued)),
            (
                f"{method}/pipelined",
                lambda make=make: _emulation(_resilient(make()), env, **piped),
            ),
            (
                f"{method}/flaky",
                lambda make=make: _emulation(_FlakyPlan(make()), env, admit=False),
            ),
        ]
    cases += [
        ("session", lambda: _session(tree, env, flaky=False)),
        ("session/flaky", lambda: _session(tree, env, flaky=True)),
    ]
    return cases


def _walks(tree) -> Dict[str, Any]:
    walks = {}
    for label, mbps in (("low", 0.5), ("high", 200.0)):
        composed = compose_from_tree(tree, probe=lambda block, mbps=mbps: mbps)
        walks[label] = {
            "blocks": [node.block_index for node in composed.path],
            "forks": [
                parent.children.index(child)
                for parent, child in zip(composed.path, composed.path[1:])
            ],
            "measured": list(composed.measured_bandwidths),
            "edge": None if composed.edge_spec is None else composed.edge_spec.name,
            "cloud": None if composed.cloud_spec is None else composed.cloud_spec.name,
            "fingerprint": composed.fingerprint(),
        }
    return walks


def _record(run: Callable[[], Dict[str, Any]]) -> Dict[str, Any]:
    """Run one case with a fresh registry and trace; keep what it produced."""
    with get_registry().scoped() as perf, recording() as recorder:
        produced = run()
    snapshot = perf.snapshot()
    produced["registry"] = _plain(
        {key: snapshot[key] for key in ("counters", "histograms", "windows")}
    )
    produced["trace"] = _plain(
        [
            {k: v for k, v in record.items() if k not in ("t_ms", "dur_ms")}
            for record in recorder.records
        ]
    )
    return produced


def capture() -> Dict[str, Any]:
    golden: Dict[str, Any] = {"trees": {}, "cases": {}, "walks": {}}
    for scene in SCENES:
        key = "/".join(scene)
        golden["trees"][key] = _search_tree(scene)
        tree = tree_from_dict(golden["trees"][key])
        golden["walks"][key] = _walks(tree)
        for env_name, env in _environments(scene):
            for case, run in _cases(tree, env):
                golden["cases"][f"{key}/{env_name}/{case}"] = _record(run)
    return golden


def _load() -> Dict[str, Any]:
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return _load()


def _assert_contains(recorded: Any, now: Any, where: str) -> None:
    """Every key recorded then reads the same now; new keys may appear."""
    if isinstance(recorded, dict):
        assert isinstance(now, dict), where
        for key, value in recorded.items():
            assert key in now, f"{where}: {key!r} disappeared"
            _assert_contains(value, now[key], f"{where}.{key}")
    else:
        assert now == recorded, where


def _case_ids() -> List[str]:
    return sorted(_load()["cases"]) if FIXTURE.exists() else []


@pytest.mark.parametrize("scene", ["/".join(scene) for scene in SCENES])
def test_walks_match(golden, scene):
    tree = tree_from_dict(golden["trees"][scene])
    assert _walks(tree) == golden["walks"][scene]


def test_cases_cover_every_scene_and_environment(golden):
    assert len(golden["cases"]) == len(SCENES) * 3 * 10


@pytest.mark.parametrize("case_id", _case_ids())
def test_case_matches(golden, case_id):
    parts = case_id.split("/")
    key, env_name, case = "/".join(parts[:3]), parts[3], "/".join(parts[4:])
    tree = tree_from_dict(golden["trees"][key])
    env = dict(_environments(tuple(key.split("/"))))[env_name]
    run = dict(_cases(tree, env))[case]
    now = _record(run)
    expected = golden["cases"][case_id]

    for field in ("outcomes", "swallowed_faults", "slo", "breaker", "stats"):
        if field in expected:
            assert now[field] == expected[field], field
    _assert_contains(expected["registry"], now["registry"], "registry")
    assert len(now["trace"]) == len(expected["trace"])
    for index, (then, record) in enumerate(zip(expected["trace"], now["trace"])):
        fields = record.pop("fields")
        assert {k: v for k, v in then.items() if k != "fields"} == record, index
        _assert_contains(then["fields"], fields, f"trace[{index}]")


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(capture(), sort_keys=True, indent=1)
    with gzip.GzipFile(FIXTURE, "wb", mtime=0) as handle:
        handle.write(data.encode("utf-8"))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
