"""Golden search equivalence: offline search reproduces a recorded run.

``run_scenario`` is replayed on the three benchmark scenes at a small
config. The fixture ``golden/search.json.gz`` holds what the recorded run
produced, and all of it must match exactly:

- every action the RL controllers sampled, in call order (partition cuts
  and per-layer technique names, for the branch search, the tree episodes
  and the boosting branch searches alike);
- every policy update's per-node rewards, in call order;
- the final tree's node fingerprints (edge and cloud spec per node, in
  preorder);
- the surgery / branch / tree (S/B/T) offline rewards.

A change to the controllers' numerics that flips one sampled action shows
up here as a different trajectory. Regenerate the fixture (only when search
output is meant to change) from the repository root::

    PYTHONPATH=src python -m tests.search.test_search_golden
"""

from __future__ import annotations

import contextlib
import gzip
import json
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.experiments.common import ExperimentConfig, run_scenario
from repro.network.scenarios import get_scenario
from repro.search.policies import RLPolicy

FIXTURE = Path(__file__).parent / "golden" / "search.json.gz"

SCENES = (
    ("vgg11", "phone", "4G (weak) indoor"),
    ("vgg11", "tx2", "4G indoor static"),
    ("alexnet", "phone", "WiFi outdoor slow"),
)
CONFIG = dict(tree_episodes=4, branch_episodes=6, emulation_requests=8)


@contextlib.contextmanager
def _recording_policy(log: Dict[str, List[Any]]) -> Iterator[None]:
    """Record every RLPolicy sample and update while the block runs."""
    sample_partition = RLPolicy.sample_partition_batch
    sample_compression = RLPolicy.sample_compression_batch
    update_episode = RLPolicy.update_episode

    def partition(self, *args, **kwargs):
        results = sample_partition(self, *args, **kwargs)
        log["actions"].append(["partition", [cut for cut, _ in results]])
        return results

    def compression(self, *args, **kwargs):
        results = sample_compression(self, *args, **kwargs)
        log["actions"].append(["compression", [names for names, _ in results]])
        return results

    def update(self, updates):
        log["rewards"].append([reward for _, reward in updates])
        return update_episode(self, updates)

    RLPolicy.sample_partition_batch = partition
    RLPolicy.sample_compression_batch = compression
    RLPolicy.update_episode = update
    try:
        yield
    finally:
        RLPolicy.sample_partition_batch = sample_partition
        RLPolicy.sample_compression_batch = sample_compression
        RLPolicy.update_episode = update_episode


def _fingerprint(spec) -> Any:
    return None if spec is None else spec.fingerprint()


def run_scene(scene: Tuple[str, str, str]) -> Dict[str, Any]:
    log: Dict[str, List[Any]] = {"actions": [], "rewards": []}
    with _recording_policy(log):
        outcome = run_scenario(
            get_scenario(*scene),
            ExperimentConfig(**CONFIG),
            run_field=False,
            run_emu=False,
        )
    tree = outcome.tree.plan.tree
    return {
        "actions": log["actions"],
        "rewards": log["rewards"],
        "tree": [
            [node.block_index, _fingerprint(node.edge_spec), _fingerprint(node.cloud_spec)]
            for node in tree.root.iter_nodes()
        ],
        "offline_rewards": [m.offline_reward for m in outcome.methods],
    }


def capture() -> Dict[str, Any]:
    return {"/".join(scene): run_scene(scene) for scene in SCENES}


def _plain(value: Any) -> Any:
    """JSON-normal form (tuples become lists)."""
    return json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    with gzip.open(FIXTURE, "rt", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("scene", SCENES, ids=["/".join(s) for s in SCENES])
def test_search_matches(golden, scene):
    expected = golden["/".join(scene)]
    now = _plain(run_scene(scene))
    assert len(now["actions"]) == len(expected["actions"])
    for index, (then, sampled) in enumerate(zip(expected["actions"], now["actions"])):
        assert sampled == then, f"sample call {index} drew different actions"
    assert now["rewards"] == expected["rewards"]
    assert now["tree"] == expected["tree"]
    assert now["offline_rewards"] == expected["offline_rewards"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(capture(), sort_keys=True, indent=1)
    with gzip.GzipFile(FIXTURE, "wb", mtime=0) as handle:
        handle.write(data.encode("utf-8"))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")
