"""Regenerate the serving artifacts the ``serve`` and ``chaos`` workloads load.

For each scene in :data:`scenes.SCENES` this searches the three methods once
with :func:`repro.experiments.common.run_scenario` (no replays) at the
default :class:`~repro.experiments.common.ExperimentConfig`, then writes the
model tree with ``save_tree`` and the surgery and optimal-branch splits with
``save_plan``. ``manifest.json`` records the seed, the config, the source
commit and the tool versions, plus what each artifact does at runtime.

Run from the repository root::

    python3 perfbench/make_artifacts.py

Serving numbers then depend only on these files, not on the search path of
the commit being measured.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.experiments.common import ExperimentConfig, run_scenario  # noqa: E402
from repro.network.scenarios import get_scenario  # noqa: E402
from repro.search.serialize import save_plan, save_tree  # noqa: E402

from scenes import SCENES, artifact_stem  # noqa: E402


def _source_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _offloads(plan) -> bool:
    return plan.cloud_spec is not None and len(plan.cloud_spec) > 0


def main() -> int:
    config = ExperimentConfig()
    out = HERE / "artifacts"
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for key in SCENES:
        scenario = get_scenario(*key)
        outcome = run_scenario(scenario, config, run_field=False, run_emu=False)
        stem = artifact_stem(key)
        tree = outcome.tree.plan.tree
        files = {
            "tree": f"{stem}.tree.json",
            "surgery": f"{stem}.surgery.json",
            "branch": f"{stem}.branch.json",
        }
        save_tree(tree, out / files["tree"])
        save_plan(outcome.surgery.plan, out / files["surgery"], base=tree.base)
        save_plan(outcome.branch.plan, out / files["branch"], base=tree.base)
        nodes = list(tree.root.iter_nodes())
        entries.append(
            {
                "scene": list(key),
                "files": files,
                "tree_nodes": len(nodes),
                "tree_forks": sum(1 for n in nodes if len(n.children) > 1),
                "tree_offloads": any(n.partitioned for n in nodes),
                "surgery_offloads": _offloads(outcome.surgery.plan),
                "branch_offloads": _offloads(outcome.branch.plan),
                "offline_reward": {
                    m.name: m.offline_reward for m in outcome.methods
                },
            }
        )
        print(f"{scenario}: {entries[-1]}", flush=True)

    manifest = {
        "format": "perfbench.artifacts.v1",
        "seed": config.seed,
        "config": dataclasses.asdict(config),
        "source_commit": _source_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scenes": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
