"""CI gates read only files a fresh checkout has.

``repro obs diff`` in the Makefile and the CI workflow compares a fresh
benchmark artifact against a baseline. A baseline that git does not track
(for example one an unanchored ``.gitignore`` pattern swallowed) is absent
in CI, and the gate crashes instead of judging anything.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GATE_FILES = (ROOT / "Makefile", ROOT / ".github" / "workflows" / "ci.yml")
DIFF = re.compile(r"repro(?:\.obs| obs) diff\s+(\S+)\s+(\S+)")


def _diffed_baselines():
    return sorted(
        {match.group(1) for path in GATE_FILES for match in DIFF.finditer(path.read_text())}
    )


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )


@pytest.fixture(scope="module")
def work_tree():
    if shutil.which("git") is None or _git("rev-parse", "--is-inside-work-tree").returncode:
        pytest.skip("needs a git work tree")


def test_gates_diff_something():
    assert _diffed_baselines(), "no `repro obs diff` found in the Makefile or CI"


@pytest.mark.parametrize("baseline", _diffed_baselines())
def test_diffed_baseline_is_tracked(work_tree, baseline):
    assert _git("ls-files", "--error-unmatch", baseline).returncode == 0, (
        f"{baseline} is diffed by a gate but not tracked by git"
    )


def _makefile_targets():
    text = (ROOT / "Makefile").read_text()
    return set(re.findall(r"^([A-Za-z0-9_.-]+):", text, flags=re.MULTILINE))


def _ci_make_targets():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    return sorted(set(re.findall(r"\bmake\s+([A-Za-z0-9_-]+)", text)))


def test_ci_runs_make_at_all():
    assert _ci_make_targets(), "no `make <target>` step found in CI"


@pytest.mark.parametrize("target", _ci_make_targets())
def test_ci_make_target_exists(target):
    assert target in _makefile_targets(), (
        f"CI runs `make {target}` but the Makefile has no such target"
    )


@pytest.mark.parametrize(
    "script",
    sorted(set(re.findall(r"benchmarks/[\w/]+\.py", (ROOT / "Makefile").read_text()))),
)
def test_makefile_benchmark_script_exists(script):
    assert (ROOT / script).is_file(), f"the Makefile names missing {script}"
