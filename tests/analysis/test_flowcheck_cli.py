"""CLI behavior of ``python -m repro.analysis --flow``: exit codes, bad
or empty targets, JSON output, report files and inline suppressions."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.__main__ import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

CLEAN = """
    def _helper(x):
        return x + 1
"""

BROKEN = """
    def f(bandwidth_mbps):
        return 8.0 / bandwidth_mbps
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(textwrap.dedent(CLEAN))
    return path


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text(textwrap.dedent(BROKEN))
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_file):
        assert main(["--flow", str(clean_file)]) == 0

    def test_findings_exit_one(self, broken_file):
        assert main(["--flow", str(broken_file)]) == 1

    def test_repo_source_is_clean(self, capsys):
        # Overlapping targets count each file once.
        code = main(["--flow", "--format", "json", str(REPO_SRC),
                     str(REPO_SRC / "obs")])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == len(list(REPO_SRC.rglob("*.py")))

    def test_list_rules_exits_zero(self, capsys):
        assert main(["--flow", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("div-guard", "float-eq", "ambient-rng",
                        "tensor-alias", "boundary-contract", "print-call"):
            assert rule_id in out

    def test_artifact_mode_without_targets_exits_two(self, capsys):
        assert main([]) == 2


class TestNothingToCheck:
    """A gate that checks no file must fail loudly, never pass."""

    def test_missing_target_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent"
        assert main(["--flow", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err
        assert len(err.strip().splitlines()) == 1

    def test_missing_target_beside_real_one_exits_two(self, clean_file,
                                                      tmp_path):
        missing = tmp_path / "typo.py"
        assert main(["--flow", str(clean_file), str(missing)]) == 2

    def test_target_without_python_files_exits_two(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not python\n")
        assert main(["--flow", str(tmp_path)]) == 2
        assert "no .py files" in capsys.readouterr().err

    def test_no_default_target_here_exits_two(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--flow"]) == 2
        assert "default targets" in capsys.readouterr().err


class TestJsonOutput:
    def test_schema_on_findings(self, broken_file, capsys):
        code = main(["--flow", "--format", "json", str(broken_file)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version", "files_checked", "findings", "suppressed"
        }
        assert payload["version"] == 2
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == "div-guard"
        assert finding["path"] == str(broken_file)
        assert finding["line"] == 3
        assert finding["severity"] == "error"
        assert "bandwidth_mbps" in finding["message"]
        assert finding["hint"]

    def test_schema_on_clean_tree(self, clean_file, capsys):
        assert main(["--flow", "--format", "json", str(clean_file)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []


class TestReportFile:
    def test_report_written_alongside_human_output(self, broken_file,
                                                   tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(["--flow", "--report", str(report),
                     str(broken_file)])
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["version"] == 2
        assert payload["findings"][0]["rule"] == "div-guard"
        # stdout stays human-readable: not JSON.
        out = capsys.readouterr().out
        assert "div-guard" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)


class TestSuppressionViaCli:
    def test_suppressed_finding_reported_in_counts(self, tmp_path, capsys):
        path = tmp_path / "suppressed.py"
        path.write_text(
            "def _f(bandwidth_mbps):\n"
            "    return 8.0 / bandwidth_mbps"
            "  # flowcheck: ignore[div-guard] -- test\n"
        )
        assert main(["--flow", "--format", "json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["suppressed"] == 1
