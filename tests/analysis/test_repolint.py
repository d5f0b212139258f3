"""Repo-hygiene goldens, run through flowcheck: ``mutable-default``,
``bare-except`` and ``syntax`` with their exact ids and messages, and
global or unseeded RNG use reported as ``ambient-rng`` /
``unseeded-generator`` on the offending line at any scope.
"""

import textwrap
from pathlib import Path

from repro.analysis.__main__ import main
from repro.analysis.flowcheck import check_paths, check_source

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def findings(source, path="<string>"):
    return check_source(textwrap.dedent(source), path).sorted_findings()


def rules(source, path="<string>"):
    return [f.rule for f in findings(source, path)]


def located(source):
    return [(f.rule, f.line) for f in findings(source)]


class TestUnseededRng:
    def test_module_level_global_rng_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert located(src) == [("ambient-rng", 2)]

    def test_module_level_random_module_flagged(self):
        assert located("import random\nv = random.random()\n") == [
            ("ambient-rng", 2)
        ]

    def test_unseeded_constructor_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng()\n"
        assert located(src) == [("unseeded-generator", 2)]

    def test_seeded_constructor_allowed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert findings(src) == []

    def test_calls_inside_functions_flagged(self):
        # Function scope is no refuge: an unseeded generator built per
        # call still pulls OS entropy and makes the run unrepeatable.
        src = """
            import numpy as np

            def sample():
                return np.random.default_rng().random()
            """
        assert located(src) == [("unseeded-generator", 5)]


class TestMutableDefault:
    MESSAGE = (
        "mutable default argument is shared across calls; "
        "use None and create it in the body"
    )

    def test_list_literal_default_flagged(self):
        (finding,) = findings("def f(x=[]):\n    return x\n")
        assert (finding.rule, finding.line) == ("mutable-default", 1)
        assert finding.diagnostic.message == self.MESSAGE

    def test_argless_dict_call_default_flagged(self):
        assert rules("def f(x=dict()):\n    return x\n") == [
            "mutable-default"
        ]

    def test_keyword_only_default_flagged(self):
        assert rules("def f(*, x={}):\n    return x\n") == [
            "mutable-default"
        ]

    def test_immutable_defaults_allowed(self):
        assert findings("def f(x=(), y=None, z=0):\n    return x, y, z\n") == []


class TestBareExcept:
    def test_bare_except_flagged(self):
        src = "try:\n    pass\nexcept:\n    pass\n"
        (finding,) = findings(src)
        assert (finding.rule, finding.line) == ("bare-except", 3)
        assert finding.diagnostic.message == (
            "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
            "name the exception type"
        )

    def test_typed_except_allowed(self):
        src = "try:\n    pass\nexcept ValueError:\n    pass\n"
        assert findings(src) == []


class TestGoldenSnippet:
    def test_all_rules_fire_with_locations(self):
        src = """
            import random

            SEED = random.randint(0, 10)

            def f(acc=[]):
                try:
                    acc.append(1)
                except:
                    pass
                return acc
            """
        result = findings(src, path="golden.py")
        assert [(f.rule, f.line) for f in result] == [
            ("ambient-rng", 4),
            ("mutable-default", 6),
            ("bare-except", 9),
        ]
        assert all(f.path == "golden.py" for f in result)

    def test_syntax_error_reported_not_raised(self):
        assert rules("def f(:\n") == ["syntax"]


class TestGate:
    def test_src_repro_is_clean(self):
        hygiene = {"mutable-default", "bare-except", "ambient-rng",
                   "unseeded-generator"}
        hits = check_paths([REPO_SRC]).findings
        assert [f for f in hits if f.rule in hygiene] == []

    def test_main_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x=[]):\n    return x\n")
        assert main(["--flow", str(clean)]) == 0
        assert main(["--flow", str(dirty)]) == 1
        assert "mutable-default" in capsys.readouterr().out
