"""RNG-discipline rules.

Search results are only reproducible if every draw of randomness flows
from an explicitly seeded generator that the caller threads through
(``rng: np.random.Generator`` parameters everywhere in this repo). Two
ways code breaks that:

- ``ambient-rng``: calling the process-global state — ``np.random.rand``,
  ``random.random`` and friends — at any scope, module level and
  function bodies alike;
- ``unseeded-generator``: constructing ``default_rng()`` / ``Random()``
  with no seed, which silently pulls OS entropy and makes the run
  unrepeatable.
"""

from __future__ import annotations

import ast
from typing import Dict

from ..core import ModuleInfo

#: Constructors that are fine *when given a seed / bit generator*.
_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "Random",
        "PCG64",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


def _root_local_name(node: ast.expr) -> str:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


class RngDisciplineRule:
    ids = ("ambient-rng", "unseeded-generator")

    def catalog(self) -> Dict[str, str]:
        return {
            "ambient-rng": (
                "draw from the process-global RNG instead of a threaded "
                "Generator"
            ),
            "unseeded-generator": (
                "RNG constructed without an explicit seed"
            ),
        }

    def check(self, module: ModuleInfo, report) -> None:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            local_root = _root_local_name(node.func)
            if local_root not in module.imports:
                continue  # method call on a local object (e.g. rng.normal)
            resolved = module.resolve(node.func)
            root = resolved.partition(".")[0]
            if root == "numpy":
                if not resolved.startswith("numpy.random."):
                    continue
            elif root != "random":
                continue
            leaf = resolved.rsplit(".", 1)[-1]
            if leaf in _CONSTRUCTORS:
                if not node.args and not node.keywords:
                    report(
                        "unseeded-generator",
                        node,
                        f"`{resolved}()` constructed without a seed",
                        hint=(
                            "pass an explicit seed (or derived SeedSequence) "
                            "so runs are reproducible"
                        ),
                    )
                continue
            report(
                "ambient-rng",
                node,
                f"call to ambient RNG `{resolved}`",
                hint=(
                    "thread an explicitly seeded np.random.Generator "
                    "(rng parameter) instead of global state"
                ),
            )
