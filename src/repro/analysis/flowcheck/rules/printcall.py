"""Print-discipline rule.

``print-call``: library modules must log through :mod:`logging` so a
serving deployment controls verbosity and destinations; raw ``print``
output is reserved for the entry points that own a terminal:

- anything under ``repro/experiments/`` (figure/table regeneration),
- top-level ``benchmarks/`` and ``examples/`` scripts, whose entire
  job is terminal output,
- ``__main__.py`` CLI modules,
- a function literally named ``main`` (the CLI entry-point convention
  for scripts run as ``python path/to/script.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, List

from ..core import ModuleInfo


class PrintCallRule:
    id = "print-call"

    def catalog(self) -> Dict[str, str]:
        return {
            self.id: (
                "print() in a library module (only experiments/, "
                "benchmarks/, examples/, __main__.py and main() entry "
                "points may print)"
            )
        }

    def check(self, module: ModuleInfo, report) -> None:
        if (
            module.in_package("experiments", "benchmarks", "examples")
            or module.basename == "__main__.py"
        ):
            return

        def walk(node: ast.AST, func_stack: List[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(child, func_stack + [child.name])
                    continue
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "print"
                    and "main" not in func_stack
                ):
                    report(
                        self.id,
                        child,
                        "print() call in a library module",
                        hint=(
                            "use logging.getLogger(__name__) so deployments "
                            "control verbosity"
                        ),
                    )
                walk(child, func_stack)

        walk(module.tree, [])
