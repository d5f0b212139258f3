"""Python-hygiene rules with no dataflow behind them.

- ``mutable-default``: ``def f(x=[])`` / ``def f(x=dict())`` shares one
  default object across calls, a classic source of cross-request state
  leaks in a long-running serving process;
- ``bare-except``: ``except:`` also swallows ``KeyboardInterrupt`` and
  ``SystemExit``; catch a concrete exception type.
"""

from __future__ import annotations

import ast
from typing import Dict

from ..core import ModuleInfo

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_EMPTY_CONSTRUCTORS = frozenset({"list", "dict", "set"})


def _is_mutable(default: ast.expr) -> bool:
    if isinstance(default, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(default, ast.Call)
        and isinstance(default.func, ast.Name)
        and default.func.id in _EMPTY_CONSTRUCTORS
        and not default.args
        and not default.keywords
    )


class HygieneRule:
    ids = ("mutable-default", "bare-except")

    def catalog(self) -> Dict[str, str]:
        return {
            "mutable-default": "mutable default argument shared across calls",
            "bare-except": "bare except: swallows KeyboardInterrupt/SystemExit",
        }

    def check(self, module: ModuleInfo, report) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, _FUNCTIONS):
                args = node.args
                for default in [*args.defaults, *args.kw_defaults]:
                    if default is not None and _is_mutable(default):
                        report(
                            "mutable-default",
                            default.lineno,
                            "mutable default argument is shared across "
                            "calls; use None and create it in the body",
                        )
            elif isinstance(node, ast.ExceptHandler) and node.type is None:
                report(
                    "bare-except",
                    node.lineno,
                    "bare 'except:' swallows KeyboardInterrupt/SystemExit; "
                    "name the exception type",
                )
