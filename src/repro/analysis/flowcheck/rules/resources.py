"""Resource typestate rules over the exception-aware CFG.

``SPAN-LEAK`` — a ``PerfRegistry.span(...)`` context (the one span API:
it times the registry span and the trace span together), a read-mode
``open()``, or a crash-safe sink (``JsonlSink`` / the pool's
``ResultJournal``) bound to a local outside ``with`` must be released
(``close()`` / ``__exit__()`` / handed to ``with``) on *every* CFG exit,
including the unhandled-exception exit. Spans that stay open on a raise
corrupt the latency histograms the offload policy reads; leaked file
handles are the classic slow burn.

``SINK-FLUSH`` — in a worker-bound function (reachable from a
``@worker_safe`` root), a write-mode ``open()`` must be flushed or
closed on every path, and a sink-class handle (which flushes each record
internally) must be *closed* on every path — an open journal handle in
a dying worker races the parent's reopen-on-resume. Worker results that
die buffered in a crashed process are exactly the failure the
crash-safe JSONL sink idiom exists to prevent.

Both rules track only resources bound to simple local names; a resource
that *escapes* — returned, passed to a call, aliased, captured by a
nested function — transfers ownership and stops being tracked
(conservative toward silence). ``with``-managed acquisitions are never
tracked: the context manager guarantees release on all paths by
construction.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..cfg import CFG, Block, build_cfg, evaluated_nodes
from ..core import FunctionInfo, ModuleInfo
from ..project import ProjectIndex
from ..typestate import Machine, State, analyze

#: Attribute names that release a tracked resource outright.
_RELEASE_METHODS = frozenset({"close", "__exit__"})

#: Attribute names that flush buffered output without closing.
_FLUSH_METHODS = frozenset({"flush"})

#: Attribute names that (re)dirty a writer.
_WRITE_METHODS = frozenset({"write", "writelines", "writerow", "writerows"})

#: Attribute calls opening a span context: ``PerfRegistry.span(...)`` is
#: the only span API, so trace roots (``run_scenario``, ``run_chaos``)
#: are matched like every other span. ``.trace(`` stays unmatched: it is
#: a common accessor (``scenario.trace()`` returns a bandwidth trace).
_SPAN_METHODS = frozenset({"span"})

#: Constructors of the crash-safe sink classes. An instance holds the
#: only reference to its file handle, so the handle-release contract the
#: resource rules enforce on raw ``open()`` applies to these verbatim —
#: including the pool's result journal, which wraps a ``JsonlSink``.
_SINK_CLASSES = frozenset(
    {
        "repro.obs.sink.JsonlSink",
        "repro.runtime.pool.ResultJournal",
    }
)


def classify_acquisition(call: ast.Call, module: ModuleInfo) -> Optional[str]:
    """``"span"`` / ``"open-read"`` / ``"open-write"`` / ``"sink"``.

    ``open()`` covers the builtin and ``Path.open``; the mode is the
    second positional argument (first for the method form) or ``mode=``,
    defaulting to read. Sink-class constructions (``JsonlSink``, the
    pool's ``ResultJournal``) resolve through the import table, so
    aliased imports are still recognized. Unknown calls return None.
    """
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in _SPAN_METHODS:
        return "span"
    if module.resolve(func) in _SINK_CLASSES:
        return "sink"
    mode_arg: Optional[ast.expr] = None
    if isinstance(func, ast.Name) and module.resolve(func) == "open":
        if len(call.args) > 1:
            mode_arg = call.args[1]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        if call.args:
            mode_arg = call.args[0]
    else:
        return None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode_arg = keyword.value
    mode = (
        mode_arg.value
        if isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str)
        else "r"
    )
    return "open-write" if any(c in mode for c in "wax+") else "open-read"


def free_loads(root: ast.AST, names: Set[str]) -> Set[str]:
    """Names from ``names`` loaded in ``root`` outside a receiver slot.

    ``h.read()`` does not count (``h`` is the receiver of an attribute
    access — a use, not an escape); ``copy(h)``, ``return h``, ``y = h``
    and a reference from a nested ``def`` all do.
    """
    found: Set[str] = set()
    stack: List[Tuple[ast.AST, Optional[ast.AST]]] = [(root, None)]
    while stack:
        node, parent = stack.pop()
        if (
            isinstance(node, ast.Name)
            and node.id in names
            and isinstance(node.ctx, ast.Load)
            and not (
                isinstance(parent, ast.Attribute) and parent.value is node
            )
        ):
            found.add(node.id)
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))
    return found


class _ResourceMachine(Machine):
    """Shared acquire/release/escape skeleton of both resource rules."""

    #: abstract state a fresh acquisition starts in (per subclass).
    acquired_state = "open"

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        #: resource name -> (line, kind) of its (latest) acquisition.
        self.acquisitions: Dict[str, Tuple[int, str]] = {}

    # -- per-subclass policy ----------------------------------------------
    def tracks(self, kind: str) -> bool:
        raise NotImplementedError

    def method_effect(self, attr: str, kind: str) -> Optional[str]:
        """New abstract state after ``name.attr()``, None when neutral."""
        raise NotImplementedError

    # -- transfer ----------------------------------------------------------
    def transfer(self, state: State, block: Block) -> Tuple[State, State]:
        if block.kind == "with":
            return self._transfer_with(state, block)
        if block.kind != "stmt" or block.stmt is None:
            escaped = self._escape(state, block)
            return escaped, escaped
        stmt = block.stmt

        release = self._release_of(stmt, state)
        if release is not None:
            name, new_state = release
            out = dict(state)
            out[name] = frozenset({new_state})
            return out, out  # releases apply even when they raise

        acquired = self._acquisition_of(stmt)
        if acquired is not None:
            name, kind = acquired
            pre = self._escape(state, block, exclude={name})
            out = dict(pre)
            out[name] = frozenset({self.acquired_state})
            self.acquisitions[name] = (block.line, kind)
            return out, pre  # the acquiring call raising acquires nothing

        escaped = self._escape(state, block)
        return escaped, escaped

    def _transfer_with(self, state: State, block: Block) -> Tuple[State, State]:
        # ``with h:`` hands a tracked resource to a context manager — it
        # is released on all paths from here. Acquisitions *inside* the
        # items are with-managed and deliberately never tracked.
        out = dict(state)
        for item in block.stmt.items:  # type: ignore[union-attr]
            expr = item.context_expr
            if isinstance(expr, ast.Name) and expr.id in out:
                out[expr.id] = frozenset({"closed"})
        return out, out

    def _release_of(
        self, stmt: ast.stmt, state: State
    ) -> Optional[Tuple[str, str]]:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return None
        func = stmt.value.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in state
        ):
            return None
        name = func.value.id
        _, kind = self.acquisitions.get(name, (0, ""))
        effect = self.method_effect(func.attr, kind)
        if effect is None:
            return None
        return name, effect

    def _acquisition_of(self, stmt: ast.stmt) -> Optional[Tuple[str, str]]:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Call)
        ):
            return None
        kind = classify_acquisition(stmt.value, self.module)
        if kind is None or not self.tracks(kind):
            return None
        return stmt.targets[0].id, kind

    def _escape(
        self, state: State, block: Block, exclude: FrozenSet = frozenset()
    ) -> State:
        if not state:
            return state
        tracked = set(state) - set(exclude)
        if not tracked:
            return state
        escaped: Set[str] = set()
        for node in evaluated_nodes(block):
            escaped |= free_loads(node, tracked)
        if not escaped:
            return state
        out = dict(state)
        for name in escaped:
            out[name] = frozenset({"escaped"})
        return out


class _SpanLeakMachine(_ResourceMachine):
    acquired_state = "open"

    def tracks(self, kind: str) -> bool:
        return kind in ("span", "open-read", "sink")

    def method_effect(self, attr: str, kind: str) -> Optional[str]:
        return "closed" if attr in _RELEASE_METHODS else None


class _SinkFlushMachine(_ResourceMachine):
    acquired_state = "dirty"

    def tracks(self, kind: str) -> bool:
        return kind in ("open-write", "sink")

    def method_effect(self, attr: str, kind: str) -> Optional[str]:
        if attr in _RELEASE_METHODS:
            return "clean"
        if kind == "sink":
            # Sink classes flush every record internally; writes are
            # neutral, and only close()/__exit__ discharges the handle —
            # a worker that exits with its journal handle open races the
            # parent's reopen-on-resume.
            return None
        if attr in _FLUSH_METHODS:
            return "clean"
        if attr in _WRITE_METHODS:
            return "dirty"
        return None


_EXIT_PHRASES = (("exit", "a normal return"), ("raise", "an exception path"))


def _leaks(
    cfg: CFG, machine: _ResourceMachine, bad_state: str
) -> Dict[str, List[str]]:
    """resource name -> the exit phrases it reaches in ``bad_state``."""
    in_states = analyze(cfg, machine)
    leaks: Dict[str, List[str]] = {}
    for exit_block, phrase in (
        (cfg.exit, _EXIT_PHRASES[0][1]),
        (cfg.raise_exit, _EXIT_PHRASES[1][1]),
    ):
        for name, states in in_states.get(exit_block.id, {}).items():
            if bad_state in states:
                leaks.setdefault(name, []).append(phrase)
    return leaks


class SpanLeakRule:
    """SPAN-LEAK: span/file acquired outside ``with``, leaked on a path."""

    _WHAT = {"span": "span", "open-read": "file handle", "sink": "record sink"}

    def catalog(self) -> Dict[str, str]:
        return {
            "SPAN-LEAK": (
                "span or file handle acquired outside `with` is not "
                "released on every path (including exception paths)"
            )
        }

    def check(
        self,
        project: ProjectIndex,
        module: ModuleInfo,
        function: FunctionInfo,
        cfg: CFG,
        report,
    ) -> None:
        machine = _SpanLeakMachine(module)
        for name, phrases in sorted(_leaks(cfg, machine, "open").items()):
            line, kind = machine.acquisitions.get(name, (cfg.entry.line, "span"))
            report(
                "SPAN-LEAK",
                line,
                f"{self._WHAT.get(kind, 'resource')} `{name}` in "
                f"`{function.qualname}` may never be released on "
                f"{' and on '.join(phrases)}",
                hint="wrap the acquisition in `with`, or release it in "
                "a `finally`",
            )


class SinkFlushRule:
    """SINK-FLUSH: worker-bound writer not flushed/closed on every path."""

    def catalog(self) -> Dict[str, str]:
        return {
            "SINK-FLUSH": (
                "write-mode sink in a worker-bound function may exit "
                "without flush()/close() — buffered results die with "
                "the worker"
            )
        }

    def check(
        self,
        project: ProjectIndex,
        module: ModuleInfo,
        function: FunctionInfo,
        cfg: CFG,
        report,
    ) -> None:
        fqname = f"{module.dotted_name}.{function.qualname}"
        root = project.worker_bound.get(fqname)
        if root is None:
            return
        machine = _SinkFlushMachine(module)
        for name, phrases in sorted(_leaks(cfg, machine, "dirty").items()):
            line, _ = machine.acquisitions.get(name, (cfg.entry.line, ""))
            report(
                "SINK-FLUSH",
                line,
                f"writer `{name}` in worker-bound `{function.qualname}` "
                f"(reached from `{root}`) may exit via "
                f"{' and via '.join(phrases)} without flush()/close()",
                hint="flush after each record (crash-safe sink idiom) or "
                "close in a `finally`",
            )


__all__ = [
    "SinkFlushRule",
    "SpanLeakRule",
    "build_cfg",
    "classify_acquisition",
    "free_loads",
]
