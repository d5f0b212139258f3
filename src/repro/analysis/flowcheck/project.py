"""Pass 1.5 — the cross-module project index.

Everything interprocedural lives here. After every file is parsed and has
its symbol table, :class:`ProjectIndex` builds

- a **function summary** per function: declared/inferred parameter and
  return units (suffixes, ``Annotated`` metadata, and a fixed-point
  units-flow pass over bodies whose names carry no suffix), the resolved
  repo-internal **call edges**, whether the function is marked
  ``@worker_safe``, the module-level state it mutates, and its RNG
  hazards;
- the set of **module-level mutable bindings** across the whole file set
  (dict/list/set literals and constructed objects like the process-wide
  ``PerfRegistry``), plus module-level RNG generators;
- the **worker-bound set**: every function reachable in the call graph
  from a ``@worker_safe`` root, each tagged with the root that reaches
  it.

Rules consume the index through :meth:`ProjectIndex.resolve_call` (for
units-at-call-sites) and the per-module summary lists (for the
concurrency family). Resolution is name-based and deliberately
conservative: a call that cannot be resolved to a summary is simply not
checked.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .core import FunctionInfo, ModuleInfo
from .unitflow import UnitFlow, annotation_unit
from .units import Unit, unit_of_identifier

#: RNG constructors (numpy.random / random) — fine when seeded with a
#: threaded seed, hazardous with a constant seed in worker-bound code.
RNG_CONSTRUCTORS = frozenset(
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

#: Method names that mutate their receiver. Only consulted for receivers
#: resolved to *module-level* bindings, so ordinary locals never match.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "register",
        "unregister",
        "push",
        "record",
        "observe",
        "incr",
        "increment",
        "set",
        "put",
        "reset",
    }
)

#: How many fixed-point sweeps the return-unit inference runs. Unit facts
#: propagate one call level per sweep; repo call chains are shallow.
_INFERENCE_SWEEPS = 3

#: Leaf names that surface faults regardless of how the receiver was
#: reached (``env.attempt_transfer`` resolves to a receiver-local name,
#: not a repo fqname, so the leaf is the only stable handle).
_FAULT_SEED_LEAVES = frozenset({"attempt_transfer", "resolve_offload"})


def _is_fault_seed(fqname: str) -> bool:
    """Is this call-graph node part of the fault-surfacing seed set?"""
    return (
        fqname.startswith("repro.runtime.faults.")
        or fqname.startswith("repro.runtime.resilience.")
        or fqname.rsplit(".", 1)[-1] in _FAULT_SEED_LEAVES
    )


@dataclass
class Mutation:
    """One write to module-level state found inside a function body."""

    line: int
    target: str  # fully qualified name of the module-level binding
    how: str  # human description, e.g. "calls .update()"


@dataclass
class RngHazard:
    """One worker-hostile RNG use found inside a function body."""

    line: int
    kind: str  # "const-seed" | "module-rng"
    detail: str


@dataclass
class FunctionSummary:
    """Everything the interprocedural rules need about one function."""

    module: ModuleInfo
    function: FunctionInfo
    fqname: str
    param_names: List[str] = field(default_factory=list)
    param_units: Dict[str, Unit] = field(default_factory=dict)
    return_unit: Optional[Unit] = None
    worker_safe: bool = False
    calls: Set[str] = field(default_factory=set)
    mutations: List[Mutation] = field(default_factory=list)
    rng_hazards: List[RngHazard] = field(default_factory=list)


def _decorator_leaf(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_worker_safe(function: FunctionInfo) -> bool:
    decorators = getattr(function.node, "decorator_list", [])
    return any(_decorator_leaf(dec) == "worker_safe" for dec in decorators)


def _receiver_name(node: ast.expr) -> Optional[ast.expr]:
    """The object a method call / subscript / attribute write lands on."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return node
    return None


class ProjectIndex:
    """Cross-module summaries, call graph and worker-bound reachability."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        #: fq function name -> summary
        self.functions: Dict[str, FunctionSummary] = {}
        #: fq module-level binding -> line of its definition
        self.module_mutables: Dict[str, int] = {}
        #: fq module-level RNG binding -> line
        self.module_rngs: Dict[str, int] = {}
        #: fq function name -> fq worker-safe root that reaches it
        self.worker_bound: Dict[str, str] = {}
        #: fq function names whose execution can surface injected faults
        #: (reverse call-graph closure from the fault/resilience seeds).
        self.fault_reaching: Set[str] = set()
        self._summaries_by_module: Dict[str, List[FunctionSummary]] = {}
        self._build()

    # -- public API --------------------------------------------------------
    def summaries_for(self, module: ModuleInfo) -> List[FunctionSummary]:
        return self._summaries_by_module.get(module.path, [])

    def resolve_call(
        self, module: ModuleInfo, function: FunctionInfo, call: ast.Call
    ) -> Optional[FunctionSummary]:
        """Summary of the called function, or None when unresolvable."""
        target = self._call_target(module, function, call)
        if target is None:
            return None
        return self.functions.get(target)

    def call_target(
        self, module: ModuleInfo, function: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        """Best-effort fq name of a call's target (may be repo-external)."""
        return self._call_target(module, function, call)

    def reaches_faults(self, target: Optional[str]) -> bool:
        """Can calling ``target`` surface an injected fault?

        True for the seed surface itself (``repro.runtime.faults`` /
        ``repro.runtime.resilience`` members, ``attempt_transfer`` /
        ``resolve_offload`` by leaf name — the method form resolves to a
        receiver-local name) and for everything in the reverse closure.
        """
        if target is None:
            return False
        return target in self.fault_reaching or _is_fault_seed(target)

    # -- construction ------------------------------------------------------
    def _build(self) -> None:
        for module in self.modules:
            self._collect_module_state(module)
        for module in self.modules:
            summaries = [
                self._summarize(module, function)
                for function in module.functions
            ]
            self._summaries_by_module[module.path] = summaries
            for summary in summaries:
                self.functions[summary.fqname] = summary
        self._infer_return_units()
        self._mark_worker_bound()
        self._close_fault_reaching()

    def _collect_module_state(self, module: ModuleInfo) -> None:
        dotted = module.dotted_name
        for node in module.tree.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            is_rng = (
                isinstance(value, ast.Call)
                and module.resolve(value.func).rsplit(".", 1)[-1]
                in RNG_CONSTRUCTORS
            )
            is_mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp)
            ) or isinstance(value, ast.Call)
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                fq = f"{dotted}.{target.id}"
                if is_rng:
                    self.module_rngs[fq] = node.lineno
                elif is_mutable:
                    self.module_mutables[fq] = node.lineno

    def _summarize(
        self, module: ModuleInfo, function: FunctionInfo
    ) -> FunctionSummary:
        dotted = module.dotted_name
        summary = FunctionSummary(
            module=module,
            function=function,
            fqname=f"{dotted}.{function.qualname}",
            worker_safe=_is_worker_safe(function),
        )
        for param in function.params():
            if param.arg in ("self", "cls"):
                continue
            summary.param_names.append(param.arg)
            unit = unit_of_identifier(param.arg) or annotation_unit(
                param.annotation
            )
            if unit is not None:
                summary.param_units[param.arg] = unit
        summary.return_unit = unit_of_identifier(function.name)
        globals_declared: Set[str] = set()
        for node in ast.walk(function.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in ast.walk(function.node):
            if isinstance(node, ast.Call):
                self._record_call(module, function, node, summary)
                self._record_rng(module, node, summary)
                self._record_method_mutation(module, node, summary)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._record_write(
                    module, node, globals_declared, summary
                )
        return summary

    def _call_target(
        self, module: ModuleInfo, function: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        func = call.func
        dotted = module.dotted_name
        if isinstance(func, ast.Name):
            if func.id in module.imports:
                resolved = module.resolve(func)
                return resolved or None
            return f"{dotted}.{func.id}"
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and function.class_name
            ):
                return f"{dotted}.{function.class_name}.{func.attr}"
            resolved = module.resolve(func)
            return resolved or None
        return None

    def _record_call(
        self,
        module: ModuleInfo,
        function: FunctionInfo,
        call: ast.Call,
        summary: FunctionSummary,
    ) -> None:
        target = self._call_target(module, function, call)
        if target is not None:
            summary.calls.add(target)

    def _record_rng(
        self, module: ModuleInfo, call: ast.Call, summary: FunctionSummary
    ) -> None:
        resolved = module.resolve(call.func)
        leaf = resolved.rsplit(".", 1)[-1]
        root = resolved.partition(".")[0]
        if leaf in RNG_CONSTRUCTORS and root in ("numpy", "random"):
            seed: Optional[ast.expr] = call.args[0] if call.args else None
            for kw in call.keywords:
                if kw.arg == "seed":
                    seed = kw.value
            if isinstance(seed, ast.Constant) and isinstance(
                seed.value, (int, float)
            ):
                summary.rng_hazards.append(
                    RngHazard(
                        call.lineno,
                        "const-seed",
                        f"`{leaf}({seed.value!r})`",
                    )
                )
            return
        # Draw on a module-level generator: `_RNG.normal(...)`.
        func = call.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            fq = self._module_binding(module, receiver)
            if fq is not None and fq in self.module_rngs:
                summary.rng_hazards.append(
                    RngHazard(
                        call.lineno,
                        "module-rng",
                        f"`{ast.unparse(func)}()` draws on module-level "
                        f"generator `{fq}`",
                    )
                )

    def _module_binding(
        self, module: ModuleInfo, node: ast.expr
    ) -> Optional[str]:
        """FQ name of a module-level binding this expression refers to."""
        if isinstance(node, ast.Name):
            local = f"{module.dotted_name}.{node.id}"
            if local in self.module_mutables or local in self.module_rngs:
                return local
            if node.id in module.imports:
                resolved = module.imports[node.id]
                if (
                    resolved in self.module_mutables
                    or resolved in self.module_rngs
                ):
                    return resolved
            return None
        if isinstance(node, ast.Attribute):
            resolved = module.resolve(node)
            if resolved in self.module_mutables or resolved in self.module_rngs:
                return resolved
        return None

    def _record_method_mutation(
        self, module: ModuleInfo, call: ast.Call, summary: FunctionSummary
    ) -> None:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in MUTATOR_METHODS:
            return
        receiver = _receiver_name(func.value)
        if receiver is None:
            return
        fq = self._module_binding(module, receiver)
        if fq is not None and fq in self.module_mutables:
            summary.mutations.append(
                Mutation(call.lineno, fq, f"calls `.{func.attr}()` on it")
            )

    def _record_write(
        self,
        module: ModuleInfo,
        stmt: ast.stmt,
        globals_declared: Set[str],
        summary: FunctionSummary,
    ) -> None:
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]  # type: ignore[attr-defined]
        )
        for target in targets:
            if isinstance(target, ast.Name) and target.id in globals_declared:
                summary.mutations.append(
                    Mutation(
                        stmt.lineno,
                        f"{module.dotted_name}.{target.id}",
                        "rebinds it via `global`",
                    )
                )
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = _receiver_name(target.value)
                if base is None:
                    continue
                fq = self._module_binding(module, base)
                if fq is not None and fq in self.module_mutables:
                    how = (
                        "assigns into it"
                        if isinstance(target, ast.Subscript)
                        else f"sets `.{target.attr}` on it"
                    )
                    summary.mutations.append(
                        Mutation(stmt.lineno, fq, how)
                    )

    # -- interprocedural passes -------------------------------------------
    def _infer_return_units(self) -> None:
        for _ in range(_INFERENCE_SWEEPS):
            changed = False
            for summary in self.functions.values():
                if summary.return_unit is not None:
                    continue
                inferred = UnitFlow(
                    summary.module,
                    summary.function,
                    callbacks=None,
                    resolver=self.resolve_call,
                ).run()
                if inferred is not None:
                    summary.return_unit = inferred
                    changed = True
            if not changed:
                break

    def _mark_worker_bound(self) -> None:
        """Worker-bound closure over the call graph, deterministically.

        A function reachable from several ``@worker_safe`` roots is
        attributed to the same root on every run: roots and callees are
        visited in sorted order, because the root name appears in finding
        messages.
        """
        frontier: List[Tuple[str, str]] = sorted(
            (s.fqname, s.fqname)
            for s in self.functions.values()
            if s.worker_safe
        )
        self.worker_bound = {}
        while frontier:
            fqname, root = frontier.pop()
            if fqname in self.worker_bound:
                continue
            self.worker_bound[fqname] = root
            for callee in sorted(self.functions[fqname].calls):
                if callee in self.functions and callee not in self.worker_bound:
                    frontier.append((callee, root))

    def _close_fault_reaching(self) -> None:
        """Fixed point: f reaches faults if it is a seed or calls one."""
        self.fault_reaching = {
            fqname
            for fqname in self.functions
            if _is_fault_seed(fqname)
        }
        changed = True
        while changed:
            changed = False
            for fqname, summary in self.functions.items():
                if fqname in self.fault_reaching:
                    continue
                if any(
                    callee in self.fault_reaching or _is_fault_seed(callee)
                    for callee in summary.calls
                ):
                    self.fault_reaching.add(fqname)
                    changed = True
