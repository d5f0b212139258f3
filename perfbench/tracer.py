"""Layer-boundary span recorder for the traced benchmark run.

The benchmark times the program from the outside: :class:`LayerPatches`
replaces each layer entry point listed in :data:`LAYERS` with a wrapper that
opens a span on entry and closes it on exit, then puts the originals back.
Nothing under ``src/`` knows it is being traced.

Spans live in flat integer arrays (name id, start, end, parent, request id)
so a run with millions of calls stays small; they are written out once, at
the end. A span's *self* time is its duration minus the time its direct
children cover. Calls are synchronous and single-threaded, so children never
overlap and that cover is the sum of their durations. Self times of all
spans plus the wall time outside any span (``unattributed``) add up to the
traced wall time exactly, in integer nanoseconds.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

_MISSING = object()


class SpanRecorder:
    """In-memory span store with a parent stack."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.request = array("i")
        self._stack: List[int] = []
        #: Request id stamped on every span opened from now on.
        self.request_id = -1

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was open")

    def self_times(self) -> Dict[str, Tuple[int, int]]:
        """``name -> (self_ns, calls)`` over every closed span."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        n = len(self.start)
        if n == 0:
            return {}
        durations = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        parents = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent], weights=durations[has_parent], minlength=n
        )
        # bincount sums in float64: exact while a parent's children cover
        # less than 2**53 ns (about 104 days).
        self_ns = durations - covered.astype(np.int64)
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        totals = np.bincount(ids, weights=self_ns, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {
            name: (int(totals[i]), int(calls[i])) for i, name in enumerate(self.names)
        }

    def top_level_ns(self) -> int:
        """Wall time covered by spans that have no parent."""
        if not len(self.start):
            return 0
        durations = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(
            self.start, dtype=np.int64
        )
        return int(durations[np.frombuffer(self.parent, dtype=np.int32) < 0].sum())

    def dump(self, path: Path) -> None:
        """Write every span as one ``.npz`` (columns plus the name table)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


def wrap_call(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` inside one span per call."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(index)

    traced.__wrapped_by_perfbench__ = True
    return traced


class _TracedContext:
    """Times a context manager's enter and exit, not the block it guards."""

    __slots__ = ("_inner", "_recorder", "_name")

    def __init__(self, inner, recorder: SpanRecorder, name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name

    def __enter__(self):
        index = self._recorder.open(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.close(index)

    def __exit__(self, *exc):
        index = self._recorder.open(self._name)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._recorder.close(index)


def wrap_context(recorder: SpanRecorder, name: str, fn: Callable) -> Callable:
    """``fn`` returns a context manager: time its creation, enter and exit.

    Each use leaves up to three sibling spans of ``name``; the body between
    enter and exit stays attributed to the caller.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name)
        try:
            inner = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        return _TracedContext(inner, recorder, name)

    traced.__wrapped_by_perfbench__ = True
    return traced


#: (span name, "module:Owner.attr" or "module:function"). A method is
#: patched on the class that defines it; a function is patched in every
#: loaded ``repro`` module that bound it by name, because that is where its
#: callers look it up (``from .x import f`` copies the reference).
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("rl.sample_partition", "repro.search.policies:RLPolicy.sample_partition"),
    ("rl.sample_partition", "repro.search.policies:RLPolicy.sample_partition_batch"),
    ("rl.sample_compression", "repro.search.policies:RLPolicy.sample_compression"),
    ("rl.sample_compression", "repro.search.policies:RLPolicy.sample_compression_batch"),
    ("rl.update_episode", "repro.search.policies:RLPolicy.update_episode"),
    ("rl.update_episode", "repro.search.policies:RLPolicy.update"),
    ("model.fingerprint", "repro.model.spec:ModelSpec.fingerprint"),
    ("model.slice", "repro.model.spec:ModelSpec.slice"),
    ("model.concatenate", "repro.model.spec:ModelSpec.concatenate"),
    ("compression.apply_plan", "repro.search.plan:apply_compression_plan"),
    ("search.evaluate", "repro.search.context:SearchContext.evaluate"),
    ("search.compose", "repro.search.composer:SpecComposer.concat"),
    ("search.branch", "repro.search.branch:optimal_branch_search"),
    ("search.tree", "repro.search.tree:model_tree_search"),
    ("search.surgery", "repro.search.baselines:dynamic_dnn_surgery"),
    ("search.load_artifact", "repro.search.serialize:load_tree"),
    ("search.load_artifact", "repro.search.serialize:load_plan"),
    ("analysis.verify", "repro.analysis.verifier:verify_tree"),
    ("analysis.verify", "repro.analysis.verifier:verify_fixed_plan"),
    ("analysis.verify", "repro.analysis.artifact:verify_artifact"),
    ("runtime.tree_execute", "repro.runtime.engine:TreePlan.execute"),
    ("runtime.fixed_execute", "repro.runtime.engine:FixedPlan.execute"),
    ("runtime.run_emulation", "repro.runtime.emulator:run_emulation"),
    ("runtime.session_infer", "repro.runtime.session:InferenceSession.infer"),
    ("runtime.resolve_offload", "repro.runtime.resilience:resolve_offload"),
    ("runtime.probe_bandwidth", "repro.runtime.engine:RuntimeEnvironment.probe_bandwidth"),
    ("latency.model_latency_ms", "repro.latency.devices:DeviceProfile.model_latency_ms"),
    ("latency.estimate_composed", "repro.latency.compute:LatencyEstimator.estimate_composed"),
    ("accuracy.evaluate", "repro.accuracy.base:MemoizedEvaluator.evaluate"),
    ("accuracy.evaluate", "repro.accuracy.surrogate:SurrogateAccuracyModel.evaluate"),
    ("network.transfer", "repro.network.channel:Channel.transfer_time_ms"),
    ("network.transfer", "repro.network.channel:LossyChannel.transfer_time_ms"),
    ("network.attempt", "repro.network.channel:Channel.attempt"),
    ("network.attempt", "repro.network.channel:LossyChannel.attempt"),
    ("faults.lookup", "repro.runtime.faults:FaultSchedule.outage_at"),
    ("faults.lookup", "repro.runtime.faults:FaultSchedule.brownout_multiplier_at"),
    ("faults.lookup", "repro.runtime.faults:FaultSchedule.slowdown_at"),
    ("faults.lookup", "repro.runtime.faults:FaultSchedule.loss_probability_at"),
    ("faults.lookup", "repro.runtime.faults:FaultSchedule.probe_blackout_at"),
    ("obs.slo_observe", "repro.obs.slo:BurnRateEvaluator.observe"),
    ("perf.span", "repro.perf.registry:PerfRegistry.span"),
    ("perf.observe_at", "repro.perf.registry:PerfRegistry.observe_at"),
    ("perf.count_at", "repro.perf.registry:PerfRegistry.count_at"),
)

#: Targets that return a context manager (see :func:`wrap_context`).
CONTEXT_TARGETS = frozenset({"repro.perf.registry:PerfRegistry.span"})

#: Every span name :data:`LAYERS` can produce, in first-seen order.
LAYER_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _ in LAYERS))


def _resolve(target: str):
    """``"pkg.mod:Owner.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part)
    return owner, attr


class LayerPatches:
    """Installs span wrappers on every layer entry and removes them again.

    Use as a context manager; :meth:`remove` restores each attribute to the
    exact object it held before (or deletes it where it was inherited).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []

    def install(self) -> "LayerPatches":
        if self._saved:
            raise RuntimeError("layer patches are already installed")
        for name, target in LAYERS:
            owner, attr = _resolve(target)
            wrap = wrap_context if target in CONTEXT_TARGETS else wrap_call
            if isinstance(owner, type):
                original = owner.__dict__.get(attr, _MISSING)
                if original is _MISSING:
                    raise AttributeError(f"{target}: not defined on the class")
                self._set(owner, attr, wrap(self.recorder, name, original))
                continue
            original = getattr(owner, attr)
            traced = wrap(self.recorder, name, original)
            for module, key in self._bindings(original):
                self._set(module, key, traced)
        return self

    def _bindings(self, fn: object) -> List[Tuple[object, str]]:
        """Every (module, name) in the program bound to ``fn``, aliases too."""
        return [
            (module, key)
            for module in _program_modules()
            for key, value in vars(module).items()
            if value is fn
        ]

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "LayerPatches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _program_modules() -> List[object]:
    """Every loaded module of the ``repro`` package."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def find_wrappers() -> List[str]:
    """Every loaded attribute of the program still holding a benchmark wrapper."""
    found = []
    for module in _program_modules():
        for key, value in list(vars(module).items()):
            candidates = [value]
            if isinstance(value, type):
                candidates = list(vars(value).values())
            for candidate in candidates:
                if getattr(candidate, "__wrapped_by_perfbench__", False):
                    found.append(f"{module.__name__}.{key}")
    return found
