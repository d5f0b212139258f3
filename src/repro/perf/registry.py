"""The one instrumentation API: span timers, counters and histograms.

A :class:`PerfRegistry` accumulates named counters, span timings (count /
total / max / mean milliseconds) and latency histograms with
dictionary-write overhead, so it can stay enabled inside loops that run
thousands of times per search episode. :meth:`PerfRegistry.span` is the
only span API in :mod:`repro`: it reads ``time.perf_counter()`` once on
entry and once on exit and feeds that one duration to the span's
:class:`SpanStat` and, while the process
:class:`~repro.obs.trace.TraceRecorder` is enabled, to one trace span
record. The registry and the trace therefore see the same spans with the
same durations.

The process-wide default registry times the scenario phases
(``run_scenario``, ``scenario.*``, ``chaos.replay.*``), the search
episodes (``branch.episode``, ``tree.episode`` and its ``forward`` /
``backward`` / ``graft`` phases), reward evaluation (``search.evaluate``),
the latency model (``latency.estimate_composed``) and every served request
(``emulator.request`` / ``session.infer``). ``snapshot()`` / ``dump()``
export everything as JSON (the ``make bench-json`` target persists it next
to the pytest-benchmark results).

Layering: this module builds on :mod:`repro.obs` (the trace recorder, the
histogram and the simulated-time windows) and on nothing else in
:mod:`repro`. :mod:`repro.obs` imports nothing from :mod:`repro.perf`, so
any layer may depend on both without cycles.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, Union

from ..obs.trace import NULL_SPAN, NullSpan, TraceSpan, get_recorder
from ..obs.window import HistogramStat, WindowedCounter, WindowedHistogram

PathLike = Union[str, Path]


@dataclass
class SpanStat:
    """Accumulated timings of one named span."""

    count: int = 0
    total_ms: float = 0.0
    max_ms: float = 0.0

    @property
    def mean_ms(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total_ms / self.count

    def record(self, elapsed_ms: float) -> None:
        self.count += 1
        self.total_ms += elapsed_ms
        if elapsed_ms > self.max_ms:
            self.max_ms = elapsed_ms

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_ms": self.total_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
        }


class PerfRegistry:
    """Named counters plus span timers, dumpable as JSON.

    ``enabled=False`` makes :meth:`count` a cheap early return and keeps
    :meth:`span` out of the registry (it still feeds an enabled process
    recorder), so instrumented code never needs its own gating.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, int] = {}
        self._spans: Dict[str, SpanStat] = {}
        self._histograms: Dict[str, HistogramStat] = {}
        # Windowed companions, keyed on *simulated* time (never wall
        # clock).
        self._windows: Dict[str, WindowedHistogram] = {}
        self._window_counters: Dict[str, WindowedCounter] = {}

    # -- counters ---------------------------------------------------------
    def count(self, name: str, by: int = 1) -> None:
        """Increment counter ``name`` by ``by``."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + by

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    # -- spans ------------------------------------------------------------
    def record_span(self, name: str, elapsed_ms: float) -> None:
        """Fold one externally-timed duration into span ``name``."""
        if not self.enabled:
            return
        stat = self._spans.get(name)
        if stat is None:
            stat = self._spans[name] = SpanStat()
        stat.record(elapsed_ms)

    @contextmanager
    def span(
        self, name: str, **fields: Any
    ) -> Iterator[Union[TraceSpan, NullSpan]]:
        """Time the enclosed block once; fold it into span ``name`` and,
        while the process recorder is enabled, into one trace span record.

        Yields the trace handle (``.add()`` attaches late fields) or the
        shared inert handle. The trace record carries an ``"error"`` field
        only when an exception leaves this span's own body.
        """
        recorder = get_recorder()
        tracing = recorder.enabled
        if not (self.enabled or tracing):
            yield NULL_SPAN
            return
        start = time.perf_counter()
        handle = recorder.open_span(name, start, fields) if tracing else None
        error = None
        try:
            yield NULL_SPAN if handle is None else handle
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            self.record_span(name, elapsed_ms)
            if handle is not None:
                recorder.close_span(handle, elapsed_ms, error)

    def span_stat(self, name: str) -> SpanStat:
        """Accumulated stats of span ``name`` (zeros if never recorded)."""
        return self._spans.get(name, SpanStat())

    # -- histograms --------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name`` (latency percentiles)."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = HistogramStat()
        hist.record(value)

    def histogram(self, name: str) -> HistogramStat:
        """Histogram ``name`` (an empty one if never observed)."""
        return self._histograms.get(name, HistogramStat())

    # -- windowed metrics (simulated-time rings) ---------------------------
    def observe_at(self, name: str, value: float, t_ms: float) -> None:
        """Fold ``value`` into both the cumulative histogram ``name`` and
        its sliding-window companion, bucketed on simulated time ``t_ms``.

        The windowed ring is what makes a brownout's p99 spike visible
        inside a long sweep: the cumulative histogram only ever dilutes
        it. ``t_ms`` must be the *simulated* clock (request completion
        time), consistent with the WALLCLOCK-SPAN rule.
        """
        self.observe(name, value)
        if not self.enabled:
            return
        window = self._windows.get(name)
        if window is None:
            window = self._windows[name] = WindowedHistogram()
        window.record(value, t_ms=t_ms)

    def count_at(self, name: str, by: int = 1, *, t_ms: float) -> None:
        """Increment counter ``name`` cumulatively *and* in its
        simulated-time window ring."""
        self.count(name, by)
        if not self.enabled:
            return
        counter = self._window_counters.get(name)
        if counter is None:
            counter = self._window_counters[name] = WindowedCounter()
        counter.add(by, t_ms=t_ms)

    def window(self, name: str):
        """The :class:`~repro.obs.window.WindowedHistogram` for ``name``
        (``None`` if :meth:`observe_at` never recorded into it)."""
        return self._windows.get(name)

    def window_counter(self, name: str):
        """The :class:`~repro.obs.window.WindowedCounter` for ``name``
        (``None`` if :meth:`count_at` never recorded into it)."""
        return self._window_counters.get(name)

    # -- export -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Everything recorded so far, as plain JSON-serializable dicts."""
        windows: Dict[str, object] = {}
        for name, window in sorted(self._windows.items()):
            windows[name] = window.state()
        for name, counter in sorted(self._window_counters.items()):
            windows[name] = counter.state()
        return {
            "counters": dict(sorted(self._counters.items())),
            "spans": {
                name: stat.to_dict()
                for name, stat in sorted(self._spans.items())
            },
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "windows": windows,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def dump(self, path: PathLike) -> None:
        """Write the snapshot as a JSON file."""
        Path(path).write_text(self.to_json())

    def reset(self) -> None:
        self._counters.clear()
        self._spans.clear()
        self._histograms.clear()
        self._windows.clear()
        self._window_counters.clear()

    @contextmanager
    def scoped(self) -> Iterator["PerfRegistry"]:
        """Scenario-scoped measurement: reset on entry, yield this registry.

        ``run_scenario`` (and the chaos experiment) enter this at the top so
        counters/spans/histograms never mix across scenarios in one process.
        The registry is deliberately *not* reset again on exit — the caller
        reads the scenario's numbers after the block.
        """
        self.reset()
        yield self


#: Process-wide default registry used by the instrumented hot paths.
_DEFAULT_REGISTRY = PerfRegistry()


def get_registry() -> PerfRegistry:
    """The process-wide default registry."""
    return _DEFAULT_REGISTRY


def set_registry(registry: PerfRegistry) -> PerfRegistry:
    """Swap the default registry (tests / isolated runs); returns the old."""
    global _DEFAULT_REGISTRY
    previous = _DEFAULT_REGISTRY
    _DEFAULT_REGISTRY = registry
    return previous
