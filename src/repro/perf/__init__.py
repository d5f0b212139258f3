"""Performance layer: span timers, counters, and the bounded memo pool.

See :mod:`repro.perf.registry` for instrumentation (``HistogramStat`` and
``DEFAULT_BUCKET_BOUNDS`` are re-exported from :mod:`repro.obs.window`) and
:mod:`repro.perf.memo` for the LRU memoization pool behind
:class:`~repro.search.context.SearchContext`.
"""

from ..obs.window import DEFAULT_BUCKET_BOUNDS, HistogramStat
from .memo import DEFAULT_MAXSIZE, MemoPool, MemoStats
from .registry import PerfRegistry, SpanStat, get_registry, set_registry

__all__ = [
    "DEFAULT_BUCKET_BOUNDS",
    "DEFAULT_MAXSIZE",
    "HistogramStat",
    "MemoPool",
    "MemoStats",
    "PerfRegistry",
    "SpanStat",
    "get_registry",
    "set_registry",
]
