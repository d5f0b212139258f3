"""Sliding-window metrics: rings of mergeable histogram/counter slabs.

Every cumulative metric in :class:`~repro.perf.PerfRegistry` answers
"what happened over the whole run" — which is exactly the wrong question
for a brownout: a 20-second p99 spike inside a two-minute sweep is
invisible in the cumulative histogram, and the SLO burn-rate engine
(:mod:`repro.obs.slo`) has nothing to react to. These classes keep the
recent past queryable:

- :class:`HistogramStat` — the fixed-bucket latency histogram behind
  both the cumulative metric and every slab below;
- :class:`WindowedHistogram` — a ring of :class:`HistogramStat` slabs,
  one per fixed-width time bucket. Any window ``[end - duration, end)`` is answered by merging
  the covered slabs (the histogram mergeability contract), so current
  p50/p90/p99 come out of the same machinery as cumulative percentiles.
- :class:`WindowedCounter` — the same ring over plain sums, for request
  and error rates.

**Simulated time only.** Buckets are keyed on the *simulated* request
clock (``t_ms`` as carried by outcomes and trace fields like
``start_sim_ms``), never wall clock — consistent with the flowcheck
``WALLCLOCK-SPAN`` rule, and the property that makes windows
deterministic: identical seeded runs land identical values in identical
buckets, no matter how fast the host executed them. That is also what
makes cross-worker aggregation exact: per-worker snapshots of the same
scene merge bucket-by-bucket (:func:`merge_window_sections`) into the
same ring a serial run would have produced.

Slabs are bounded (``max_buckets``): once the newest bucket advances
past the ring capacity, the oldest slabs are evicted. Eviction depends
only on the data's own timestamps, so it too is deterministic.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


def _log_spaced_bounds(
    start_ms: float = 0.01, factor: float = 2.0, count: int = 26
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds: 0.01 ms up to ~335 s."""
    return tuple(start_ms * factor**i for i in range(count))


#: Shared bucket layout so histograms from different runs line up.
DEFAULT_BUCKET_BOUNDS = _log_spaced_bounds()


class HistogramStat:
    """Fixed-bucket latency histogram with approximate percentiles.

    Buckets are log-spaced upper bounds (shared across the process via
    :data:`DEFAULT_BUCKET_BOUNDS`, so snapshots from different scenarios
    merge bucket-by-bucket); values above the last bound land in the
    overflow bucket. Sum/count/min/max are exact; percentiles are linearly
    interpolated inside the bucket the rank falls in — the error is
    bounded by the bucket width, which the ROADMAP's percentile tracking
    tolerates and a reservoir would not beat without unbounded memory.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS) -> None:
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, list(bounds)[1:])
        ):
            raise ValueError("bounds must be a strictly increasing sequence")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +overflow
        self.count = 0
        self.sum = 0.0
        self.min = 0.0
        self.max = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (0 <= q <= 1) of recorded values."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi <= lo:
                    return lo
                fraction = (rank - cumulative) / bucket_count
                return lo + (hi - lo) * fraction
            cumulative += bucket_count
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p90(self) -> float:
        return self.quantile(0.90)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def merge(self, other: "HistogramStat") -> "HistogramStat":
        """Fold ``other`` into this histogram, bucket by bucket.

        This is the documented mergeability contract: because bucket
        bounds are shared (:data:`DEFAULT_BUCKET_BOUNDS`), per-scenario /
        per-worker snapshots merge exactly — counts and sum add, min/max
        recompute — and the merged percentile bounds equal those of one
        histogram that recorded every value itself.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        if other.count == 0:
            return self
        if self.count == 0 or other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.count += other.count
        self.sum += other.sum
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        return self

    def state_dict(self) -> Dict[str, object]:
        """Exact serializable state (per-bucket counts, not percentiles)."""
        return {
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_state(
        cls,
        state: Dict[str, object],
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> "HistogramStat":
        """Rebuild a histogram from :meth:`state_dict` output."""
        hist = cls(bounds)
        counts = list(state["counts"])  # type: ignore[arg-type]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"state has {len(counts)} buckets, bounds imply "
                f"{len(hist.counts)}"
            )
        hist.counts = [int(c) for c in counts]
        hist.count = int(state["count"])  # type: ignore[arg-type]
        hist.sum = float(state["sum"])  # type: ignore[arg-type]
        hist.min = float(state["min"])  # type: ignore[arg-type]
        hist.max = float(state["max"])  # type: ignore[arg-type]
        return hist

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, Prometheus-style.

        The final pair uses ``inf`` and equals the total count.
        """
        pairs: List[Tuple[float, int]] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            pairs.append((bound, cumulative))
        pairs.append((float("inf"), self.count))
        return pairs

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }


#: Default bucket width of the simulated-time ring (1 simulated second).
DEFAULT_BUCKET_MS = 1_000.0

#: Default "current window" span for summaries (10 simulated seconds).
DEFAULT_WINDOW_MS = 10_000.0

#: Default ring capacity — at 1 s buckets, ~8.5 simulated minutes.
DEFAULT_MAX_BUCKETS = 512


def _require_positive(value: float, name: str) -> float:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


class WindowedHistogram:
    """A ring of mergeable :class:`HistogramStat` slabs over simulated time.

    ``record(value, t_ms=...)`` lands ``value`` in the slab covering
    ``t_ms``; ``window(duration_ms)`` merges the slabs covering the most
    recent ``duration_ms`` (snapped to bucket boundaries) into one
    histogram. ``state()`` / :meth:`from_state` round-trip the exact
    per-bucket counts so snapshots from parallel workers merge without
    approximation.
    """

    __slots__ = ("bucket_ms", "window_ms", "max_buckets", "bounds", "slabs", "_max_index")

    def __init__(
        self,
        bucket_ms: float = DEFAULT_BUCKET_MS,
        window_ms: float = DEFAULT_WINDOW_MS,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> None:
        self.bucket_ms = _require_positive(bucket_ms, "bucket_ms")
        self.window_ms = _require_positive(window_ms, "window_ms")
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets!r}")
        self.max_buckets = int(max_buckets)
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.slabs: Dict[int, HistogramStat] = {}
        self._max_index = -1

    # -- recording ---------------------------------------------------------
    def bucket_index(self, t_ms: float) -> int:
        """The slab index covering simulated time ``t_ms``."""
        if t_ms < 0:
            raise ValueError(f"t_ms must be >= 0, got {t_ms!r}")
        return int(t_ms // self.bucket_ms)  # flowcheck: ignore[div-guard] -- bucket_ms validated > 0 in __init__

    def record(self, value: float, *, t_ms: float) -> None:
        """Fold ``value`` into the slab covering simulated time ``t_ms``."""
        index = self.bucket_index(t_ms)
        slab = self.slabs.get(index)
        if slab is None:
            slab = self.slabs[index] = HistogramStat(self.bounds)
        slab.record(value)
        if index > self._max_index:
            self._max_index = index
            self._evict()

    def _evict(self) -> None:
        floor = self._max_index - self.max_buckets + 1
        if floor <= 0:
            return
        for index in [i for i in self.slabs if i < floor]:
            del self.slabs[index]

    # -- queries -----------------------------------------------------------
    @property
    def count(self) -> int:
        return sum(slab.count for slab in self.slabs.values())

    def end_ms(self) -> float:
        """Exclusive end of the newest bucket (0 before any record)."""
        if self._max_index < 0:
            return 0.0
        return (self._max_index + 1) * self.bucket_ms

    def window(
        self, duration_ms: Optional[float] = None, end_ms: Optional[float] = None
    ) -> HistogramStat:
        """Merged histogram of the slabs covering ``[end - duration, end)``.

        The window is snapped to bucket boundaries: a slab is included
        when its start lies inside the span. ``end_ms`` defaults to the
        end of the newest bucket; ``duration_ms`` to ``window_ms``.
        """
        duration = self.window_ms if duration_ms is None else float(duration_ms)
        _require_positive(duration, "duration_ms")
        end = self.end_ms() if end_ms is None else float(end_ms)
        out = HistogramStat(self.bounds)
        lo = end - duration
        for index in sorted(self.slabs):
            start = index * self.bucket_ms
            if lo <= start < end:
                out.merge(self.slabs[index])
        return out

    def total(self) -> HistogramStat:
        """All retained slabs merged (the ring's view of "cumulative")."""
        out = HistogramStat(self.bounds)
        for index in sorted(self.slabs):
            out.merge(self.slabs[index])
        return out

    def merge(self, other: "WindowedHistogram") -> "WindowedHistogram":
        """Fold ``other``'s slabs into this ring, bucket-by-bucket."""
        if (
            other.bucket_ms != self.bucket_ms
            or other.bounds != self.bounds
        ):
            raise ValueError(
                "cannot merge windowed histograms with different bucket "
                "layout"
            )
        for index in sorted(other.slabs):
            slab = self.slabs.get(index)
            if slab is None:
                slab = self.slabs[index] = HistogramStat(self.bounds)
            slab.merge(other.slabs[index])
        if other._max_index > self._max_index:
            self._max_index = other._max_index
            self._evict()
        return self

    # -- serialization -----------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Exact serializable state plus a ``current`` window summary."""
        current = self.window()
        return {
            "kind": "histogram",
            "bucket_ms": self.bucket_ms,
            "window_ms": self.window_ms,
            "max_buckets": self.max_buckets,
            "buckets": {
                str(index): self.slabs[index].state_dict()
                for index in sorted(self.slabs)
            },
            "current": {
                "window_ms": self.window_ms,
                "end_ms": self.end_ms(),
                "count": current.count,
                "mean": current.mean,
                "p50": current.p50,
                "p90": current.p90,
                "p99": current.p99,
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WindowedHistogram":
        """Rebuild a ring from :meth:`state` output (summary re-derived)."""
        if state.get("kind") != "histogram":
            raise ValueError(f"not a windowed-histogram state: {state!r}")
        ring = cls(
            bucket_ms=float(state["bucket_ms"]),
            window_ms=float(state.get("window_ms", DEFAULT_WINDOW_MS)),
            max_buckets=int(state.get("max_buckets", DEFAULT_MAX_BUCKETS)),
        )
        for key, slab_state in state.get("buckets", {}).items():
            index = int(key)
            ring.slabs[index] = HistogramStat.from_state(
                slab_state, bounds=ring.bounds
            )
            if index > ring._max_index:
                ring._max_index = index
        ring._evict()
        return ring


class WindowedCounter:
    """A ring of per-bucket sums over simulated time.

    The counter analogue of :class:`WindowedHistogram`: ``add(by,
    t_ms=...)`` accumulates into the covering bucket; ``window_sum`` and
    ``rate_per_s`` answer the recent past. Used for request/violation
    rates by the SLO burn-rate evaluator.
    """

    __slots__ = ("bucket_ms", "window_ms", "max_buckets", "buckets", "_max_index")

    def __init__(
        self,
        bucket_ms: float = DEFAULT_BUCKET_MS,
        window_ms: float = DEFAULT_WINDOW_MS,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
    ) -> None:
        self.bucket_ms = _require_positive(bucket_ms, "bucket_ms")
        self.window_ms = _require_positive(window_ms, "window_ms")
        if max_buckets < 1:
            raise ValueError(f"max_buckets must be >= 1, got {max_buckets!r}")
        self.max_buckets = int(max_buckets)
        self.buckets: Dict[int, float] = {}
        self._max_index = -1

    def bucket_index(self, t_ms: float) -> int:
        if t_ms < 0:
            raise ValueError(f"t_ms must be >= 0, got {t_ms!r}")
        return int(t_ms // self.bucket_ms)  # flowcheck: ignore[div-guard] -- bucket_ms validated > 0 in __init__

    def add(self, by: float = 1.0, *, t_ms: float) -> None:
        index = self.bucket_index(t_ms)
        self.buckets[index] = self.buckets.get(index, 0.0) + float(by)
        if index > self._max_index:
            self._max_index = index
            self._evict()

    def _evict(self) -> None:
        floor = self._max_index - self.max_buckets + 1
        if floor <= 0:
            return
        for index in [i for i in self.buckets if i < floor]:
            del self.buckets[index]

    @property
    def total(self) -> float:
        return sum(self.buckets.values())

    def end_ms(self) -> float:
        if self._max_index < 0:
            return 0.0
        return (self._max_index + 1) * self.bucket_ms

    def window_sum(
        self, duration_ms: Optional[float] = None, end_ms: Optional[float] = None
    ) -> float:
        """Sum over the buckets covering ``[end - duration, end)``."""
        duration = self.window_ms if duration_ms is None else float(duration_ms)
        _require_positive(duration, "duration_ms")
        end = self.end_ms() if end_ms is None else float(end_ms)
        lo = end - duration
        return sum(
            value
            for index, value in self.buckets.items()
            if lo <= index * self.bucket_ms < end
        )

    def rate_per_s(
        self, duration_ms: Optional[float] = None, end_ms: Optional[float] = None
    ) -> float:
        """Windowed sum divided by the window span, per simulated second."""
        duration = self.window_ms if duration_ms is None else float(duration_ms)
        return self.window_sum(duration, end_ms) / (duration / 1e3)

    def merge(self, other: "WindowedCounter") -> "WindowedCounter":
        if other.bucket_ms != self.bucket_ms:
            raise ValueError(
                "cannot merge windowed counters with different bucket_ms"
            )
        for index, value in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0.0) + value
        if other._max_index > self._max_index:
            self._max_index = other._max_index
            self._evict()
        return self

    def state(self) -> Dict[str, Any]:
        return {
            "kind": "counter",
            "bucket_ms": self.bucket_ms,
            "window_ms": self.window_ms,
            "max_buckets": self.max_buckets,
            "buckets": {
                str(index): self.buckets[index]
                for index in sorted(self.buckets)
            },
            "current": {
                "window_ms": self.window_ms,
                "end_ms": self.end_ms(),
                "sum": self.window_sum(),
                "rate_per_s": self.rate_per_s(),
            },
        }

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "WindowedCounter":
        if state.get("kind") != "counter":
            raise ValueError(f"not a windowed-counter state: {state!r}")
        ring = cls(
            bucket_ms=float(state["bucket_ms"]),
            window_ms=float(state.get("window_ms", DEFAULT_WINDOW_MS)),
            max_buckets=int(state.get("max_buckets", DEFAULT_MAX_BUCKETS)),
        )
        for key, value in state.get("buckets", {}).items():
            index = int(key)
            ring.buckets[index] = float(value)
            if index > ring._max_index:
                ring._max_index = index
        ring._evict()
        return ring


# ---------------------------------------------------------------------------
# Snapshot merging (cross-worker aggregation)
# ---------------------------------------------------------------------------
def merge_window_states(states: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Fold several :meth:`state` dicts of *one* metric into one state.

    All states must share a kind and bucket layout. The merged
    ``current`` summary is re-derived from the merged buckets — this is
    what makes a parallel sweep's windowed report equal the serial one.
    """
    if not states:
        raise ValueError("merge_window_states needs at least one state")
    kinds = {state.get("kind") for state in states}
    if len(kinds) != 1:
        raise ValueError(f"cannot merge mixed window kinds: {sorted(kinds)}")
    kind = next(iter(kinds))
    if kind == "histogram":
        merged_hist = WindowedHistogram.from_state(states[0])
        for state in states[1:]:
            merged_hist.merge(WindowedHistogram.from_state(state))
        return merged_hist.state()
    if kind == "counter":
        merged_counter = WindowedCounter.from_state(states[0])
        for state in states[1:]:
            merged_counter.merge(WindowedCounter.from_state(state))
        return merged_counter.state()
    raise ValueError(f"unknown window kind: {kind!r}")


def merge_window_sections(
    sections: Sequence[Mapping[str, Mapping[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Fold several snapshots' ``"windows"`` sections name-by-name.

    Used by :func:`repro.runtime.pool.merge_perf_snapshots` to aggregate
    per-worker windowed metrics bucket-by-bucket.
    """
    by_name: Dict[str, list] = {}
    for section in sections:
        for name, state in section.items():
            by_name.setdefault(name, []).append(state)
    return {
        name: merge_window_states(states)
        for name, states in sorted(by_name.items())
    }
