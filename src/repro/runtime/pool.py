"""Fault-tolerant multiprocessing fan-out for ``@worker_safe`` task units.

ROADMAP item 3: the paper's search is embarrassingly parallel across
scenes, methods and candidate fine-tunes, and long multi-device sweeps
make worker death the norm, not the exception. This pool is therefore
robust *by construction* rather than parallel-then-hardened:

- **hang detection** — every dispatched task carries a deadline; a
  worker that blows it is killed and replaced, never waited on;
- **crash tolerance** — a worker that dies mid-task (OOM kill, segfault,
  injected :class:`~repro.runtime.faults.WorkerCrash`) is detected via
  its exit code and replaced, and its task is retried;
- **deterministic retry** — retries back off exponentially and re-derive
  the *same* per-task seed (:func:`~repro.runtime.workers
  .spawn_worker_seeds` over the task index), so a retried task produces
  bit-identical results no matter which worker reruns it;
- **poison-task quarantine** — a task that fails ``max_retries + 1``
  attempts is recorded and skipped, not allowed to wedge the sweep;
- **serial degradation** — if worker startup itself fails (fork limits,
  sandboxed container), the pool falls back to in-process serial
  execution and says so in its report;
- **crash-safe journal** — completed results stream through a
  flush-per-record :class:`~repro.obs.sink.JsonlSink`; a killed sweep
  restarted with the same journal replays completed cells from disk and
  dispatches only the remainder;
- **telemetry merge** — each worker ships its
  :class:`~repro.perf.PerfRegistry` snapshot back with every result and
  the parent folds them into one report.

The unit of work is a :class:`PoolTask` wrapping a picklable function
marked :func:`~repro.runtime.workers.worker_safe` — flowcheck's
``SHARED-MUTABLE``/``WORKER-RNG``/``SINK-FLUSH`` rules statically verify
everything reachable from those roots, which is what makes this fan-out
safe to run under ``fork`` and ``spawn`` alike.
"""

from __future__ import annotations

import base64
import json
import multiprocessing
import os
import pickle
import queue
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..contracts import require_non_negative, require_positive
from ..obs.sink import JsonlSink, recover_jsonl_records
from ..obs.window import merge_window_sections
from .faults import PoolChaos, ResultLoss, WorkerCrash, WorkerHang
from .workers import is_worker_safe, spawn_worker_seeds


@dataclass(frozen=True)
class PoolTask:
    """One unit of work: ``fn(*args, **kwargs)`` in some worker.

    ``task_id`` keys the journal, the chaos schedule and the report, so
    it must be unique within a run and stable across resumes.
    """

    task_id: str
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PoolConfig:
    """Robustness knobs of the :class:`FaultTolerantPool`."""

    num_workers: int = 2
    #: Hang detection: a task attempt exceeding this wall budget gets its
    #: worker killed and the attempt counted as a failure.
    task_timeout_s: float = 120.0
    #: Retries per task beyond the first attempt; exhausting them
    #: quarantines the task (recorded, not fatal).
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: multiprocessing start method; ``fork`` is the cheap default on
    #: POSIX, ``spawn`` works everywhere.
    start_method: str = "fork"
    poll_interval_s: float = 0.02
    #: Degrade to in-process serial execution when workers cannot start.
    serial_fallback: bool = True
    #: When set, every task attempt streams its own observability trace
    #: to ``<trace_dir>/<task_id>.jsonl`` (flush-per-record, so a crashed
    #: attempt still leaves its completed records). A retry overwrites
    #: the previous attempt's file: the last attempt wins, matching the
    #: journal's last-record-wins semantics.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        require_positive(self.num_workers, "num_workers")
        require_positive(self.task_timeout_s, "task_timeout_s")
        require_non_negative(self.max_retries, "max_retries")
        require_non_negative(self.backoff_base_s, "backoff_base_s")
        require_positive(self.backoff_factor, "backoff_factor")
        require_positive(self.poll_interval_s, "poll_interval_s")

    def backoff_s(self, failures: int) -> float:
        """Delay before the attempt following the ``failures``-th failure."""
        if failures <= 0:
            return 0.0
        return self.backoff_base_s * self.backoff_factor ** (failures - 1)


@dataclass
class TaskRecord:
    """Parent-side lifecycle of one task, exported in the report."""

    task_id: str
    index: int
    status: str = "pending"  # pending | ok | quarantined
    attempts: int = 0
    #: one entry per failed attempt: "error: ...", "crash(...)", "hang".
    failures: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: True when the result came from the resume journal, not a worker.
    resumed: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "task_id": self.task_id,
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "failures": list(self.failures),
            "elapsed_s": round(self.elapsed_s, 6),
            "resumed": self.resumed,
        }


@dataclass
class PoolReport:
    """Aggregate robustness + telemetry report of one pool run."""

    num_workers: int
    tasks: List[TaskRecord] = field(default_factory=list)
    retries: int = 0
    crashes: int = 0
    hangs: int = 0
    task_errors: int = 0
    workers_replaced: int = 0
    quarantined: List[str] = field(default_factory=list)
    resumed: int = 0
    degraded_to_serial: bool = False
    elapsed_s: float = 0.0
    #: Merged worker-side PerfRegistry snapshots (counters/spans/histograms).
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_workers": self.num_workers,
            "retries": self.retries,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "task_errors": self.task_errors,
            "workers_replaced": self.workers_replaced,
            "quarantined": list(self.quarantined),
            "resumed": self.resumed,
            "degraded_to_serial": self.degraded_to_serial,
            "elapsed_s": round(self.elapsed_s, 6),
            "tasks": [record.to_dict() for record in self.tasks],
            "telemetry": self.telemetry,
        }

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2))


@dataclass
class PoolOutcome:
    """Results (in task order) plus the robustness report."""

    results: Dict[str, Any]
    report: PoolReport
    task_order: List[str] = field(default_factory=list)

    @property
    def values(self) -> List[Any]:
        """Results aligned with the submitted task order; quarantined
        tasks yield ``None``."""
        return [self.results.get(task_id) for task_id in self.task_order]

    def require_complete(self) -> List[Any]:
        """The values, raising if any task was quarantined."""
        missing = [t for t in self.task_order if t not in self.results]
        if missing:
            raise RuntimeError(
                f"pool quarantined {len(missing)} task(s): {missing}"
            )
        return [self.results[task_id] for task_id in self.task_order]


# ---------------------------------------------------------------------------
# Telemetry merge
# ---------------------------------------------------------------------------
def merge_perf_snapshots(
    snapshots: Sequence[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Fold per-task worker ``PerfRegistry.snapshot()`` dicts into one.

    Counters sum; spans merge exactly (count/total/max, mean recomputed);
    histogram summaries merge their exact moments (count/sum/min/max,
    mean recomputed) — per-snapshot percentiles cannot be merged and are
    dropped rather than faked. Windowed metrics *do* merge exactly: their
    slabs are bucket-aligned on simulated time, so the fold is
    bucket-by-bucket (:func:`~repro.obs.window.merge_window_sections`)
    and a parallel sweep's windowed percentiles equal the serial run's.
    """
    counters: Dict[str, int] = {}
    spans: Dict[str, Dict[str, float]] = {}
    histograms: Dict[str, Dict[str, float]] = {}
    windows = merge_window_sections(
        [snapshot.get("windows", {}) for snapshot in snapshots]
    )
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, stat in snapshot.get("spans", {}).items():
            merged = spans.setdefault(
                name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            merged["count"] += stat["count"]
            merged["total_ms"] += stat["total_ms"]
            merged["max_ms"] = max(merged["max_ms"], stat["max_ms"])
        for name, stat in snapshot.get("histograms", {}).items():
            merged = histograms.setdefault(
                name,
                {"count": 0, "sum": 0.0, "min": float("inf"), "max": 0.0},
            )
            merged["count"] += stat["count"]
            merged["sum"] += stat["sum"]
            merged["min"] = min(merged["min"], stat["min"])
            merged["max"] = max(merged["max"], stat["max"])
    for stat in spans.values():
        stat["mean_ms"] = stat["total_ms"] / stat["count"] if stat["count"] else 0.0
    for stat in histograms.values():
        stat["mean"] = stat["sum"] / stat["count"] if stat["count"] else 0.0
        if stat["count"] == 0:
            stat["min"] = 0.0
    return {
        "counters": counters,
        "spans": spans,
        "histograms": histograms,
        "windows": windows,
    }


# ---------------------------------------------------------------------------
# Resume journal
# ---------------------------------------------------------------------------
class ResultJournal:
    """Crash-safe record of completed tasks, replayable on resume.

    One JSONL record per finished task (flush-per-record via
    :class:`JsonlSink`), payloads pickled and base64-wrapped so any
    picklable worker result round-trips. Loading tolerates a torn final
    line — the write the journal died in the middle of — truncating it
    away before reopening in append mode. The journal is a log: the last
    record for a task wins, so a quarantined task retried on resume
    simply appends its new outcome.
    """

    def __init__(self, path) -> None:
        self.path = path
        previous = recover_jsonl_records(path, truncate=True)
        self._completed: Dict[str, Dict[str, Any]] = {}
        for record in previous:
            self._completed[record["task_id"]] = record
        self._sink = JsonlSink(path, append=True)

    @property
    def closed(self) -> bool:
        return self._sink.closed

    def completed_ok(self) -> Dict[str, Dict[str, Any]]:
        """task_id -> record for every task whose last outcome was ok."""
        return {
            task_id: record
            for task_id, record in self._completed.items()
            if record.get("status") == "ok"
        }

    @staticmethod
    def decode(record: Mapping[str, Any]) -> Any:
        payload = base64.b64decode(record["payload"])
        return pickle.loads(payload)

    def record_ok(
        self, task_id: str, value: Any, attempts: int, elapsed_s: float
    ) -> None:
        require_non_negative(elapsed_s, "elapsed_s")
        record = {
            "task_id": task_id,
            "status": "ok",
            "attempts": attempts,
            "elapsed_s": round(elapsed_s, 6),
            "encoding": "pickle+base64",
            "payload": base64.b64encode(pickle.dumps(value)).decode("ascii"),
        }
        self._sink.write(record)
        self._completed[task_id] = record

    def record_quarantined(
        self, task_id: str, attempts: int, failures: Sequence[str]
    ) -> None:
        record = {
            "task_id": task_id,
            "status": "quarantined",
            "attempts": attempts,
            "failures": list(failures),
        }
        self._sink.write(record)
        self._completed[task_id] = record

    def close(self) -> None:
        self._sink.close()

    def __enter__(self) -> "ResultJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------
def _task_trace_path(trace_dir: str, task_id: str) -> Path:
    """Per-task trace file; task ids are sanitized into safe filenames."""
    safe = "".join(
        ch if ch.isalnum() or ch in "._-" else "_" for ch in task_id
    )
    return Path(trace_dir) / f"{safe or 'task'}.jsonl"


def _call_traced(
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Mapping[str, Any],
    trace_dir: Optional[str],
    task_id: str,
) -> Any:
    """Run one attempt, streaming its trace when a trace_dir is set."""
    if trace_dir is None:
        return fn(*args, **kwargs)
    from ..obs.trace import recording

    path = _task_trace_path(trace_dir, task_id)
    path.parent.mkdir(parents=True, exist_ok=True)
    with recording(path, stream=True):
        return fn(*args, **kwargs)


def _failure(
    kind: str, worker_id: int, task_id: str, attempt: int, exc: BaseException, start: float
) -> Tuple[Any, ...]:
    """A failed attempt's result message, with the current traceback."""
    return (
        kind,
        worker_id,
        task_id,
        attempt,
        f"{type(exc).__name__}: {exc}",
        traceback.format_exc(),
        time.perf_counter() - start,
    )


def _worker_main(
    worker_id: int,
    inbox: Any,
    results: Any,
    chaos: Optional[PoolChaos],
    trace_dir: Optional[str] = None,
) -> None:
    """Worker loop: take (task, attempt) messages until the None sentinel.

    Chaos events fire *inside* the worker so the parent's recovery path
    is exercised for real: a :class:`WorkerCrash` hard-exits the process,
    a :class:`WorkerHang` stalls (until the parent's timeout kill), a
    :class:`ResultLoss` computes and then drops the result.
    """
    from ..perf import get_registry

    while True:
        message = inbox.get()
        if message is None:
            return
        task_id, attempt, fn, args, kwargs = message
        event = chaos.event_for(task_id, attempt) if chaos else None
        if isinstance(event, WorkerCrash):
            os._exit(event.exit_code)
        if isinstance(event, WorkerHang):
            time.sleep(event.hang_s)
        start = time.perf_counter()
        try:
            value = _call_traced(fn, args, kwargs, trace_dir, task_id)
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            results.put(_failure("err", worker_id, task_id, attempt, exc, start))
            continue
        if isinstance(event, ResultLoss):
            continue  # computed, never delivered: parent must recover
        try:
            # Pickle here, not in the queue's feeder thread: a failure
            # there is silent, and the parent would wait out the timeout.
            payload = pickle.dumps(value)
        except Exception as exc:  # noqa: BLE001 - reported, not hidden
            results.put(_failure("unpicklable", worker_id, task_id, attempt, exc, start))
            continue
        results.put(
            (
                "ok",
                worker_id,
                task_id,
                attempt,
                payload,
                get_registry().snapshot(),
                time.perf_counter() - start,
            )
        )


@dataclass
class _WorkerHandle:
    worker_id: int
    process: Any
    inbox: Any
    current: Optional[str] = None
    current_attempt: int = -1
    deadline: float = 0.0


class FaultTolerantPool:
    """Crash/hang-tolerant ``map`` over :class:`PoolTask` units.

    Usage::

        pool = FaultTolerantPool(PoolConfig(num_workers=4))
        outcome = pool.run(run_scenario, tasks, journal_path="sweep.jsonl")
        rows = outcome.require_complete()

    ``run`` validates that ``fn`` is marked ``@worker_safe`` (the static
    contract flowcheck verifies), dispatches one task per idle worker,
    and drives the recovery loop described in the module docstring.
    """

    def __init__(
        self,
        config: Optional[PoolConfig] = None,
        chaos: Optional[PoolChaos] = None,
    ) -> None:
        self.config = config or PoolConfig()
        self.chaos = chaos
        self._context = multiprocessing.get_context(self.config.start_method)
        self._next_worker_id = 0

    # -- public API -------------------------------------------------------
    def run(
        self,
        fn: Callable[..., Any],
        tasks: Sequence[PoolTask],
        journal_path: Optional[Any] = None,
        base_seed: Optional[int] = None,
        seed_kwarg: str = "seed",
        require_worker_safe: bool = True,
    ) -> PoolOutcome:
        """Execute every task, surviving crashes/hangs/lost results.

        ``base_seed`` derives one independent seed per *task index* via
        :func:`spawn_worker_seeds` and injects it as ``seed_kwarg``; a
        retry re-derives the same seed from the same index, so results
        are independent of which worker (or attempt) produced them.
        """
        if require_worker_safe and not is_worker_safe(fn):
            raise ValueError(
                f"{getattr(fn, '__name__', fn)!r} is not marked "
                "@worker_safe; decorate it (and let flowcheck verify its "
                "call graph) or pass require_worker_safe=False"
            )
        ids = [task.task_id for task in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("task_ids must be unique within a run")

        if base_seed is not None and tasks:
            seeds = spawn_worker_seeds(base_seed, len(tasks))
            tasks = [
                PoolTask(
                    task.task_id,
                    task.args,
                    {**dict(task.kwargs), seed_kwarg: seeds[index]},
                )
                for index, task in enumerate(tasks)
            ]

        report = PoolReport(num_workers=self.config.num_workers)
        records = {
            task.task_id: TaskRecord(task_id=task.task_id, index=index)
            for index, task in enumerate(tasks)
        }
        report.tasks = [records[task.task_id] for task in tasks]
        results: Dict[str, Any] = {}
        started = time.perf_counter()

        journal = ResultJournal(journal_path) if journal_path else None
        try:
            if journal is not None:
                for task_id, record in journal.completed_ok().items():
                    if task_id in records:
                        results[task_id] = ResultJournal.decode(record)
                        records[task_id].status = "ok"
                        records[task_id].resumed = True
                        records[task_id].attempts = record.get("attempts", 0)
                        report.resumed += 1

            remaining = [t for t in tasks if records[t.task_id].status != "ok"]
            if remaining:
                self._execute(fn, remaining, records, results, report, journal)
        finally:
            if journal is not None:
                journal.close()

        report.quarantined = [
            record.task_id
            for record in report.tasks
            if record.status == "quarantined"
        ]
        report.elapsed_s = time.perf_counter() - started
        return PoolOutcome(
            results=results,
            report=report,
            task_order=[task.task_id for task in tasks],
        )

    # -- parallel execution ----------------------------------------------
    def _execute(self, fn, tasks, records, results, report, journal) -> None:
        telemetry: List[Mapping[str, Any]] = []
        workers: List[_WorkerHandle] = []
        result_queue = self._context.Queue()
        try:
            target = min(self.config.num_workers, len(tasks))
            for _ in range(target):
                workers.append(self._spawn_worker(result_queue))
        except OSError:
            for worker in workers:
                self._kill_worker(worker)
            result_queue.close()
            result_queue.cancel_join_thread()
            if not self.config.serial_fallback:
                raise
            report.degraded_to_serial = True
            self._execute_serial(
                fn, tasks, records, results, report, journal, telemetry
            )
            report.telemetry = merge_perf_snapshots(telemetry)
            return

        # eligible_at gates backoff; tasks enter ready immediately.
        eligible_at: Dict[str, float] = {
            task.task_id: 0.0 for task in tasks
        }
        by_id = {task.task_id: task for task in tasks}
        pending = [task.task_id for task in tasks]

        def unresolved() -> bool:
            return any(
                records[t.task_id].status not in ("ok", "quarantined")
                for t in tasks
            )

        try:
            while unresolved():
                now = time.monotonic()
                # 1. dispatch ready tasks onto idle live workers
                for worker in workers:
                    if worker.current is not None:
                        continue
                    ready = next(
                        (
                            task_id
                            for task_id in pending
                            if eligible_at[task_id] <= now
                        ),
                        None,
                    )
                    if ready is None:
                        break
                    pending.remove(ready)
                    record = records[ready]
                    task = by_id[ready]
                    worker.current = ready
                    worker.current_attempt = record.attempts
                    worker.deadline = now + self.config.task_timeout_s
                    record.attempts += 1
                    worker.inbox.put(
                        (
                            ready,
                            record.attempts - 1,
                            fn,
                            task.args,
                            dict(task.kwargs),
                        )
                    )

                # 2. drain results
                try:
                    message = result_queue.get(
                        timeout=self.config.poll_interval_s
                    )
                except queue.Empty:
                    message = None
                while message is not None:
                    self._handle_message(
                        message,
                        workers,
                        records,
                        results,
                        report,
                        journal,
                        telemetry,
                        pending,
                        eligible_at,
                    )
                    try:
                        message = result_queue.get_nowait()
                    except queue.Empty:
                        message = None

                # 3. reap dead / hung workers
                now = time.monotonic()
                for index, worker in enumerate(list(workers)):
                    if not worker.process.is_alive():
                        reason = (
                            f"crash(exit={worker.process.exitcode})"
                        )
                        report.crashes += 1
                        self._fail_current(
                            worker,
                            reason,
                            records,
                            report,
                            journal,
                            pending,
                            eligible_at,
                        )
                    elif (
                        worker.current is not None and now > worker.deadline
                    ):
                        report.hangs += 1
                        self._fail_current(
                            worker,
                            "hang",
                            records,
                            report,
                            journal,
                            pending,
                            eligible_at,
                        )
                    else:
                        continue
                    self._kill_worker(worker)
                    workers.remove(worker)
                    if unresolved():
                        try:
                            workers.append(self._spawn_worker(result_queue))
                            report.workers_replaced += 1
                        except OSError:
                            pass  # keep going with the survivors
                if not workers and unresolved():
                    # Every worker is gone and none could be replaced:
                    # finish what's left serially rather than spinning.
                    report.degraded_to_serial = True
                    leftovers = [
                        by_id[t]
                        for t in [task.task_id for task in tasks]
                        if records[t].status not in ("ok", "quarantined")
                    ]
                    self._execute_serial(
                        fn,
                        leftovers,
                        records,
                        results,
                        report,
                        journal,
                        telemetry,
                    )
        finally:
            for worker in workers:
                self._stop_worker(worker)
            result_queue.close()
            result_queue.cancel_join_thread()
        report.telemetry = merge_perf_snapshots(telemetry)

    def _handle_message(
        self,
        message,
        workers,
        records,
        results,
        report,
        journal,
        telemetry,
        pending,
        eligible_at,
    ) -> None:
        kind = message[0]
        worker_id, task_id = message[1], message[2]
        record = records.get(task_id)
        worker = next(
            (w for w in workers if w.worker_id == worker_id), None
        )
        if worker is not None and worker.current == task_id:
            worker.current = None
            worker.current_attempt = -1
        if record is None or record.status in ("ok", "quarantined"):
            return  # stale: task already resolved by another attempt
        if kind == "ok":
            _, _, _, _, payload, snapshot, elapsed_s = message
            value = pickle.loads(payload)
            record.status = "ok"
            record.elapsed_s += elapsed_s
            results[task_id] = value
            telemetry.append(snapshot)
            # A result can land from a worker we already gave up on
            # (kill raced completion); the task may sit re-queued.
            if task_id in pending:
                pending.remove(task_id)
            if journal is not None:
                journal.record_ok(task_id, value, record.attempts, elapsed_s)
        else:
            # An unpicklable result fails the same way on every attempt.
            _, _, _, _, error, _tb, elapsed_s = message
            record.elapsed_s += elapsed_s
            report.task_errors += 1
            self._register_failure(
                record,
                f"{'error' if kind == 'err' else 'unpicklable result'}: {error}",
                records,
                report,
                journal,
                pending,
                eligible_at,
                retryable=kind == "err",
            )

    def _fail_current(
        self,
        worker,
        reason,
        records,
        report,
        journal,
        pending,
        eligible_at,
    ) -> None:
        if worker.current is None:
            return
        task_id = worker.current
        worker.current = None
        worker.current_attempt = -1
        record = records[task_id]
        if record.status in ("ok", "quarantined"):
            return
        self._register_failure(
            record, reason, records, report, journal, pending, eligible_at
        )

    def _register_failure(
        self, record, reason, records, report, journal, pending, eligible_at, retryable=True
    ) -> None:
        record.failures.append(reason)
        if not retryable or record.attempts > self.config.max_retries:
            record.status = "quarantined"
            if journal is not None:
                journal.record_quarantined(
                    record.task_id, record.attempts, record.failures
                )
            return
        report.retries += 1
        eligible_at[record.task_id] = time.monotonic() + self.config.backoff_s(
            len(record.failures)
        )
        pending.append(record.task_id)

    # -- serial degradation ----------------------------------------------
    def _execute_serial(
        self, fn, tasks, records, results, report, journal, telemetry
    ) -> None:
        """In-process fallback with the same retry/quarantine semantics.

        Chaos events still fire — simulated as failures (crash/hang) or
        dropped results — so a degraded run exercises the same recovery
        bookkeeping the parallel path does.
        """
        from ..perf import get_registry

        for task in tasks:
            record = records[task.task_id]
            while record.status not in ("ok", "quarantined"):
                attempt = record.attempts
                record.attempts += 1
                event = (
                    self.chaos.event_for(task.task_id, attempt)
                    if self.chaos
                    else None
                )
                if isinstance(event, WorkerCrash):
                    report.crashes += 1
                    self._register_failure_serial(
                        record,
                        f"crash(exit={event.exit_code}, simulated)",
                        report,
                        journal,
                    )
                    continue
                if isinstance(event, WorkerHang):
                    report.hangs += 1
                    self._register_failure_serial(
                        record, "hang(simulated)", report, journal
                    )
                    continue
                start = time.perf_counter()
                try:
                    value = _call_traced(
                        fn,
                        task.args,
                        dict(task.kwargs),
                        self.config.trace_dir,
                        task.task_id,
                    )
                except Exception as exc:  # noqa: BLE001 - retried/quarantined
                    record.elapsed_s += time.perf_counter() - start
                    report.task_errors += 1
                    self._register_failure_serial(
                        record,
                        f"error: {type(exc).__name__}: {exc}",
                        report,
                        journal,
                    )
                    continue
                elapsed_s = time.perf_counter() - start
                record.elapsed_s += elapsed_s
                if isinstance(event, ResultLoss):
                    self._register_failure_serial(
                        record, "result-loss(simulated)", report, journal
                    )
                    continue
                record.status = "ok"
                results[task.task_id] = value
                telemetry.append(get_registry().snapshot())
                if journal is not None:
                    journal.record_ok(
                        task.task_id, value, record.attempts, elapsed_s
                    )

    def _register_failure_serial(self, record, reason, report, journal) -> None:
        record.failures.append(reason)
        if record.attempts > self.config.max_retries:
            record.status = "quarantined"
            if journal is not None:
                journal.record_quarantined(
                    record.task_id, record.attempts, record.failures
                )
            return
        report.retries += 1
        time.sleep(self.config.backoff_s(len(record.failures)))

    # -- worker lifecycle --------------------------------------------------
    def _spawn_worker(self, result_queue) -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        inbox = self._context.Queue()
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                inbox,
                result_queue,
                self.chaos,
                self.config.trace_dir,
            ),
            daemon=True,
            name=f"pool-worker-{worker_id}",
        )
        process.start()
        return _WorkerHandle(worker_id=worker_id, process=process, inbox=inbox)

    def _stop_worker(self, worker: _WorkerHandle) -> None:
        """Graceful shutdown: sentinel, short join, then force-kill."""
        try:
            worker.inbox.put(None)
        except (OSError, ValueError):
            pass
        worker.process.join(timeout=1.0)
        self._kill_worker(worker)

    def _kill_worker(self, worker: _WorkerHandle) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # terminate ignored: escalate
            worker.process.kill()
            worker.process.join(timeout=1.0)
        worker.inbox.close()
        worker.inbox.cancel_join_thread()


__all__ = [
    "FaultTolerantPool",
    "PoolConfig",
    "PoolOutcome",
    "PoolReport",
    "PoolTask",
    "ResultJournal",
    "TaskRecord",
    "merge_perf_snapshots",
]
