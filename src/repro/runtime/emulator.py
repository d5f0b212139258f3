"""Emulation harness — Table IV.

"We run emulation tests with real-world network condition traces and
estimated latencies": inference requests are issued along the trace, each
executed by a plan against the simulated clock; the table reports the mean
reward, latency and accuracy per scene.

:func:`serve_request` is the one request fault boundary of both serving
front ends: ``run_emulation`` adds arrival times, queueing and pipelining
around it, :class:`~repro.runtime.session.InferenceSession` its clock and
predictive environment. Each passes its span, event and metric names as a
:class:`RequestNames`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..contracts import require_non_negative
from ..obs.slo import BurnRateEvaluator, SLOPolicy
from ..obs.trace import get_recorder
from ..perf import get_registry
from .engine import InferenceOutcome, InferencePlan, RuntimeEnvironment, admit_plan
from .faults import FaultError


@dataclass
class EmulationResult:
    """Aggregated outcomes of many inference requests under one plan."""

    outcomes: List[InferenceOutcome] = field(default_factory=list)
    #: Typed environmental faults absorbed per request (exception type
    #: name -> count); the faulted requests re-ran device-only.
    swallowed_faults: Dict[str, int] = field(default_factory=dict)
    #: Burn-rate alerting summary when the run had an ``SLOPolicy``
    #: (:meth:`BurnRateEvaluator.summary`); ``None`` otherwise.
    slo: Optional[Dict[str, Any]] = None

    @property
    def mean_latency_ms(self) -> float:
        return float(np.mean([o.latency_ms for o in self.outcomes]))

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([o.accuracy for o in self.outcomes]))

    @property
    def mean_reward(self) -> float:
        return float(np.mean([o.reward for o in self.outcomes]))

    @property
    def offload_rate(self) -> float:
        return float(np.mean([o.offloaded for o in self.outcomes]))

    @property
    def p95_latency_ms(self) -> float:
        return float(np.percentile([o.latency_ms for o in self.outcomes], 95))

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class RequestNames:
    """Where one serving front end records its requests."""

    span: str  # trace span around each request
    fault_event: str  # trace event per absorbed fault
    fault_counter: str  # registry counter of absorbed faults
    latency: str  # windowed registry histogram of end-to-end latency


_NAMES = RequestNames(
    span="emulator.request",
    fault_event="emulator.fault_absorbed",
    fault_counter="emulator.faults_absorbed",
    latency="emulator.request.latency_ms",
)


def device_only(env: RuntimeEnvironment) -> RuntimeEnvironment:
    """``env`` as if a permanent cloud outage were active."""
    return dataclasses.replace(env, cloud_outages=((0.0, float("inf")),))


def record_fault(
    fault: FaultError,
    counts: Dict[str, int],
    names: RequestNames,
    index: int,
    where: str,
) -> str:
    """Count an absorbed environmental fault and leave a trace event."""
    name = type(fault).__name__
    counts[name] = counts.get(name, 0) + 1
    get_registry().count(names.fault_counter)
    get_recorder().event(
        names.fault_event,
        fault=name,
        where=where,
        index=index,
        t_sim_ms=float(getattr(fault, "t_ms", 0.0)),
    )
    return name


def serve_request(
    plan: InferencePlan,
    start_ms: float,
    env: RuntimeEnvironment,
    rng: np.random.Generator,
    names: RequestNames,
    index: int,
    fault_counts: Dict[str, int],
    retry_env: RuntimeEnvironment,
) -> InferenceOutcome:
    """The serving fault boundary: run one request inside its trace span.

    A typed environmental fault is counted, leaves a trace event, and the
    request re-runs on ``device_only(retry_env)``, so one flaky window
    cannot void a run. A fault on that retry, or anything outside the
    ``FaultError`` hierarchy, propagates: bugs stay loud.
    """
    require_non_negative(start_ms, "start_ms")
    with get_recorder().span(
        names.span, index=index, start_sim_ms=start_ms
    ) as obs_span:
        try:
            outcome = plan.execute(start_ms, env, rng)
        except FaultError as fault:
            name = record_fault(
                fault, fault_counts, names, index, where="plan.execute"
            )
            obs_span.add(degraded_by_fault=name)
            outcome = plan.execute(start_ms, device_only(retry_env), rng)
        obs_span.add(
            latency_ms=outcome.latency_ms,
            fork_path=list(outcome.fork_choices),
            offloaded=outcome.offloaded,
            fell_back=outcome.fell_back,
            retries=outcome.retries,
            degraded=outcome.degraded,
            reward=outcome.reward,
        )
    return outcome


def observe_latency(
    outcome: InferenceOutcome,
    names: RequestNames,
    evaluator: Optional[BurnRateEvaluator],
) -> float:
    """Record end-to-end latency at the simulated completion time.

    The windowed histogram and the SLO burn-rate windows are keyed on the
    completion time, so brownout spikes stay visible inside long runs.
    Returns that completion time.
    """
    done_ms = outcome.start_ms + outcome.latency_ms
    get_registry().observe_at(names.latency, outcome.latency_ms, t_ms=done_ms)
    if evaluator is not None:
        evaluator.observe(outcome.latency_ms, t_ms=done_ms)
    return done_ms


def run_emulation(
    plan: InferencePlan,
    env: RuntimeEnvironment,
    num_requests: int = 50,
    seed: int = 0,
    spacing_ms: float = 0.0,
    queued: bool = False,
    pipelined: bool = False,
    admit: bool = True,
    slo: Optional[SLOPolicy] = None,
) -> EmulationResult:
    """Issue ``num_requests`` inferences at times spread across the trace.

    ``spacing_ms == 0`` spreads requests uniformly over the trace duration;
    a positive value issues them back-to-back with that gap (a streaming
    workload).

    ``queued=True`` models a single-inference-at-a-time device (the
    continuous-vision setting the paper's motivation cites): a request
    cannot start before the previous one finished, and its reported latency
    includes the queueing delay. Under overload, queued latencies grow
    without bound — which is exactly why cutting per-inference latency
    matters for streaming workloads.

    ``pipelined=True`` (with ``queued``) releases the device as soon as a
    request's *edge* portion finishes: the transfer and cloud compute
    overlap with the next request's local work. This is offloading's
    throughput advantage — a partitioned plan can sustain frame rates a
    full-on-device plan cannot, even at similar per-request latency.

    ``admit=True`` (the default) statically verifies the plan with
    :func:`~repro.runtime.engine.admit_plan` before the first request.

    ``slo`` attaches a burn-rate evaluator: every request's simulated
    completion feeds the fast/slow windows, alert transitions land in
    the trace, and the final state is returned as ``result.slo``.
    """
    require_non_negative(spacing_ms, "spacing_ms")
    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    if admit:
        admit_plan(plan)
    rng = np.random.default_rng(seed)
    result = EmulationResult()
    duration_ms = env.trace.duration_s * 1e3

    if spacing_ms > 0:
        arrival_times = [i * spacing_ms for i in range(num_requests)]
    else:
        arrival_times = list(np.linspace(0.0, duration_ms * 0.9, num_requests))

    perf = get_registry()
    evaluator = BurnRateEvaluator(slo) if slo is not None else None
    device_free_ms = 0.0
    for index, arrival in enumerate(arrival_times):
        start = max(float(arrival), device_free_ms) if queued else float(arrival)
        perf.count_at("emulator.requests", t_ms=start)
        outcome = serve_request(
            plan, start, env, rng, _NAMES, index, result.swallowed_faults, env
        )
        if queued:
            if pipelined:
                # The device is busy only for the local portion; the
                # transfer + cloud tail overlaps with the next request.
                device_free_ms = start + outcome.edge_ms
            else:
                device_free_ms = start + outcome.latency_ms
            queueing_delay = start - float(arrival)
            if queueing_delay > 0:
                # dataclasses.replace keeps every other outcome field
                # (fell_back, retries, ...) — rebuilding by hand silently
                # dropped fields added after the original list was written.
                outcome = dataclasses.replace(
                    outcome,
                    start_ms=float(arrival),
                    latency_ms=outcome.latency_ms + queueing_delay,
                    reward=env.reward.reward(
                        outcome.accuracy, outcome.latency_ms + queueing_delay
                    ),
                )
        # End-to-end (post-queueing) latency, so the exported percentiles
        # match what the application would observe.
        observe_latency(outcome, _NAMES, evaluator)
        result.outcomes.append(outcome)
    if evaluator is not None:
        result.slo = evaluator.summary()
    return result
