"""Resilient offload execution: retries, circuit breaking, degradation.

The naive engine answers every failure the same way: pay the detection
window, run the rest of the model on the device, move on. Real edge-cloud
runtimes (Xu et al. survey, Sec. "runtime systems") layer policy on top —
bounded retries with exponential backoff for transient loss, a per-request
deadline so retries cannot starve the application, and a circuit breaker
that stops hammering a cloud that is plainly down.

:func:`resolve_offload` is the single offload/fallback path of both plan
types. Without a policy it reproduces the naive one-shot semantics
byte-for-byte; with an :class:`OffloadPolicy` (and optionally a
:class:`CircuitBreaker`) it executes the resilient state machine:

.. code-block:: text

    attempt -> ok ..........................-> offloaded
            -> lost/timeout/outage -> backoff -> retry (bounded)
            -> retries exhausted / deadline / breaker open -> edge fallback

Breaker states follow the classic closed -> open -> half-open cycle: after
``failure_threshold`` consecutive failures the breaker opens and the
session is pinned edge-only (degraded mode, no probe cost at all) until
``cooldown_ms`` passes; the next request then half-opens the breaker as a
probe, and one success closes it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..contracts import require_non_negative, require_positive
from ..obs.trace import get_recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..model.spec import ModelSpec
    from .engine import RuntimeEnvironment


#: Breaker states (plain strings so they serialize/print naturally).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class CircuitBreakerConfig:
    """Tuning knobs of the closed/open/half-open cycle."""

    failure_threshold: int = 3
    cooldown_ms: float = 5_000.0
    half_open_successes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold!r}"
            )
        require_positive(self.cooldown_ms, "cooldown_ms")
        if self.half_open_successes < 1:
            raise ValueError(
                f"half_open_successes must be >= 1, got {self.half_open_successes!r}"
            )


class CircuitBreaker:
    """Session-scoped breaker guarding the offload path.

    Mutable by design: one breaker lives as long as the session (or one
    emulation run) and accumulates state across requests. Every state
    change is recorded in :attr:`transitions` as ``(from, to, t_ms)`` so
    monitoring can replay the cycle.
    """

    def __init__(self, config: Optional[CircuitBreakerConfig] = None) -> None:
        self.config = config or CircuitBreakerConfig()
        self.state = CLOSED
        self.transitions: List[Tuple[str, str, float]] = []
        self._consecutive_failures = 0
        self._half_open_successes = 0
        self._opened_at_ms = 0.0

    def _transition(self, new_state: str, t_ms: float) -> None:
        self.transitions.append((self.state, new_state, t_ms))
        get_recorder().event(
            "breaker.transition",
            from_state=self.state,
            to_state=new_state,
            t_sim_ms=float(t_ms),
        )
        self.state = new_state

    def allow(self, t_ms: float) -> bool:
        """May an offload be attempted at ``t_ms``?

        An open breaker half-opens (allowing one probe request) once the
        cooldown has elapsed.
        """
        require_non_negative(t_ms, "t_ms")
        if self.state == OPEN:
            if t_ms - self._opened_at_ms >= self.config.cooldown_ms:
                self._half_open_successes = 0
                self._transition(HALF_OPEN, t_ms)
                return True
            return False
        return True

    def record_success(self, t_ms: float) -> None:
        require_non_negative(t_ms, "t_ms")
        if self.state == HALF_OPEN:
            self._half_open_successes += 1
            if self._half_open_successes >= self.config.half_open_successes:
                self._consecutive_failures = 0
                self._transition(CLOSED, t_ms)
        else:
            self._consecutive_failures = 0

    def record_failure(self, t_ms: float) -> None:
        require_non_negative(t_ms, "t_ms")
        if self.state == HALF_OPEN:
            self._opened_at_ms = t_ms
            self._transition(OPEN, t_ms)
            return
        self._consecutive_failures += 1
        if self.state == CLOSED and (
            self._consecutive_failures >= self.config.failure_threshold
        ):
            self._opened_at_ms = t_ms
            self._transition(OPEN, t_ms)

    def transition_counts(self) -> Dict[str, int]:
        """``{"closed->open": 2, ...}`` — how often each edge fired."""
        counts: Dict[str, int] = {}
        for src, dst, _ in self.transitions:
            key = f"{src}->{dst}"
            counts[key] = counts.get(key, 0) + 1
        return counts


@dataclass(frozen=True)
class OffloadPolicy:
    """Per-request resilience budget for the offload path.

    ``max_retries`` bounds re-attempts after the first try; between
    attempts the engine backs off ``backoff_base_ms * backoff_factor**i``.
    A transfer that has not landed within ``transfer_timeout_ms`` is
    abandoned at the timeout (the sender stops waiting). ``deadline_ms``
    is the end-to-end budget measured from the moment the offload starts:
    no retry is launched that could not finish its backoff inside it, and
    outcomes report whether the final completion overran it.
    ``probe_timeout_ms`` is the cost of discovering the cloud is down on
    one attempt; ``None`` falls back to the environment's
    ``outage_detect_ms``.
    """

    max_retries: int = 2
    backoff_base_ms: float = 50.0
    backoff_factor: float = 2.0
    transfer_timeout_ms: float = 2_000.0
    deadline_ms: Optional[float] = None
    probe_timeout_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries!r}")
        require_non_negative(self.backoff_base_ms, "backoff_base_ms")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor!r}"
            )
        require_positive(self.transfer_timeout_ms, "transfer_timeout_ms")
        if self.deadline_ms is not None:
            require_positive(self.deadline_ms, "deadline_ms")
        if self.probe_timeout_ms is not None:
            require_non_negative(self.probe_timeout_ms, "probe_timeout_ms")

    def backoff_ms(self, attempt_index: int) -> float:
        """Backoff before retry ``attempt_index`` (0-based failed attempt)."""
        if attempt_index < 0:
            raise ValueError(f"attempt_index must be >= 0, got {attempt_index!r}")
        return self.backoff_base_ms * self.backoff_factor**attempt_index


@dataclass(frozen=True)
class OffloadResult:
    """What happened to one request's offload (or its fallback)."""

    clock_ms: float  # simulated clock after the offload/fallback resolved
    transfer_ms: float
    cloud_ms: float
    fallback_edge_ms: float  # cloud half executed locally, if any
    offloaded: bool
    fell_back: bool
    retries: int = 0
    deadline_missed: bool = False
    degraded: bool = False  # breaker was open: edge-pinned, no probe paid


def resolve_offload(
    env: "RuntimeEnvironment",
    rng: np.random.Generator,
    clock_ms: float,
    cloud_spec: Optional["ModelSpec"],
    payload_bytes: float,
    policy: Optional[OffloadPolicy] = None,
    breaker: Optional[CircuitBreaker] = None,
) -> OffloadResult:
    """Ship ``cloud_spec``'s input to the cloud, or degrade gracefully.

    This is the one offload/fallback path both plan types execute. With
    ``policy=None`` it reproduces the naive engine exactly: probe once,
    and on outage (or a transfer lost mid-flight) pay ``outage_detect_ms``
    and finish the cloud half on the device. With a policy it runs the
    bounded-retry / breaker / deadline state machine documented in the
    module docstring. ``breaker`` is only consulted when a policy is set.
    """
    clock = require_non_negative(clock_ms, "clock_ms")
    require_non_negative(payload_bytes, "payload_bytes")
    if cloud_spec is None or not len(cloud_spec):
        return OffloadResult(
            clock_ms=clock,
            transfer_ms=0.0,
            cloud_ms=0.0,
            fallback_edge_ms=0.0,
            offloaded=False,
            fell_back=False,
        )
    if policy is None:
        return _naive_offload(env, rng, clock, cloud_spec, payload_bytes)
    return _resilient_offload(
        env, rng, clock, cloud_spec, payload_bytes, policy, breaker
    )


def _fallback(
    env: "RuntimeEnvironment",
    rng: np.random.Generator,
    clock: float,
    cloud_spec: "ModelSpec",
) -> Tuple[float, float]:
    """Run the cloud half locally; returns (new clock, fallback edge ms)."""
    fallback_ms = env.edge_compute_ms(cloud_spec, rng)
    return clock + fallback_ms, fallback_ms


def _naive_offload(
    env: "RuntimeEnvironment",
    rng: np.random.Generator,
    clock: float,
    cloud_spec: "ModelSpec",
    payload_bytes: float,
) -> OffloadResult:
    """One-shot offload: any failure pays the detect window and falls back."""
    if env.cloud_available(clock):
        attempt = env.attempt_transfer(payload_bytes, clock, rng)
        if attempt.ok:
            clock += attempt.elapsed_ms
            cloud_ms = env.cloud_compute_ms(cloud_spec, rng, at_ms=clock)
            return OffloadResult(
                clock_ms=clock + cloud_ms,
                transfer_ms=attempt.elapsed_ms,
                cloud_ms=cloud_ms,
                fallback_edge_ms=0.0,
                offloaded=True,
                fell_back=False,
            )
        # The transfer died mid-flight: the stall was paid, then the
        # engine notices (detect window) and finishes locally.
        clock += attempt.elapsed_ms + env.outage_detect_ms
    else:
        clock += env.outage_detect_ms
    get_recorder().event(
        "offload.fallback", retries=0, t_sim_ms=float(clock)
    )
    clock, fallback_ms = _fallback(env, rng, clock, cloud_spec)
    return OffloadResult(
        clock_ms=clock,
        transfer_ms=0.0,
        cloud_ms=0.0,
        fallback_edge_ms=fallback_ms,
        offloaded=False,
        fell_back=True,
    )


def _resilient_offload(
    env: "RuntimeEnvironment",
    rng: np.random.Generator,
    clock: float,
    cloud_spec: "ModelSpec",
    payload_bytes: float,
    policy: OffloadPolicy,
    breaker: Optional[CircuitBreaker],
) -> OffloadResult:
    start = clock
    deadline = None if policy.deadline_ms is None else start + policy.deadline_ms
    probe_timeout = (
        env.outage_detect_ms
        if policy.probe_timeout_ms is None
        else policy.probe_timeout_ms
    )

    recorder = get_recorder()
    if breaker is not None and not breaker.allow(clock):
        # Degraded mode: the breaker already knows the cloud is down, so
        # the request goes straight to the device without paying a probe.
        recorder.event(
            "offload.degraded", t_sim_ms=float(clock), breaker_state=breaker.state
        )
        clock, fallback_ms = _fallback(env, rng, clock, cloud_spec)
        return OffloadResult(
            clock_ms=clock,
            transfer_ms=0.0,
            cloud_ms=0.0,
            fallback_edge_ms=fallback_ms,
            offloaded=False,
            fell_back=True,
            degraded=True,
            deadline_missed=deadline is not None and clock > deadline,
        )

    retries = 0
    for attempt_index in range(policy.max_retries + 1):
        if attempt_index > 0:
            retries += 1
            recorder.event(
                "offload.retry", attempt=attempt_index, t_sim_ms=float(clock)
            )
        if env.cloud_available(clock):
            attempt = env.attempt_transfer(payload_bytes, clock, rng)
            landed = attempt.ok and attempt.elapsed_ms <= policy.transfer_timeout_ms
            if landed:
                clock += attempt.elapsed_ms
                cloud_ms = env.cloud_compute_ms(cloud_spec, rng, at_ms=clock)
                clock += cloud_ms
                if breaker is not None:
                    breaker.record_success(clock)
                return OffloadResult(
                    clock_ms=clock,
                    transfer_ms=attempt.elapsed_ms,
                    cloud_ms=cloud_ms,
                    fallback_edge_ms=0.0,
                    offloaded=True,
                    fell_back=False,
                    retries=retries,
                    deadline_missed=deadline is not None and clock > deadline,
                )
            # Lost mid-flight or over budget: the sender gives up at the
            # stall point, or at the timeout for a crawling transfer.
            clock += min(attempt.elapsed_ms, policy.transfer_timeout_ms)
        else:
            clock += probe_timeout
        if breaker is not None:
            breaker.record_failure(clock)
            if not breaker.allow(clock):
                break  # the breaker opened mid-request: stop trying
        if attempt_index >= policy.max_retries:
            break
        backoff = policy.backoff_ms(attempt_index)
        if deadline is not None and clock + backoff >= deadline:
            break  # no budget left for another attempt
        clock += backoff

    recorder.event(
        "offload.fallback", retries=retries, t_sim_ms=float(clock)
    )
    clock, fallback_ms = _fallback(env, rng, clock, cloud_spec)
    return OffloadResult(
        clock_ms=clock,
        transfer_ms=0.0,
        cloud_ms=0.0,
        fallback_edge_ms=fallback_ms,
        offloaded=False,
        fell_back=True,
        retries=retries,
        deadline_missed=deadline is not None and clock > deadline,
    )
