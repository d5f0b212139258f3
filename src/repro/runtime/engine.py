"""Online inference execution over a live bandwidth trace.

Two kinds of plan exist at runtime:

- a **fixed plan** (Dynamic DNN Surgery, the optimal branch): edge half,
  optional transfer, cloud half — decided once before inference;
- a **tree plan** (the context-aware model tree): before each block the
  engine measures the current bandwidth, matches it to a fork, and follows
  that child — possibly deciding mid-inference to ship the rest to the
  cloud (Alg. 2 / Sec. IV Overview).

Both are executed against a :class:`RuntimeEnvironment` that owns the
bandwidth trace, the transfer channel, the device profiles, and the
accuracy evaluator. Latencies advance a simulated clock, so a bandwidth dip
during an early block is *visible* to later fork decisions — the temporal
effect the paper's introduction motivates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Protocol, Tuple

import numpy as np

from ..accuracy.base import AccuracyEvaluator
from ..contracts import require_non_negative
from ..latency.devices import DeviceProfile
from ..mdp.reward import RewardConfig
from ..model.spec import ModelSpec
from ..network.channel import Channel, TransferAttempt
from ..network.traces import BandwidthTrace
from ..search.compose import walk_tree
from ..search.composer import SpecComposer
from ..search.tree import ModelTree, TreeNode
from .resilience import CircuitBreaker, OffloadPolicy, resolve_offload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .faults import FaultSchedule


@dataclass
class RuntimeEnvironment:
    """Everything an executing inference interacts with."""

    edge: DeviceProfile
    cloud: DeviceProfile
    trace: BandwidthTrace
    channel: Channel
    accuracy: AccuracyEvaluator
    reward: RewardConfig
    compute_noise: Callable[[np.random.Generator], float] = lambda rng: 1.0
    transfer_noise: Callable[[np.random.Generator], float] = lambda rng: 1.0
    bandwidth_probe_noise: Callable[[float, float, np.random.Generator], float] = (
        lambda true_mbps, t_ms, rng: true_mbps
    )
    #: Cloud-outage windows [(start_ms, end_ms), ...] — failure injection.
    #: An offload attempted inside a window fails; the engine pays
    #: ``outage_detect_ms`` to notice and falls back to finishing the
    #: inference on the device (the device keeps the full base weights).
    #: Windows are half-open (``start <= t < end``); a zero-length or
    #: inverted window never matches.
    cloud_outages: Tuple[Tuple[float, float], ...] = ()
    outage_detect_ms: float = 200.0
    #: Optional declarative fault schedule (outages, brownouts, transfer
    #: loss, probe blackouts). Install one with ``FaultSchedule.install``.
    faults: Optional["FaultSchedule"] = None

    def cloud_available(self, t_ms: float) -> bool:
        """Half-open window semantics: down for ``start <= t_ms < end``."""
        require_non_negative(t_ms, "t_ms")
        if any(
            start <= t_ms < end for start, end in self.cloud_outages if end > start
        ):
            return False
        return self.faults is None or not self.faults.outage_at(t_ms)

    def edge_compute_ms(
        self, spec: Optional[ModelSpec], rng: np.random.Generator
    ) -> float:
        if spec is None or not len(spec):
            return 0.0
        return self.edge.model_latency_ms(spec) * self.compute_noise(rng)

    def cloud_compute_ms(
        self,
        spec: Optional[ModelSpec],
        rng: np.random.Generator,
        at_ms: Optional[float] = None,
    ) -> float:
        """Cloud compute time; a brownout active at ``at_ms`` stretches it."""
        if spec is None or not len(spec):
            return 0.0
        base_ms = self.cloud.model_latency_ms(spec) * self.compute_noise(rng)
        if at_ms is not None and self.faults is not None:
            require_non_negative(at_ms, "at_ms")
            base_ms *= self.faults.brownout_multiplier_at(at_ms)
        return base_ms

    def transfer_time_ms(
        self, size_bytes: float, start_ms: float, rng: np.random.Generator
    ) -> float:
        """Trace-integrated transfer time plus field-mode protocol noise."""
        require_non_negative(size_bytes, "size_bytes")
        require_non_negative(start_ms, "start_ms")
        return self.channel.transfer_time_ms(size_bytes, start_ms) * (
            self.transfer_noise(rng)
        )

    def attempt_transfer(
        self, size_bytes: float, start_ms: float, rng: np.random.Generator
    ) -> TransferAttempt:
        """One transfer attempt — may fail mid-flight on a lossy channel."""
        require_non_negative(size_bytes, "size_bytes")
        require_non_negative(start_ms, "start_ms")
        attempt = self.channel.attempt(size_bytes, start_ms, rng)
        return TransferAttempt(
            ok=attempt.ok,
            elapsed_ms=attempt.elapsed_ms * self.transfer_noise(rng),
        )

    def probe_bandwidth(self, t_ms: float, rng: np.random.Generator) -> float:
        """What the engine *believes* the bandwidth is at time ``t_ms``.

        During a probe blackout the measurement side-channel is down and
        the probe returns the 0.1 Mbps floor — the engine assumes the
        worst. A bandwidth collapse scales what the probe sees, so fork
        decisions react to it like any other dip.
        """
        require_non_negative(t_ms, "t_ms")
        if self.faults is not None and self.faults.probe_blackout_at(t_ms):
            return 0.1
        true_mbps = self.trace.at(t_ms / 1e3)
        if self.faults is not None:
            true_mbps /= max(1.0, self.faults.slowdown_at(t_ms))
        return max(0.1, self.bandwidth_probe_noise(true_mbps, t_ms, rng))


@dataclass(frozen=True)
class InferenceOutcome:
    """One executed inference request."""

    start_ms: float
    latency_ms: float
    accuracy: float
    reward: float
    offloaded: bool
    edge_ms: float
    transfer_ms: float
    cloud_ms: float
    fork_choices: Tuple[int, ...] = ()
    fell_back: bool = False  # a failed offload forced an on-device fallback
    retries: int = 0  # offload re-attempts beyond the first try
    deadline_missed: bool = False  # completion overran the policy deadline
    degraded: bool = False  # breaker was open: request pinned edge-only


class InferencePlan(Protocol):
    """Anything executable by the emulator."""

    def execute(
        self, start_ms: float, env: RuntimeEnvironment, rng: np.random.Generator
    ) -> InferenceOutcome: ...


def admit_plan(plan: "InferencePlan", base: Optional[ModelSpec] = None) -> None:
    """Statically verify a plan before the engine will execute it.

    Admission-time rejection (``VerificationError``) beats discovering a
    malformed split mid-inference: every :class:`FixedPlan` boundary and
    every runtime-reachable tree path is checked without running anything.
    Plans of unknown types pass through (the Protocol is open).
    """
    from ..analysis import raise_on_error, verify_fixed_plan, verify_tree

    if isinstance(plan, FixedPlan):
        raise_on_error(verify_fixed_plan(plan, base=base), context="fixed plan")
    elif isinstance(plan, TreePlan):
        raise_on_error(verify_tree(plan.tree), context="tree plan")


def _offload_tail(
    plan: "FixedPlan | TreePlan",
    start_ms: float,
    clock: float,
    env: RuntimeEnvironment,
    rng: np.random.Generator,
    edge_spec: Optional[ModelSpec],
    cloud_spec: Optional[ModelSpec],
    edge_ms: float,
    forks: Tuple[int, ...] = (),
) -> InferenceOutcome:
    """Offload ``cloud_spec`` (if any) and report the finished request."""
    payload_bytes = 0.0
    if cloud_spec is not None and len(cloud_spec):
        # Bytes crossing the link: the edge output, or the raw cloud input.
        if edge_spec is not None and len(edge_spec):
            payload_bytes = edge_spec.output_shape.num_bytes
        else:
            payload_bytes = cloud_spec.input_shape.num_bytes
    offload = resolve_offload(
        env,
        rng,
        clock,
        cloud_spec,
        payload_bytes,
        policy=plan.policy,
        breaker=plan.breaker,
    )
    composed = plan.composer.concat([edge_spec, cloud_spec], name="composed")
    if composed is None:
        raise ValueError("plan has neither edge nor cloud model")
    accuracy = env.accuracy.evaluate(composed)
    latency = offload.clock_ms - start_ms
    return InferenceOutcome(
        start_ms=start_ms,
        latency_ms=latency,
        accuracy=accuracy,
        reward=env.reward.reward(accuracy, latency),
        offloaded=offload.offloaded,
        edge_ms=edge_ms + offload.fallback_edge_ms,
        transfer_ms=offload.transfer_ms,
        cloud_ms=offload.cloud_ms,
        fork_choices=forks,
        fell_back=offload.fell_back,
        retries=offload.retries,
        deadline_missed=offload.deadline_missed,
        degraded=offload.degraded,
    )


@dataclass(frozen=True)
class FixedPlan:
    """A once-for-all (edge, cloud) split — surgery and optimal branch.

    ``policy``/``breaker`` switch the offload path from the naive
    one-shot fallback to the resilient state machine of
    :mod:`repro.runtime.resilience`; the breaker is deliberately excluded
    from equality (it is mutable session state, not part of the split).
    """

    edge_spec: Optional[ModelSpec]
    cloud_spec: Optional[ModelSpec]
    policy: Optional[OffloadPolicy] = None
    breaker: Optional[CircuitBreaker] = field(default=None, compare=False)
    #: Composed-spec cache (excluded from equality like the breaker): the
    #: edge+cloud composition is identical for every request of a session,
    #: so repeat requests reuse one cached spec with a warm fingerprint.
    composer: SpecComposer = field(
        default_factory=SpecComposer, compare=False, repr=False
    )

    def execute(
        self, start_ms: float, env: RuntimeEnvironment, rng: np.random.Generator
    ) -> InferenceOutcome:
        clock = require_non_negative(start_ms, "start_ms")
        edge_ms = env.edge_compute_ms(self.edge_spec, rng)
        return _offload_tail(
            self,
            start_ms,
            clock + edge_ms,
            env,
            rng,
            self.edge_spec,
            self.cloud_spec,
            edge_ms,
        )


@dataclass(frozen=True)
class TreePlan:
    """Walk the model tree per measured bandwidth (Alg. 2), block by block.

    Shares :func:`~repro.runtime.resilience.resolve_offload` with
    :class:`FixedPlan`, so the same retry/breaker/deadline semantics apply
    once the walk commits to a partitioned terminal.
    """

    tree: ModelTree
    policy: Optional[OffloadPolicy] = None
    breaker: Optional[CircuitBreaker] = field(default=None, compare=False)
    #: Composed-spec cache (excluded from equality like the breaker): a
    #: session's requests revisit the same few tree paths, so the walked
    #: edge prefix is composed once per distinct path, not per request.
    composer: SpecComposer = field(
        default_factory=SpecComposer, compare=False, repr=False
    )

    def execute(
        self, start_ms: float, env: RuntimeEnvironment, rng: np.random.Generator
    ) -> InferenceOutcome:
        clock = require_non_negative(start_ms, "start_ms")
        edge_ms = 0.0

        def run_block(node: TreeNode) -> None:
            nonlocal clock, edge_ms
            block_ms = env.edge_compute_ms(node.edge_spec, rng)
            edge_ms += block_ms
            clock += block_ms

        def measure(node: TreeNode) -> float:
            # Per block: edge-compute noise first, then the probe.
            run_block(node)
            return env.probe_bandwidth(clock, rng)

        path, forks, _ = walk_tree(self.tree, measure)
        run_block(path[-1])
        return _offload_tail(
            self,
            start_ms,
            clock,
            env,
            rng,
            self.composer.concat([node.edge_spec for node in path]),
            path[-1].cloud_spec,
            edge_ms,
            tuple(forks),
        )
