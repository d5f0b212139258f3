"""Hindsight-regret analysis — how close is each method to clairvoyance?

The paper motivates the model tree with *regret*: a plan chosen before
inference "will later regret its decision when the network condition gets
better". This module quantifies that notion. For every request time we
execute a set of candidate deployments (the fixed plans plus every branch
of the model tree) and record the best achievable reward — the **hindsight
oracle**, a planner that knows the trace. Each method's *regret* is the gap
between the oracle's reward and its own, per request.

The oracle is an upper bound no causal policy can beat; the tree's regret
measures how much of the adaptivity headroom it actually captures, and the
surgery baseline's regret is the cost of static planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .engine import FixedPlan, InferencePlan, RuntimeEnvironment, TreePlan


@dataclass
class RegretReport:
    """Per-method mean regret against the hindsight oracle."""

    oracle_mean_reward: float
    method_mean_rewards: Dict[str, float]

    def regret(self, method: str) -> float:
        return self.oracle_mean_reward - self.method_mean_rewards[method]

    def captured_headroom(self, method: str, baseline: str = "surgery") -> float:
        """Fraction of the baseline→oracle gap the method closes (≤ 1)."""
        gap = self.oracle_mean_reward - self.method_mean_rewards[baseline]
        if gap <= 1e-9:
            return 1.0
        closed = self.method_mean_rewards[method] - self.method_mean_rewards[baseline]
        return closed / gap


def oracle_candidates(
    plans: Dict[str, InferencePlan]
) -> List[Tuple[str, FixedPlan]]:
    """Expand the methods into the oracle's fixed-deployment choices.

    Every tree branch becomes its own fixed plan — the oracle may pick a
    different branch per request, which is exactly the adaptivity ceiling.
    """
    candidates: List[Tuple[str, FixedPlan]] = []
    for name, plan in plans.items():
        if isinstance(plan, TreePlan):
            for b, path in enumerate(plan.tree.branches()):
                edge = plan.composer.concat([node.edge_spec for node in path])
                candidates.append(
                    (f"{name}:branch{b}", FixedPlan(edge, path[-1].cloud_spec))
                )
        else:
            candidates.append((name, plan))
    return candidates


def regret_analysis(
    plans: Dict[str, InferencePlan],
    env: RuntimeEnvironment,
    num_requests: int = 40,
    seed: int = 0,
) -> RegretReport:
    """Replay every method and the hindsight oracle over the same trace."""
    if not plans:
        raise ValueError("need at least one method")
    duration_ms = env.trace.duration_s * 1e3
    start_times = np.linspace(0.0, duration_ms * 0.9, num_requests)

    method_rewards: Dict[str, List[float]] = {name: [] for name in plans}
    oracle_rewards: List[float] = []
    candidates = oracle_candidates(plans)

    for i, start in enumerate(start_times):
        for name, plan in plans.items():
            rng = np.random.default_rng(seed + 1000 + i)
            method_rewards[name].append(
                plan.execute(float(start), env, rng).reward
            )
        best = -np.inf
        for _, candidate in candidates:
            rng = np.random.default_rng(seed + 1000 + i)
            best = max(best, candidate.execute(float(start), env, rng).reward)
        oracle_rewards.append(best)

    return RegretReport(
        oracle_mean_reward=float(np.mean(oracle_rewards)),
        method_mean_rewards={
            name: float(np.mean(values)) for name, values in method_rewards.items()
        },
    )
