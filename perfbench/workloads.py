"""The three benchmark workloads: ``search``, ``serve`` and ``chaos``.

Each workload is a closed loop with one caller in wall time: it runs one
*operation* after another until the time is up. An operation is a whole
scene (``search``) or one batch of requests (``serve``, ``chaos``). The
first :attr:`Workload.prefix_ops` operations are the *quality prefix*: they
always run, whatever the machine's speed, so the simulated-quality metrics
(latency on the simulated clock, accuracy, reward) are fixed by the seed.

Every input comes from the workload seed: the order of the scene runs of
``search`` and the per-batch emulation seeds of ``serve`` and ``chaos``.
Every operation's output is checked; a request or scene that fails a check
counts as failed. Wall times are scaled to a reference speed
(:mod:`speed`).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from scenes import SCENES
from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ARTIFACTS = HERE / "artifacts"

#: Requests per ``serve`` batch, spread evenly over the bandwidth trace.
SERVE_BATCH = 200
#: Requests per ``chaos`` batch: at CHAOS_SPACING_MS they cover 100 s of the
#: 120 s trace, and so the whole fault schedule (15 % to 80 % of the trace).
CHAOS_BATCH = 2000
#: Simulated gap between ``chaos`` arrivals; close to the device time of the
#: on-device plans, so fallbacks during the outage back the queue up.
CHAOS_SPACING_MS = 50.0
#: Latency objective of the ``chaos`` SLO (simulated ms).
CHAOS_SLO_MS = 100.0
#: Times each ``search`` scene runs per cycle.
SEARCH_REPEATS = 3
#: Requests per timed chunk of a ``serve`` or ``chaos`` batch.
CHUNK = 200
#: Requests per plan replayed again by the determinism check.
REPLAY_SAMPLE = 50


def derive_seed(seed: int, *path: int) -> int:
    """A 31-bit seed for one sub-stream of the workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0] >> 1)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclasses.dataclass
class Tally:
    """What a workload measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(message)


def check_outcome(outcome, valid_forks: Set[Tuple[int, ...]]) -> Optional[str]:
    """Why one served request's outcome is wrong, or ``None``."""
    if not (math.isfinite(outcome.latency_ms) and outcome.latency_ms > 0):
        return f"latency {outcome.latency_ms!r} not finite and positive"
    if not 0.0 < outcome.accuracy <= 1.0:
        return f"accuracy {outcome.accuracy!r} outside (0, 1]"
    if not math.isfinite(outcome.reward):
        return f"reward {outcome.reward!r} not finite"
    if tuple(outcome.fork_choices) not in valid_forks:
        return f"fork path {outcome.fork_choices!r} not in the tree"
    return None


def fork_paths(tree) -> Set[Tuple[int, ...]]:
    """The fork choices of every root-to-terminal walk of ``tree``."""
    paths: Set[Tuple[int, ...]] = set()

    def walk(node, path: Tuple[int, ...]) -> None:
        if node.partitioned or not node.children:
            paths.add(path)
            return
        for index, child in enumerate(node.children):
            walk(child, path + (index,))

    walk(tree.root, ())
    return paths


class Workload:
    """Shared loop: set up, run operations until time is up, report."""

    name = ""
    prefix_ops = 1
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 15
    #: Leading operations the traced run also times without wrappers.
    overhead_ops = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tally = Tally()
        #: What :meth:`setup` built, shared by every operation.
        self.state = None
        #: Called with a request's index before it is served (traced run).
        self.on_request: Optional[Callable[[int], None]] = None
        #: (start, end) ``perf_counter_ns`` of every operation :meth:`run` ran.
        self.op_spans: List[Tuple[int, int]] = []

    # -- hooks -------------------------------------------------------------
    def setup(self):
        """Build what the operations need; timed as ``setup_s``."""
        raise NotImplementedError

    def setup_samples(self, repeats: int) -> List[Tuple[int, int, float]]:
        """Run :meth:`setup` ``repeats`` times; keep the last state.

        Returns each set-up's (start ns, end ns, seconds).
        """
        samples = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            self.state = self.setup()
            end = time.perf_counter_ns()
            samples.append((start, end, (end - start) / 1e9))
        return samples

    def run_op(self, index: int) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the timed loop."""

    def timing(self, speed: SpeedSampler) -> Dict[str, float]:
        """``ops_per_s`` and the wall-time percentiles, at reference speed."""
        raise NotImplementedError

    def op_scale(self, speed: SpeedSampler, index: int) -> float:
        return speed.scale(*self.op_spans[index])

    def quality(self) -> Dict[str, float]:
        raise NotImplementedError

    def layer_stats(self) -> Dict[str, float]:
        """Counts and hit ratios the traced run reports."""
        return {}

    # -- loop ----------------------------------------------------------------
    def run(self, seconds: float) -> int:
        """Run operations for ``seconds`` (and at least the prefix)."""
        begin = time.perf_counter_ns()
        deadline = begin + int(seconds * 1e9)
        index = 0
        while index < self.prefix_ops or time.perf_counter_ns() < deadline:
            self._timed_op(index)
            index += 1
        return index

    def _timed_op(self, index: int) -> None:
        start = time.perf_counter_ns()
        self.run_op(index)
        self.op_spans.append((start, time.perf_counter_ns()))

    def mark_request(self, index: int) -> None:
        if self.on_request is not None:
            self.on_request(index)


def _offline_problem(outcome) -> Optional[str]:
    """Why one searched scene is wrong, or ``None``.

    The offline rewards must be ordered S <= B <= T (surgery, branch, tree),
    as the paper claims, and every searched tree must verify.
    """
    from repro.analysis import has_errors, verify_tree

    s, b, t = (m.offline_reward for m in outcome.methods)
    if not s <= b <= t:
        return f"offline rewards not ordered S <= B <= T: S={s} B={b} T={t}"
    if has_errors(verify_tree(outcome.tree.plan.tree)):
        return "searched tree fails verification"
    for method in outcome.methods:
        valid = fork_paths(method.plan.tree) if method.name == "tree" else {()}
        for replay in (method.emulation, method.field):
            for o in replay.outcomes:
                problem = check_outcome(o, valid)
                if problem is not None:
                    return f"{method.name} replay: {problem}"
    return None


def _outputs(outcome) -> list:
    """Everything a searched scene produced, for exact comparison."""
    return [
        (m.name, m.offline_reward, m.emulation.outcomes, m.field.outcomes)
        for m in outcome.methods
    ]


def _import_seconds() -> float:
    """Fresh-interpreter time to import the experiment stack."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.experiments.common; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(HERE.parent / "src")),
    )
    return float(out.stdout.strip().splitlines()[-1])


class SearchWorkload(Workload):
    """``run_scenario`` end to end at the default config, scene after scene.

    A cycle runs every scene :data:`SEARCH_REPEATS` times, in an order drawn
    from the seed. The scenes keep the default ``ExperimentConfig`` (ROADMAP's
    end-to-end figure #1): a scene's search cost moves by about 25 % with its
    config seed, so seed-drawn configs spread the figures across seeds wider
    than any usable bound. A scene's cost is the median of its repetitions;
    the repetitions must produce identical outputs.
    """

    name = "search"
    prefix_ops = len(SCENES) * SEARCH_REPEATS
    overhead_ops = len(SCENES)
    setup_repeats = 5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = [
            int(i) % len(SCENES)
            for i in np.random.default_rng(seed).permutation(self.prefix_ops)
        ]
        #: First outcome of each scene (search context dropped).
        self.outcomes: Dict[int, object] = {}
        #: Per scene, the (operation index, wall ns) of each repetition.
        self.scene_walls: Dict[int, List[Tuple[int, int]]] = {}
        self.cache = {"search.evaluate": [0, 0], "search.compose": [0, 0], "accuracy.memo": [0, 0]}

    def setup_samples(self, repeats: int) -> List[Tuple[int, int, float]]:
        # Before the first scene a user waits for the imports; everything
        # else is inside run_scenario. Time them in fresh interpreters.
        from repro.network.scenarios import get_scenario

        self.state = [get_scenario(*key) for key in SCENES]
        samples = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            seconds = _import_seconds()
            samples.append((start, time.perf_counter_ns(), seconds))
        return samples

    def run(self, seconds: float) -> int:
        """Whole cycles; another only when it should end within ``seconds``."""
        begin = time.perf_counter_ns()
        index = 0
        while True:
            for _ in range(self.prefix_ops):
                self._timed_op(index)
                index += 1
            elapsed = time.perf_counter_ns() - begin
            if elapsed * (index + self.prefix_ops) / index > seconds * 1e9:
                return index

    def run_op(self, index: int) -> None:
        from repro.experiments.common import ExperimentConfig, run_scenario

        scene = self.order[index % len(self.order)]
        self.mark_request(index)
        start = time.perf_counter_ns()
        outcome = run_scenario(self.state[scene], ExperimentConfig())
        wall = time.perf_counter_ns() - start
        self.tally.attempted += 1
        self.scene_walls.setdefault(scene, []).append((index, wall))
        context = outcome.context
        for name, stats in (
            ("search.evaluate", context.memo_stats()),
            ("search.compose", context.composer.stats),
            ("accuracy.memo", context.accuracy.stats),
        ):
            self.cache[name][0] += stats.hits
            self.cache[name][1] += stats.hits + stats.misses
        # The search context holds the controllers' autograd graphs.
        outcome.context = None
        problem = _offline_problem(outcome)
        first = self.outcomes.get(scene)
        if problem is None and first is not None and _outputs(first) != _outputs(outcome):
            problem = "a repetition with the same config gave different outputs"
        if problem is not None:
            self.tally.fail(f"{outcome.scenario}: {problem}")
        if first is None:
            self.outcomes[scene] = outcome

    def timing(self, speed: SpeedSampler) -> Dict[str, float]:
        scene_ms = [
            float(np.median([wall * self.op_scale(speed, i) for i, wall in walls])) / 1e6
            for walls in self.scene_walls.values()
        ]
        return {
            "ops_per_s": len(scene_ms) / (sum(scene_ms) / 1e3),
            "op_wall_ms_p50": percentile(scene_ms, 50),
            "op_wall_ms_p99": percentile(scene_ms, 99),
        }

    def _replays(self) -> list:
        """Every emulation and field replay of the quality-prefix scenes."""
        return [
            replay
            for outcome in self.outcomes.values()
            for method in outcome.methods
            for replay in (method.emulation, method.field)
        ]

    def quality(self) -> Dict[str, float]:
        replays = [o for replay in self._replays() for o in replay.outcomes]
        latencies = [o.latency_ms for o in replays]

        def median_ms(method: str) -> float:
            return sum(
                percentile([o.latency_ms for o in r.outcomes], 50)
                for oc in self.outcomes.values()
                for m in oc.methods
                if m.name == method
                for r in (m.emulation, m.field)
            )

        tree_ms, surgery_ms = median_ms("tree"), median_ms("surgery")
        return {
            "sim_latency_p50": percentile(latencies, 50),
            "sim_latency_p99": percentile(latencies, 99),
            "accuracy_mean": float(np.mean([o.accuracy for o in replays])),
            "reward_mean": float(np.mean([o.reward for o in replays])),
            "offline_reward_mean": float(
                np.mean([oc.tree.offline_reward for oc in self.outcomes.values()])
            ),
            "latency_cut_pct": 100.0 * (1.0 - tree_ms / surgery_ms),
        }

    def layer_stats(self) -> Dict[str, float]:
        replays = self._replays()
        stats = _outcome_counts([o for replay in replays for o in replay.outcomes])
        stats["runtime.faults_absorbed"] = float(
            sum(sum(replay.swallowed_faults.values()) for replay in replays)
        )
        # run_scenario replays without a breaker and without queueing.
        stats["runtime.breaker_transitions"] = 0.0
        stats["runtime.sim_queueing_p99"] = 0.0
        stats.update(_hit_ratios(self.cache))
        return stats


def _hit_ratios(cache: Dict[str, List[int]]) -> Dict[str, float]:
    return {
        f"{name}.hit_ratio": (hits / lookups if lookups else 0.0)
        for name, (hits, lookups) in cache.items()
    }


def _outcome_counts(outcomes) -> Dict[str, float]:
    n = max(1, len(outcomes))
    return {
        "runtime.retries": float(sum(o.retries for o in outcomes)),
        "runtime.fallbacks": float(sum(o.fell_back for o in outcomes)),
        "runtime.degraded": float(sum(o.degraded for o in outcomes)),
        "runtime.deadline_miss_share": sum(o.deadline_missed for o in outcomes) / n,
    }


@dataclasses.dataclass
class Served:
    """One loaded plan, ready to serve."""

    scene: int
    method: str  # "tree" | "surgery" | "branch"
    plan: object
    forks: Set[Tuple[int, ...]]


def load_served():
    """Load and admit every artifact; build each scene's environment.

    Returns (plans, environments): ``environments[scene]`` is the clean
    environment of that scene.
    """
    from repro.experiments.common import ExperimentConfig, build_context, build_environment
    from repro.network.scenarios import get_scenario
    from repro.runtime.engine import TreePlan, admit_plan
    from repro.search.serialize import load_plan, load_tree

    manifest = json.loads((ARTIFACTS / "manifest.json").read_text())
    duration_s = ExperimentConfig().trace_duration_s
    plans: List[Served] = []
    environments = []
    for index, entry in enumerate(manifest["scenes"]):
        files = entry["files"]
        tree = load_tree(ARTIFACTS / files["tree"])
        loaded = [
            ("tree", TreePlan(tree)),
            ("surgery", load_plan(ARTIFACTS / files["surgery"])),
            ("branch", load_plan(ARTIFACTS / files["branch"])),
        ]
        for method, plan in loaded:
            admit_plan(plan, base=tree.base)
            forks = fork_paths(tree) if method == "tree" else {()}
            plans.append(Served(index, method, plan, forks))
        scenario = get_scenario(*entry["scene"])
        context = build_context(scenario)
        trace = scenario.trace(duration_s=duration_s)
        environments.append(build_environment(scenario, context, trace))
    return plans, environments


class _Stamped:
    """Stamps each request's start from outside ``run_emulation``.

    ``run_emulation`` calls ``plan.execute`` once per request with its own
    environment, and again with a device-only copy when it absorbs a fault;
    only the first call of a request is stamped. The simulated start each
    request was given is kept too (it shows queueing).
    """

    def __init__(self, plan, env, workload: Workload) -> None:
        self.plan = plan
        self.env = env
        self.workload = workload
        self.stamps: List[int] = []
        self.starts: List[float] = []

    def execute(self, start_ms, env, rng):
        if env is self.env:
            self.workload.mark_request(self.workload.tally.attempted + len(self.stamps))
            self.stamps.append(time.perf_counter_ns())
            self.starts.append(start_ms)
        return self.plan.execute(start_ms, env, rng)


class ServingWorkload(Workload):
    """Replays batches of requests through loaded plans.

    One round visits every (scene, environment) group; within a group the
    tree, surgery and branch plans serve the same requests (same arrivals,
    same emulation seed), so their simulated latencies compare request for
    request.
    """

    methods = ("tree", "surgery", "branch")
    #: Rounds in the quality prefix.
    prefix_rounds = 4
    batch = SERVE_BATCH

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: Quality-prefix outcomes per (scene, method, environment).
        self.prefix_outcomes: Dict[Tuple[int, str, str], list] = {}
        #: Emulation seed and leading outcomes of each key's first batch.
        self.first_batches: Dict[Tuple[int, str, str], Tuple[int, list]] = {}
        #: Simulated queueing delay of quality-prefix requests.
        self.queueing_ms: List[float] = []
        #: Every plan composer that served a batch, by identity.
        self.composers: Dict[int, object] = {}
        self.counts = dict.fromkeys(
            ("retries", "fallbacks", "degraded", "deadline_missed", "faults_absorbed",
             "breaker_transitions"),
            0,
        )
        #: Per key, every chunk's (start ns, end ns, wall ns per request,
        #: p50 and p99 of its requests' wall ns).
        self.chunks: Dict[Tuple[int, str, str], List[Tuple[int, int, float, float, float]]] = {}
        #: Start, per-request start stamps and end of the batch in flight.
        self._batch: Tuple[int, List[int], int] = (0, [], 0)

    def setup(self):
        plans, environments = load_served()
        return plans, self.environments(environments)

    def environments(self, clean) -> List[List[Tuple[str, object]]]:
        from repro.runtime.field import FieldConditions, fieldify

        return [[("clean", env), ("field", fieldify(env, FieldConditions()))] for env in clean]

    @property
    def groups(self) -> List[Tuple[int, int]]:
        _, envs = self.state
        return [(scene, e) for scene in range(len(envs)) for e in range(len(envs[scene]))]

    @property
    def ops_per_round(self) -> int:
        return len(self.groups) * len(self.methods)

    def setup_samples(self, repeats: int) -> List[Tuple[int, int, float]]:
        samples = super().setup_samples(repeats)
        self.prefix_ops = self.prefix_rounds * self.ops_per_round
        self.overhead_ops = self.ops_per_round
        return samples

    def _op_target(self, index: int):
        """(served plan, environment name, environment, emulation seed)."""
        round_index, slot = divmod(index, self.ops_per_round)
        group, m = divmod(slot, len(self.methods))
        scene, e = self.groups[group]
        plans, envs = self.state
        served = next(p for p in plans if p.scene == scene and p.method == self.methods[m])
        env_name, env = envs[scene][e]
        return served, env_name, env, derive_seed(self.seed, round_index, group)

    def run_op(self, index: int) -> None:
        served, env_name, env, seed = self._op_target(index)
        outcomes, queueing = self.serve(served, env, seed)
        key = (served.scene, served.method, env_name)
        start, stamps, end = self._batch
        self.tally.attempted += len(outcomes)
        if len(stamps) != len(outcomes):
            self.tally.fail(
                f"{len(stamps)} stamped starts for {len(outcomes)} requests", len(outcomes)
            )
        else:
            self._add_chunks(key, start, stamps, end)
        for o in outcomes:
            problem = check_outcome(o, served.forks)
            if problem is not None:
                self.tally.fail(f"scene {served.scene} {served.method}/{env_name}: {problem}")
        for o in outcomes:
            self.counts["retries"] += o.retries
            self.counts["fallbacks"] += o.fell_back
            self.counts["degraded"] += o.degraded
            self.counts["deadline_missed"] += o.deadline_missed
        self.first_batches.setdefault(key, (seed, outcomes[:REPLAY_SAMPLE]))
        if index < self.prefix_ops:
            self.prefix_outcomes.setdefault(key, []).extend(outcomes)
            self.queueing_ms.extend(queueing)

    def serve(self, served: Served, env, seed: int) -> Tuple[list, List[float]]:
        """Serve one batch; returns its outcomes and queueing delays."""
        from repro.runtime.emulator import run_emulation

        self.composers[id(served.plan.composer)] = served.plan.composer
        stamped = _Stamped(served.plan, env, self)
        start = time.perf_counter_ns()
        # Plans were admitted when loaded (part of setup).
        result = run_emulation(stamped, env, num_requests=self.batch, seed=seed, admit=False)
        self._batch = (start, stamped.stamps, time.perf_counter_ns())
        return result.outcomes, []

    def _add_chunks(self, key, start: int, stamps: List[int], end: int) -> None:
        """Split a batch into runs of :data:`CHUNK` requests and keep each
        run's span, wall time per request and wall-time percentiles.

        A request's wall time runs from its start stamp to the next one (or
        the batch end); the first chunk's span also covers the work the
        batch does before its first request.
        """
        walls = np.diff(np.array(stamps + [end], dtype=np.int64))
        chunks = self.chunks.setdefault(key, [])
        for lo in range(0, len(stamps), CHUNK):
            hi = min(len(stamps), lo + CHUNK)
            first = start if lo == 0 else stamps[lo]
            last = stamps[hi] if hi < len(stamps) else end
            p50, p99 = np.percentile(walls[lo:hi], [50, 99])
            chunks.append((first, last, (last - first) / (hi - lo), float(p50), float(p99)))

    def timing(self, speed: SpeedSampler) -> Dict[str, float]:
        """Medians over each (plan, environment) pair's chunks.

        A pair's cost is its median wall time per request, and its wall-time
        percentiles are the medians of its chunks' percentiles, so a chunk
        that a burst of host noise slowed moves nothing. Each chunk is
        scaled by the host speed while it ran. Every pair weighs the same.
        """
        cost, p50, p99 = [], [], []
        for chunks in self.chunks.values():
            scaled = np.array(
                [
                    (c * k, q50 * k, q99 * k)
                    for first, last, c, q50, q99 in chunks
                    for k in (speed.scale(first, last),)
                ]
            )
            c, q50, q99 = np.median(scaled, axis=0)
            cost.append(c)
            p50.append(q50)
            p99.append(q99)
        return {
            "ops_per_s": 1e9 / float(np.mean(cost)),
            "op_wall_ms_p50": float(np.mean(p50)) / 1e6,
            "op_wall_ms_p99": float(np.mean(p99)) / 1e6,
        }

    def replay(self, served: Served, env, seed: int, count: int) -> list:
        """The first ``count`` outcomes of a batch, served again from scratch."""
        from repro.runtime.emulator import run_emulation

        return run_emulation(served.plan, env, num_requests=self.batch, seed=seed).outcomes[:count]

    def finish(self) -> None:
        """Same seed, same outcomes: replay the first batch of every plan."""
        plans, envs = self.state
        for (scene, method, env_name), (seed, first) in self.first_batches.items():
            served = next(p for p in plans if p.scene == scene and p.method == method)
            again = self.replay(served, dict(envs[scene])[env_name], seed, len(first))
            mismatched = sum(1 for a, b in zip(first, again) if a != b)
            mismatched += abs(len(first) - len(again))
            if mismatched:
                self.tally.fail(
                    f"scene {scene} {method}/{env_name}: {mismatched} of {len(first)} "
                    "replayed requests differ",
                    mismatched,
                )

    def quality(self) -> Dict[str, float]:
        """Each (plan, environment) pair weighs the same."""
        per_key = {
            key: np.array([[o.latency_ms, o.accuracy, o.reward] for o in outcomes])
            for key, outcomes in self.prefix_outcomes.items()
        }
        median_latency = {key: float(np.median(a[:, 0])) for key, a in per_key.items()}
        tree_ms = sum(v for (_, m, _), v in median_latency.items() if m == "tree")
        surgery_ms = sum(v for (_, m, _), v in median_latency.items() if m == "surgery")
        plans, _ = self.state
        trees = [p.plan.tree for p in plans if p.method == "tree"]
        latencies = [a[:, 0] for a in per_key.values()]
        return {
            "sim_latency_p50": float(np.mean([np.percentile(v, 50) for v in latencies])),
            "sim_latency_p99": float(np.mean([np.percentile(v, 99) for v in latencies])),
            "accuracy_mean": float(np.mean([a[:, 1].mean() for a in per_key.values()])),
            "reward_mean": float(np.mean([a[:, 2].mean() for a in per_key.values()])),
            "offline_reward_mean": float(np.mean([t.expected_reward() for t in trees])),
            "latency_cut_pct": 100.0 * (1.0 - tree_ms / surgery_ms),
        }

    def layer_stats(self) -> Dict[str, float]:
        stats = {
            "runtime.retries": float(self.counts["retries"]),
            "runtime.fallbacks": float(self.counts["fallbacks"]),
            "runtime.degraded": float(self.counts["degraded"]),
            "runtime.deadline_miss_share": self.counts["deadline_missed"] / self.tally.attempted,
            "runtime.faults_absorbed": float(self.counts["faults_absorbed"]),
            "runtime.breaker_transitions": float(self.counts["breaker_transitions"]),
            "runtime.sim_queueing_p99": (
                percentile(self.queueing_ms, 99) if self.queueing_ms else 0.0
            ),
        }
        _, envs = self.state
        cache = {"search.evaluate": [0, 0], "search.compose": [0, 0], "accuracy.memo": [0, 0]}
        for composer in self.composers.values():
            compose = composer.stats
            cache["search.compose"][0] += compose.hits
            cache["search.compose"][1] += compose.hits + compose.misses
        for scene_envs in envs:
            memo = scene_envs[0][1].accuracy.stats
            cache["accuracy.memo"][0] += memo.hits
            cache["accuracy.memo"][1] += memo.hits + memo.misses
        stats.update(_hit_ratios(cache))
        return stats


class ServeWorkload(ServingWorkload):
    """Clean and field-noise serving of the committed plans."""

    name = "serve"


class ChaosWorkload(ServingWorkload):
    """The committed plans under the default fault schedule.

    Fixed plans run through ``run_emulation(queued=True, pipelined=True)``
    at a fixed simulated spacing (an open loop on the simulated clock);
    trees run through ``InferenceSession`` with an EWMA bandwidth predictor
    on the same arrival times. Every batch is a fresh session: a new
    breaker, retry policy and SLO evaluator.
    """

    name = "chaos"
    #: Batches vary with the seed far more under faults (loss draws steer
    #: retries and the breaker), so the quality prefix is longer.
    prefix_rounds = 8
    batch = CHAOS_BATCH

    def environments(self, clean) -> List[List[Tuple[str, object]]]:
        from repro.experiments.chaos import default_fault_schedule

        return [
            [("faulted", default_fault_schedule(env.trace.duration_s * 1e3).install(env))]
            for env in clean
        ]

    def _fixed_plan(self, served: Served):
        from repro.experiments.chaos import default_breaker, default_offload_policy
        from repro.runtime.engine import FixedPlan

        return FixedPlan(
            served.plan.edge_spec,
            served.plan.cloud_spec,
            policy=default_offload_policy(),
            breaker=default_breaker(),
        )

    def _emulate(self, plan, env, seed: int, count: int):
        from repro.obs.slo import SLOPolicy
        from repro.runtime.emulator import run_emulation

        return run_emulation(
            plan,
            env,
            num_requests=count,
            seed=seed,
            spacing_ms=CHAOS_SPACING_MS,
            queued=True,
            pipelined=True,
            admit=False,
            slo=SLOPolicy(objective_ms=CHAOS_SLO_MS),
        )

    def _session(self, served: Served, env, seed: int):
        from repro.experiments.chaos import default_breaker, default_offload_policy
        from repro.network.predictor import EWMAPredictor
        from repro.obs.slo import SLOPolicy
        from repro.runtime.session import InferenceSession

        return InferenceSession(
            served.plan.tree,
            env,
            predictor=EWMAPredictor(),
            seed=seed,
            verify=False,  # admitted when loaded
            policy=default_offload_policy(),
            breaker=default_breaker(),
            slo=SLOPolicy(objective_ms=CHAOS_SLO_MS),
        )

    def serve(self, served: Served, env, seed: int) -> Tuple[list, List[float]]:
        if served.method == "tree":
            return self._serve_session(served, env, seed)
        plan = self._fixed_plan(served)
        # A session's tree plan (and so its composer) is internal to it.
        self.composers[id(plan.composer)] = plan.composer
        stamped = _Stamped(plan, env, self)
        start = time.perf_counter_ns()
        result = self._emulate(stamped, env, seed, self.batch)
        self._batch = (start, stamped.stamps, time.perf_counter_ns())
        self.counts["faults_absorbed"] += sum(result.swallowed_faults.values())
        self.counts["breaker_transitions"] += sum(plan.breaker.transition_counts().values())
        queueing = [s - i * CHAOS_SPACING_MS for i, s in enumerate(stamped.starts)]
        return result.outcomes, queueing

    def _serve_session(self, served: Served, env, seed: int) -> Tuple[list, List[float]]:
        session = self._session(served, env, seed)
        clock = time.perf_counter_ns
        stamps: List[int] = []
        first = self.tally.attempted
        start = clock()
        for i in range(self.batch):
            self.mark_request(first + i)
            stamps.append(clock())
            session.infer(at_ms=i * CHAOS_SPACING_MS)
        self._batch = (start, stamps, clock())
        self.counts["faults_absorbed"] += sum(session.fault_counts.values())
        self.counts["breaker_transitions"] += sum(session.breaker.transition_counts().values())
        queueing = [o.start_ms - i * CHAOS_SPACING_MS for i, o in enumerate(session.outcomes)]
        return session.outcomes, queueing

    def replay(self, served: Served, env, seed: int, count: int) -> list:
        if served.method == "tree":
            session = self._session(served, env, seed)
            for i in range(count):
                session.infer(at_ms=i * CHAOS_SPACING_MS)
            return session.outcomes
        # Queued arrivals depend only on earlier requests: a prefix replays.
        return self._emulate(self._fixed_plan(served), env, seed, count).outcomes


WORKLOADS = {w.name: w for w in (SearchWorkload, ServeWorkload, ChaosWorkload)}
