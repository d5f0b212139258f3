"""Pin: run_scenario scopes the default PerfRegistry to the scenario.

Before the ``scoped()`` wiring, every ``run_scenario`` call accumulated
into the same process-global registry, so a multi-scenario sweep reported
the *sum* of all scenes in every snapshot. The scope resets on entry and
leaves the counts readable afterwards (post-run reporting).
"""

import pytest

from repro.experiments.common import ExperimentConfig, run_scenario
from repro.network.scenarios import get_scenario
from repro.obs.trace import recording
from repro.perf import get_registry


def tiny_config():
    return ExperimentConfig(tree_episodes=2, branch_episodes=3, seed=0)


@pytest.fixture
def scenario():
    return get_scenario("vgg11", "phone", "4G indoor static")


class TestScenarioScopedRegistry:
    def test_preexisting_counts_cleared_on_entry(self, scenario):
        registry = get_registry()
        registry.count("stale.counter", by=99)
        run_scenario(scenario, tiny_config(), run_emu=False, run_field=False)
        assert registry.counter("stale.counter") == 0

    def test_back_to_back_runs_do_not_accumulate(self, scenario):
        registry = get_registry()
        run_scenario(scenario, tiny_config(), run_emu=False, run_field=False)
        first = registry.span_stat("scenario.tree").count
        run_scenario(scenario, tiny_config(), run_emu=False, run_field=False)
        assert registry.span_stat("scenario.tree").count == first == 1

    def test_counts_survive_for_post_run_reporting(self, scenario):
        registry = get_registry()
        run_scenario(scenario, tiny_config(), run_emu=False, run_field=False)
        assert registry.counter("tree.episodes") > 0
        assert registry.span_stat("scenario.tree").count == 1


class TestScenarioTrace:
    def test_run_scenario_is_one_trace(self, scenario, tmp_path):
        path = tmp_path / "scenario.jsonl"
        with recording(path):
            run_scenario(scenario, tiny_config(), run_emu=False, run_field=False)
        from repro.obs.report import summarize_trace

        summary = summarize_trace(path)
        assert summary.unparsed == 0
        assert len(summary.traces) == 1  # everything under one root span
        root = summary.phases.get("run_scenario")
        assert root is not None and root.count == 1
        # The offline phases all appear under the same trace.
        for phase in ("scenario.surgery", "scenario.branch", "scenario.tree"):
            assert phase in summary.phases


class TestScenarioCacheTelemetry:
    def test_memo_stats_events_per_cache(self, scenario, tmp_path):
        """A traced scene ends with one cumulative ``memo.stats`` snapshot
        per memo pool, so ``obs report`` can render cache telemetry."""
        path = tmp_path / "scenario.jsonl"
        with recording(path):
            run_scenario(scenario, tiny_config(), run_emu=False, run_field=False)
        from repro.obs.report import summarize_trace

        summary = summarize_trace(path)
        assert set(summary.caches) >= {
            "search.memo",
            "accuracy.memo",
            "compose.memo",
        }
        for stats in summary.caches.values():
            assert stats["hits"] + stats["misses"] > 0


class TestRegistryAndTraceAgree:
    """One span API: the registry and the trace time the same spans from
    the same clock reads, so their per-name counts and totals match."""

    @staticmethod
    def assert_agree(registry, records):
        spans = [r for r in records if r["kind"] == "span"]
        stats = registry.snapshot()["spans"]
        assert set(stats) == {r["name"] for r in spans}
        for name, stat in stats.items():
            durations = [r["dur_ms"] for r in spans if r["name"] == name]
            assert stat["count"] == len(durations), name
            # dur_ms is rounded to 4 decimals per record.
            slack = 0.5e-4 * len(durations) + 1e-9
            assert stat["total_ms"] == pytest.approx(sum(durations), abs=slack), name

    def test_run_scenario(self, scenario):
        config = ExperimentConfig(
            tree_episodes=3, branch_episodes=6, emulation_requests=8
        )
        with recording() as recorder:
            run_scenario(scenario, config)
        self.assert_agree(get_registry(), recorder.records)

    def test_run_chaos(self, scenario):
        from repro.experiments.chaos import run_chaos

        config = ExperimentConfig(
            tree_episodes=3, branch_episodes=6, emulation_requests=8
        )
        with recording() as recorder:
            run_chaos(config, scenario=scenario)
        self.assert_agree(get_registry(), recorder.records)
