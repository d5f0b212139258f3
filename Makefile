# Convenience targets for the reproduction workflow.
#
# `test` matches the tier-1 invocation exactly, so it works from a clean
# checkout with no `pip install -e .` (the sources live under src/).
# `lint` = ruff + mypy + flowcheck; ruff/mypy are skipped with a notice
# when not installed (offline containers), flowcheck always runs.

PY ?= python
PYTHONPATH_SRC = PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH),)

.PHONY: install test bench bench-json bench-pool bench-episode bench-serve bench-diff bench-diff-report experiments examples chaos obs-report sweep-parallel lint typecheck flowcheck clean

# bench-diff thresholds: relative drift that annotates (warn) vs fails the
# job. CI machines vary wildly in absolute speed, so the fail bar is
# deliberately generous; tune per-fleet with e.g.
# `make bench-diff BENCH_DIFF_FAIL=0.5`.
BENCH_DIFF_WARN ?= 0.10
BENCH_DIFF_FAIL ?= 3.0

install:
	pip install -e . || python setup.py develop

test:
	$(PYTHONPATH_SRC) $(PY) -m pytest -x -q

bench:
	$(PYTHONPATH_SRC) $(PY) -m pytest benchmarks/ --benchmark-only

# Machine-readable benchmark results (pytest-benchmark JSON incl. the memo
# speedup / hit-rate extra_info) for CI artifacts and regression tracking.
bench-json:
	$(PYTHONPATH_SRC) $(PY) -m pytest benchmarks/ --benchmark-only --benchmark-json=BENCH_search.json

experiments:
	$(PYTHONPATH_SRC) $(PY) -m repro.experiments all

# Smoke-size chaos replay: a tiny fault-schedule emulation comparing the
# naive and resilient offload engines (see src/repro/experiments/chaos.py).
chaos:
	$(PYTHONPATH_SRC) $(PY) -m repro.experiments chaos --requests 16 --tree-episodes 3 --branch-episodes 6

# Parallel-sweep equivalence check: the 14-scene Table III search run
# serially, then through the 2-worker fault-tolerant pool with a result
# journal, a mid-sweep stop and an injected WorkerCrash — asserting the
# resumed parallel numbers are bit-identical to serial. Writes the pool
# robustness/telemetry report to POOL_report.json (the CI artifact) and
# exits nonzero on any divergence.
sweep-parallel:
	$(PYTHONPATH_SRC) $(PY) -m repro.experiments parallel --tree-episodes 3 --branch-episodes 6 --workers 2 --journal SWEEP_journal.jsonl --pool-report POOL_report.json

# Pool throughput gate: 2 blocking-task workers must beat serial >=1.5x;
# JSON (incl. measured speedup extra_info) lands in BENCH_pool.json.
bench-pool:
	$(PYTHONPATH_SRC) $(PY) -m pytest benchmarks/test_bench_pool.py --benchmark-only --benchmark-json=BENCH_pool.json

# Batched-episode throughput gate: level-batched tree episodes must beat
# the per-node sequential path >=3x (locally ~5-7x); JSON incl. the
# measured speedup extra_info lands in BENCH_episode.json.
bench-episode:
	$(PYTHONPATH_SRC) $(PY) -m pytest benchmarks/test_bench_episode.py --benchmark-only --benchmark-json=BENCH_episode.json

# Serving hot-path gate: requests served with cached spec latencies must
# beat the uncached latency model >=2.5x, and the registry may cost at
# most 10 us/request; JSON (incl. us/request per plan, registry on/off,
# cached/uncached, in extra_info) lands in BENCH_serve.json.
bench-serve:
	$(PYTHONPATH_SRC) $(PY) -m pytest benchmarks/test_bench_serve.py --benchmark-only --benchmark-json=BENCH_serve.json

# Cross-run regression diff: fresh BENCH_search.json / BENCH_episode.json /
# BENCH_serve.json against the checked-in baselines (benchmarks/baselines/).
# Drift past BENCH_DIFF_WARN is annotated; past BENCH_DIFF_FAIL the target
# exits nonzero. Diff reports land in BENCH_DIFF_*.json for CI artifacts.
# `bench-diff-report` only diffs (CI runs it after the bench steps have
# already produced the fresh JSONs); `bench-diff` is the local one-shot.
bench-diff: bench-json bench-episode bench-serve bench-diff-report

bench-diff-report:
	$(PYTHONPATH_SRC) $(PY) -m repro.obs diff benchmarks/baselines/BENCH_search.json BENCH_search.json --warn $(BENCH_DIFF_WARN) --fail $(BENCH_DIFF_FAIL) --report BENCH_DIFF_search.json
	$(PYTHONPATH_SRC) $(PY) -m repro.obs diff benchmarks/baselines/BENCH_episode.json BENCH_episode.json --warn $(BENCH_DIFF_WARN) --fail $(BENCH_DIFF_FAIL) --report BENCH_DIFF_episode.json
	$(PYTHONPATH_SRC) $(PY) -m repro.obs diff benchmarks/baselines/BENCH_serve.json BENCH_serve.json --warn $(BENCH_DIFF_WARN) --fail $(BENCH_DIFF_FAIL) --report BENCH_DIFF_serve.json

# Record a small traced scenario run and summarize it: writes
# TRACE_scenario.jsonl and prints the per-phase / fork / RL / resilience
# report (see docs/ARCHITECTURE.md §7).
obs-report:
	$(PYTHONPATH_SRC) $(PY) -m repro emulate --episodes 3 --branch-episodes 6 --requests 16 --trace TRACE_scenario.jsonl
	$(PYTHONPATH_SRC) $(PY) -m repro.obs report TRACE_scenario.jsonl --strict

examples:
	$(PYTHONPATH_SRC) $(PY) examples/quickstart.py
	$(PYTHONPATH_SRC) $(PY) examples/streaming_video_analytics.py
	$(PYTHONPATH_SRC) $(PY) examples/field_study.py
	$(PYTHONPATH_SRC) $(PY) examples/resnet_dag_energy.py
	$(PYTHONPATH_SRC) $(PY) examples/train_compress_distill.py

lint: flowcheck
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src/repro; \
	else \
		echo "lint: ruff not installed - skipping (pip install ruff)"; \
	fi
	@$(MAKE) --no-print-directory typecheck

typecheck:
	@if command -v mypy >/dev/null 2>&1; then \
		mypy src/repro; \
	else \
		echo "typecheck: mypy not installed - skipping (pip install mypy)"; \
	fi

# Full interprocedural gate over everything we ship: library source plus
# the benchmark and example scripts. FLOWCHECK_REPORT writes the JSON
# report (the CI artifact) alongside the human output.
flowcheck:
	$(PYTHONPATH_SRC) $(PY) -m repro.analysis --flow $(if $(FLOWCHECK_REPORT),--report $(FLOWCHECK_REPORT) ,)src/repro benchmarks examples

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .benchmarks .ruff_cache .mypy_cache src/repro.egg-info
