# Developer entry points.  The test suite needs src/ on the path; the
# bench targets write their artifacts next to this file / under
# benchmarks/results/.

PYTHON ?= python
PYTHONPATH := src

.PHONY: test test-fast test-chaos test-serving test-registry test-scenarios test-durability lint bench bench-runner bench-obs bench-serving bench-paper loadtest-smoke lifebench-smoke

## Full tier-1 suite (everything under tests/).
test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest

## Quick loop: the suite minus the @slow integration/example tests.
test-fast:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m "not slow"

## Fault-injection suite: worker kills, torn writes, checkpoint rot.
test-chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m chaos

## Serving-layer suite: admission, deadlines, breaker, ladder.
test-serving:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m serving

## Policy-registry suite: fingerprints, warm cache, background refit.
test-registry:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m registry

## Dynamic-world suite: availability churn, mid-plan replanning, drain.
test-scenarios:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -m scenarios

## Durability suite: journal format, replay, kill -9 restart drill.
test-durability:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest tests/test_journal.py

## Static checks (ruff: syntax errors + pyflakes).  `pip install -e .[lint]`.
lint:
	$(PYTHON) -m ruff check src tests benchmarks

## Reward-engine micro-benchmark -> BENCH_reward_engine.json.
bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_reward_engine.py --obs

## Parallel-runner benchmark (serial vs workers) -> BENCH_runner.json.
bench-runner:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_runner.py

## Observability overhead only (< 5% assertion + fingerprint equality).
bench-obs:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_runner.py --only obs --runs 2 --episodes 80

## Serving-facade latency (p50/p95 per rung) -> BENCH_serving.json.
bench-serving:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_serving.py

## Paper tables/figures (pytest-benchmark harness; slow).
bench-paper:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks -p no:cacheprovider

## Short closed-loop sweep through the concurrent server (1/4/16
## clients on the toy dataset) -> loadtest-smoke.json.  CI uploads the
## latency section as an artifact.
loadtest-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli loadtest toy \
		--mode closed --levels 1,4,16 --requests 48 --episodes 60 \
		--deadline 2.0 --slo 0.5 --output loadtest-smoke.json

## The lifecycle benchmark stays runnable: its own tests, then one
## traced cycle per workload, which must end correct with a nonzero
## mask and step ledger (a renamed step function breaks the tracer at
## install; a bypassed one reads 0).
LIFEBENCH_WORKLOADS := courses_repeat trips_sweep catalog_churn

lifebench-smoke:
	$(PYTHON) -m pytest lifebench/tests -q -p no:cacheprovider
	@for workload in $(LIFEBENCH_WORKLOADS); do \
		$(PYTHON) lifebench/run.py --workload $$workload --seconds 1 \
			--trace 1 > lifebench-smoke-$$workload.log || exit 1; \
		tail -n 1 lifebench-smoke-$$workload.log | $(PYTHON) -c \
			'import json, sys; r = json.load(sys.stdin); m = r["metrics"]; \
			ok = r["correct"] and m["reward.mask_candidates"]["value"] > 0 \
			and m["policy.steps"]["value"] > 0; \
			print(sys.argv[1], "correct", r["correct"], \
			"mask_candidates", m["reward.mask_candidates"]["value"], \
			"policy.steps", m["policy.steps"]["value"]); \
			sys.exit(0 if ok else 1)' $$workload || exit 1; \
	done
