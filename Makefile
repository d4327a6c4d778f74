# Convenience targets. Everything assumes the in-tree layout
# (PYTHONPATH=src); no installation required.

PYTHON ?= python

# Cap every test's wall-clock when pytest-timeout is available (CI
# installs it; a bare container may not have it — a hung worker-death
# test then still fails at the backend's own bounded timeouts, just
# later). The cap is generous: these are liveness bounds, not perf
# budgets.
TIMEOUT_FLAGS := $(shell $(PYTHON) -c "import pytest_timeout" 2>/dev/null && echo "--timeout=300 --timeout-method=thread")

PYTEST := PYTHONPATH=src $(PYTHON) -m pytest $(TIMEOUT_FLAGS)

.PHONY: test suite docs-check faults-check exec-check exec-faults-check \
	chaos-check motif-check kernel-check storage-check perf-check \
	perfbench-check perf-bench \
	perf-bench-motifs perf-bench-scale service-check service-bench bench

## tier-1: every file under tests/ exactly once, then the gates that
## collect from benchmarks/ (chaos, wall-clock perf, service load)
test: suite chaos-check perf-check service-bench

suite:
	$(PYTEST) -x -q

# The *-check targets from here to storage-check are developer
# shortcuts: each re-runs a subset `suite` already collected, so
# `make test` does not depend on them.

## fail if the observability surface and docs/metrics.md disagree
docs-check:
	$(PYTEST) tests/test_docs_contract.py -q

## fault-injection & chunk-granular recovery suite (docs/faults.md)
faults-check:
	$(PYTEST) -m faults -q

## execution-backend equivalence suite (docs/execution.md)
exec-check:
	$(PYTEST) -m exec -q

## worker-death liveness/recovery suite (docs/execution.md,
## "Real-process failure semantics") — kills real worker processes
exec-faults-check:
	$(PYTEST) -m exec_faults -q

## chaos suite: real SIGKILLs of workers and the whole parent against
## durable checkpoints — resumed/redistributed counts must match the
## clean oracle bit-identically (docs/faults.md, "Durability")
chaos-check:
	PYTHONPATH=src:. $(PYTHON) -m pytest $(TIMEOUT_FLAGS) \
		benchmarks/chaos.py -q

## pattern-compiler and IEP counting-plan suite (docs/performance.md,
## "Compilation" and "Inclusion–exclusion counting"): every chosen
## order, restriction set and counting plan against the recorded golden
## (tests/data/schedules_golden.json), the bitmask algebra and the
## order scorer against the bodies they replaced, the compile-once
## call-count tripwires; then plan compilation, bit-identity against
## the enumeration oracle across backends, the terminal kernel against
## its row-by-row reference, the 3/4/5-motif census (IEP route vs
## induced oracle), and the schedule cost-model pins
motif-check:
	$(PYTEST) tests/test_schedule.py tests/test_schedule_golden.py \
		tests/test_canonical.py tests/test_generation.py \
		tests/test_pattern_oracles.py tests/test_compile_once.py \
		tests/test_iep.py -q

## kernel and resolve suite (docs/performance.md): what a change to
## core/kernels.py or to the scheduler's resolve / drain passes must
## hold — listing and counting kernels against compute_candidates, the
## IEP kernel against iep_count, chunk layout and admission order, the
## cache and share-table oracles, and the 150-run golden of simulated
## observables (never re-recorded in a PR that claims nothing simulated
## moved)
kernel-check:
	$(PYTEST) tests/test_kernels.py tests/test_chunk.py \
		tests/test_word_kernels.py tests/test_cache.py tests/test_hds.py \
		tests/test_iep.py \
		tests/test_scheduler_golden.py -q

## out-of-core storage suite (docs/storage.md): streaming-vs-eager
## builder parity, store round-trip/corruption rejection, ram-vs-mmap
## bit-identity across backends, admission baseline
storage-check:
	$(PYTEST) tests/test_storage.py -q

## wall-clock perf gates: tiny-graph smoke (inline and process agree
## on counts and simulated seconds), the headline process-backend
## speedup gate with its CPU- and work-aware floor
## (docs/performance.md) and the storage scale-sweep smoke
## (mmap-over-ram wall ratio under its documented ceiling,
## docs/storage.md)
perf-check:
	PYTHONPATH=src:. $(PYTHON) -m pytest $(TIMEOUT_FLAGS) \
		benchmarks/bench_wallclock.py benchmarks/bench_scale.py -q

## the wall-clock benchmark's self-test (perfbench/README.md): every
## seam of the per-layer table still resolves, every count is pinned,
## the cross-workload invariants hold — a renamed entry point fails
## here instead of nulling a per-layer metric unnoticed (~1 min)
perfbench-check:
	$(PYTHON) -m pytest perfbench/ -q

## full inline-vs-process wall-clock sweep over the bundled datasets;
## writes .benchmarks/wallclock.json (BENCH_PR5/6.json are the frozen
## history of the sweep when it also timed a scalar EXTEND path)
perf-bench:
	PYTHONPATH=src:. $(PYTHON) benchmarks/bench_wallclock.py

## full motif-census sweep (IEP vs enumerate on k-GraphPi); writes
## .benchmarks/motifs.json — the 5-motif row is the >=3x
## IEP-over-enumerate headline (docs/performance.md,
## "Inclusion–exclusion counting"; BENCH_PR9.json is the frozen record
## of the sweep when the headline was set)
perf-bench-motifs:
	PYTHONPATH=src:. $(PYTHON) benchmarks/bench_wallclock.py \
		--motifs --out .benchmarks/motifs.json

## full 10x/30x/100x out-of-core storage scale sweep; writes
## .benchmarks/scale.json — every decade's graph exceeds the resident
## cap, counts are bit-identical ram-vs-mmap, and the gate holds the
## mmap-over-ram penalty flat across decades (docs/storage.md;
## BENCH_PR10.json is the frozen record of the last committed sweep)
perf-bench-scale:
	PYTHONPATH=src:. $(PYTHON) benchmarks/bench_scale.py \
		--out .benchmarks/scale.json --gate

## resident mining service: equivalence/admission/shutdown suite plus
## the latency/throughput load harness — one server answers a mixed
## 20-query trace bit-identically to one-shot runs and its amortized
## p50 must beat the fastest one-shot wall-clock; writes
## .benchmarks/service.json (docs/service.md; BENCH_PR8.json is the
## frozen record of the PR that added the service)
service-check: service-bench
	$(PYTEST) tests/test_service.py -q

## the load-harness half of service-check alone (what `make test` runs:
## tests/test_service.py is already part of `suite`)
service-bench:
	PYTHONPATH=src:. $(PYTHON) -m pytest $(TIMEOUT_FLAGS) \
		benchmarks/bench_service.py -q

## paper-figure benchmark suite (slow)
bench:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks -q
