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
	perfbench-check service-check experiments-check systems-check bench

## tier-1: every file under tests/ exactly once, then the gates that
## collect from benchmarks/ (chaos, wall-clock gates)
test: suite chaos-check perf-check

suite:
	$(PYTEST) -x -q

# The *-check targets from here to systems-check are developer
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
## induced oracle), the schedule cost-model pins, and census fusion
## (docs/performance.md, "Census fusion"): the fused census against
## the per-pattern oracle across backends, storage and a kill-resume,
## and its scheduler / fill tripwires, and lockstep machines
## (docs/performance.md, "Lockstep machines"): lockstep against one
## hosted run a machine and the process backend, aborted runs across
## backends, the abort golden, the census's kernel-call count
motif-check:
	$(PYTEST) tests/test_schedule.py tests/test_schedule_golden.py \
		tests/test_canonical.py tests/test_generation.py \
		tests/test_pattern_oracles.py tests/test_compile_once.py \
		tests/test_iep.py tests/test_fusion.py tests/test_lockstep.py -q

## kernel and resolve suite (docs/performance.md): what a change to
## core/kernels.py or to the scheduler's resolve / drain passes must
## hold — listing and counting kernels against the row-by-row
## references in tests/reference.py (compute_candidates, iep_count),
## the baselines' level-synchronous walk against the recursive
## explorer there (tests/test_explore.py), chunk layout and admission
## order, the cache and share-table oracles, one kernel call over
## several machines' chunks against one call a chunk (tests/test_lockstep.py), the
## distinct-vertex check on a step's own columns only
## (test_own_columns_by_step, test_own_columns_exact_in_every_regime,
## test_loop_free_flag, test_loop_free_steps_make_no_correction_probe),
## popcount totals (test_popcount_totals_each_row), one-list count
## windows by word ranks against the composite-key body in
## tests/reference.py (count_window) and np.searchsorted
## (test_count_window_matches_composite_keys,
## test_ranks_match_searchsorted_per_source,
## test_count_window_searches_no_keys_where_every_vertex_has_a_row), the
## plan's joined pairs in the correction's memo
## (test_chain5_correction_probes_one_column,
## test_joined_pairs_hold_one_way_on_an_oriented_graph, and every
## counted step _check_schedule holds to the reference), and the
## 150-run golden of simulated observables (never re-recorded in a PR
## that claims nothing simulated moved)
kernel-check:
	$(PYTEST) tests/test_kernels.py tests/test_chunk.py \
		tests/test_word_kernels.py tests/test_explore.py \
		tests/test_cache.py tests/test_hds.py \
		tests/test_iep.py tests/test_lockstep.py \
		tests/test_scheduler_golden.py -q

## the graph-build layer (docs/storage.md): the synthetic generators
## and their guide-table sampler against rng.choice and the per-pair
## oracles; the one edge-normalization path (the streaming builder,
## from_edge_array a batch of one) against the eager oracle and its
## input errors; store round-trip/corruption rejection, ram-vs-mmap
## bit-identity across backends, admission baseline; the derived-
## structure table (repro.graph.graph.DERIVED): a fresh section holds
## it, and one under another table version (DERIVED_VERSION, carried in
## derived_from), with none, or short of an array is rebuilt
storage-check:
	$(PYTEST) tests/test_generators.py tests/test_graph.py \
		tests/test_storage.py -q

## the query surface every GPM system shares (docs/architecture.md,
## "The query surface"): every system flavour's whole reports against
## the recorded golden (tests/data/systems_golden.json, the two ports
## also under the process backend), the one-definition tripwire and the
## orientation refusals, the baselines and their walk against the
## recursive explorer, Fractal against its ESU oracle, FSM on every
## system against brute-force MNI supports, and the chunk UDFs
systems-check:
	$(PYTEST) tests/test_systems_golden.py tests/test_systems.py \
		tests/test_baselines.py tests/test_explore.py \
		tests/test_fractal.py tests/test_fsm.py tests/test_udf.py -q

## wall-clock gates (benchmarks/bench_gates.py): inline and process
## agree, the CPU- and work-aware process-backend floor
## (docs/performance.md, "The process backend"), the mmap-over-ram
## storage ceiling (docs/storage.md), the IEP-over-enumerate census
## ratio and the resident service's amortization
perf-check:
	PYTHONPATH=src:. $(PYTHON) -m pytest $(TIMEOUT_FLAGS) \
		benchmarks/bench_gates.py -q

## the wall-clock benchmark's self-test (perfbench/README.md): every
## seam of the per-layer table still resolves, every count is pinned,
## the cross-workload invariants hold — a renamed entry point fails
## here instead of nulling a per-layer metric unnoticed (~1 min)
perfbench-check:
	$(PYTHON) -m pytest perfbench/ -q

## resident mining service (docs/service.md): the equivalence /
## admission / shutdown suite plus the amortization gate — one server
## answers a mixed 20-query trace bit-identically to one-shot runs and
## its service p50 beats the fastest one-shot wall-clock
service-check:
	PYTHONPATH=src:. $(PYTHON) -m pytest $(TIMEOUT_FLAGS) \
		tests/test_service.py benchmarks/bench_gates.py -m service -q

## paper-suite golden (tests/data/experiments_golden.json, recorded at
## scale 0.15): every row of all 19 experiments, Table 4 bit for bit,
## and the Fractal baseline's shapes, runtimes and TIMEOUTs; tier-1
## checks Table 4 and the Fractal state only (~30 s)
experiments-check:
	REPRO_GOLDEN_EXPERIMENTS=all $(PYTEST) tests/test_experiments_golden.py -q

## paper-figure benchmark suite (slow)
bench:
	PYTHONPATH=src:. $(PYTHON) -m pytest benchmarks -q
