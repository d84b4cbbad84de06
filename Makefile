GO ?= go

.PHONY: all fmt vet build test stress bench bench-throughput bench-geom bench-geo-geodesic bench-smoke bench-fed bench-live bench-planner bench-chaos bench-store bench-record

all: fmt vet build test

# fmt fails when any file is not gofmt-clean (the CI tidiness gate:
# wire-type churn must not accumulate formatting drift).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# -shuffle=on randomizes test order so inter-test state dependencies
# cannot hide.
test:
	$(GO) test -race -shuffle=on ./...

# stress repeats the answer cache's concurrency suite under the race
# detector: concurrent misses on one key must coalesce into a single
# charged upstream fetch on every run, not most runs.
stress:
	$(GO) test -race -count=500 -run 'TestCacheConcurrent|Coalesc' ./internal/lbs

# bench runs the estimation-session benchmarks; the Parallelism pair
# measures the wall-clock payoff of WithParallelism(8) over a
# 1 ms-latency Oracle.
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkParallelism' -benchtime 3x .

# bench-throughput load-tests the lbsserve HTTP stack: 8 concurrent
# clients against one server, per-point GETs versus batched POSTs.
# The batch=32 row should show a multiple of the batch=1 queries/s.
bench-throughput:
	$(GO) test -run '^$$' -bench 'BenchmarkServeThroughput' -benchtime 2s ./internal/httpapi

# The benchmark suite table: one row per recorded suite NAME, giving
# the benchmark regexp (NAME_BENCH), the packages (NAME_PKGS) and the
# extra go test flags (NAME_FLAGS). $(call suite,NAME) runs a row;
# bench-NAME targets run one suite for reading, bench-record records
# every suite into BENCH_NAME.json.
SUITES = geom federation live planner chaos store

# geom: the geometry-engine suite — cell clipping, kd-tree search, the
# simulated oracle hot path, ground-truth diagram construction and one
# end-to-end estimator sample.
geom_BENCH = BenchmarkAddCut|BenchmarkReplaceCut|BenchmarkInsertSites|BenchmarkBuildTop|BenchmarkRandomPoint|BenchmarkSplit|BenchmarkEvalRange|BenchmarkKNN|BenchmarkBuild10k|BenchmarkCompute10k|BenchmarkQueryLR|BenchmarkLRSample|BenchmarkLRCellComputation
geom_PKGS = ./internal/geom ./internal/cell ./internal/kdtree ./internal/lbs ./internal/voronoi ./internal/core
geom_FLAGS = -benchmem

# federation: the scatter-gather query path at 1/2/4/8 in-process
# shards, serial and batched, with the effective fan-out reported per
# query.
federation_BENCH = BenchmarkFederatedQuery|BenchmarkFederatedBatch
federation_PKGS = ./internal/shard
federation_FLAGS = -benchmem

# live: the immutable Service read baseline, the live read path at
# 0%/1%/10% churn (mutations interleaved per query), and raw mutation
# throughput. The Churn0 row measures the clean-overlay fast path
# against the immutable baseline.
live_BENCH = BenchmarkImmutableQueryLR|BenchmarkLiveQueryLRChurn|BenchmarkLiveApply
live_PKGS = ./internal/live
live_FLAGS = -benchmem

# planner: batches of 1/4/16 aggregates sharing 4 selections, run to a
# fixed confidence target as one planned batch versus one independent
# run per aggregate. The queries/agg columns are the planner's sharing
# payoff (batch ≤ ~1/3 of independent at 16 aggregates); aggs=1 must
# match exactly, the bit-identity sanity check. The query counts are
# seed-deterministic, so one iteration is a measurement, not noise.
planner_BENCH = BenchmarkPlannerBatch|BenchmarkPlannerIndependent
planner_PKGS = ./internal/core
planner_FLAGS = -benchtime 1x

# chaos: a full LR COUNT estimation over a faulted 4-shard federation
# at each injected fault rate (0 = clean baseline), reporting
# estimation error, p50/p99 per-query latency and the router's
# retry/partial totals. Wall time is sleep-dominated (the injected
# latency), not CPU; seeds are fixed, so one iteration is a
# measurement.
chaos_BENCH = BenchmarkChaos
chaos_PKGS = ./internal/experiments
chaos_FLAGS = -benchtime 1x

# store: cold restart (re-parse the JSON export, rebuild the index from
# scratch) versus warm restart (paged scan of the .lbspack, O(n)
# preordered index rebuild) on the same 10k-tuple city — the warm row
# must come in well under the cold one (the acceptance floor is 5x) —
# plus a bounded-pool scan in the larger-than-RAM shape and the WAL
# append hot path.
store_BENCH = BenchmarkColdStartJSON10k|BenchmarkWarmStartPack10k|BenchmarkPackScanBoundedPool|BenchmarkWALAppend
store_PKGS = ./internal/store
store_FLAGS = -benchmem

suite = $(GO) test -run '^$$' -bench '$($(1)_BENCH)' $($(1)_FLAGS) $($(1)_PKGS)

bench-geom:
	$(call suite,geom)

bench-fed:
	$(call suite,federation)

bench-live:
	$(call suite,live)

bench-planner:
	$(call suite,planner)

bench-chaos:
	$(call suite,chaos)

bench-store:
	$(call suite,store)

# bench-geo-geodesic runs the geodesic twins once (kd-tree Haversine
# traversal, the geodesic oracle hot path, one geodesic LR estimator
# sample) — the CI smoke that keeps the Haversine path compiling and
# answering. The names also match geom_BENCH prefixes, so bench-record
# records them next to their Euclidean baselines.
bench-geo-geodesic:
	$(GO) test -run '^$$' -bench 'Geodesic' -benchtime 1x ./internal/kdtree ./internal/lbs ./internal/core

# record runs one suite and records it in BENCH_<name>.json (ns/op,
# B/op, allocs/op, custom metrics like queries/sample and q/s). An
# existing file's baseline block is preserved, so the numbers recorded
# at the start of the perf trajectory remain the reference; a new file
# self-primes on its first run. The bench output goes through a file,
# not a pipe, so a failing benchmark fails the target instead of being
# masked by the pipeline.
define record
$(call suite,$(1)) > bench_$(1).out
$(GO) run ./cmd/benchjson -o BENCH_$(1).json < bench_$(1).out
@rm -f bench_$(1).out

endef

# bench-record records every suite of the table.
bench-record:
	$(foreach s,$(SUITES),$(call record,$(s)))

# bench-smoke compiles and runs every benchmark once — the CI guard
# that keeps bench code from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
