GO ?= go

.PHONY: all fmt vet build test loc examples stress fuzz bench bench-throughput bench-geom bench-geo-geodesic bench-smoke bench-fed bench-live bench-planner bench-chaos bench-store bench-record

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

# loc prints the line count a simplicity change reports: non-test Go
# under cmd/ and internal/, then the lbsagg.go facade, then their sum.
loc:
	@a=$$(find cmd internal -name '*.go' ! -name '*_test.go' | xargs cat | wc -l); \
	b=$$(wc -l < lbsagg.go); \
	echo "cmd/ + internal/ non-test Go: $$a"; \
	echo "lbsagg.go: $$b"; \
	echo "total: $$((a + b))"

# examples runs the example programs end to end (go build only
# compiles them): quickstart, wechat, starbucks and jobs, about 5 s on
# 2 cores. localization is left out; it takes about a minute.
EXAMPLES = quickstart wechat starbucks jobs

examples:
	@for e in $(EXAMPLES); do \
		echo "== examples/$$e"; \
		$(GO) run ./examples/$$e || exit 1; \
	done

# stress repeats the answer cache's concurrency suite under the race
# detector: concurrent misses on one key must coalesce into a single
# charged upstream fetch on every run, not most runs. The second line
# race-checks the LNR cell search's lockstep lanes (coroutines sharing
# one cell), their batched-versus-serial identity and the bisector
# flips that run as lanes. The third checks
# that concurrent batch answers never share a pooled response buffer.
# The fourth race-checks the federation router, whose in-process
# members run on the callers' goroutines: concurrent batches against
# one budget, concurrent degraded batches, and bit identity with a
# single service (about 55 s on 2 cores). The fifth race-checks the
# router's member-call deadline path, its retries under transient
# faults and its breaker recovery (about 25 s; these tests sleep
# through deadlines and cooldowns, hence the lower count). The sixth
# race-checks the LR estimator's pooled scratch sets and its answer
# ownership: a reader walks the cached answers while the estimator
# runs, and concurrent parallel LR jobs over one cache must match
# serial reruns bit for bit (about 15 s). The seventh race-checks the
# per-job budget scopes, which reserve through the shared Meter:
# concurrent scope queries against one cap. The eighth race-checks the
# sampler's one-sample reservations: parallel NNO workers against a
# capped budget, and four cached parallel workers that must draw
# exactly the sample cap between them. The ninth race-checks a
# parallel job through QueryPlan.Execute's one sample stream, which
# must draw exactly its 8-sample cap. The tenth race-checks a fused
# plan sampled by four parallel estimator forks, and that a parallel
# run calls an aggregate's Value only on the goroutine that folds the
# samples, never from a worker: a Value that bumps an unguarded
# counter must not race (about 15 s). The eleventh race-checks the
# live overlay: readers bracketing queries by epoch against a writer
# and background compaction, a live cluster under concurrent queries
# and mutations, and the per-op equivalence across tail folds and
# compaction (about 45 s). The twelfth race-checks the answer cache
# over a live database: four readers against one writer, where a read
# that starts after a mutation's invalidation hook returned must see
# that mutation (about 20 s); then the per-Apply freshness check over
# live databases and clusters (about 10 s); then the randomized check
# of grid invalidation against a list walk applying the reach
# predicate to every entry (about 25 s). Both of those are seeded and
# single-goroutine, so they run fewer times. The last line race-checks
# the partitioner, which builds its shard databases concurrently:
# its output must equal the sort-every-level reference bit for bit
# (about 15 s).
stress:
	$(GO) test -race -count=500 -run 'TestCacheConcurrent|Coalesc' ./internal/lbs
	$(GO) test -race -count=50 -run 'TestLNRBatchedProbesIdentitySmall|TestLNRProberLockstepOrder|TestLNRBatchedCancelJoinsLanes|TestLNRVertexRoundFlipRingsShareBatch' ./internal/core
	$(GO) test -race -count=50 -run 'TestAnswerEncodingConcurrent' ./internal/httpapi
	$(GO) test -race -count=50 -run '^(TestConcurrentFederatedBatchesShareBudget|TestConcurrentDegradedBatchesMeterExactly|TestFederatedEquivalence)$$' ./internal/shard
	$(GO) test -race -count=20 -run '^(TestShardTimeoutBoundsWedgedMember|TestDeadlineBoundsUnmarkedMemberIgnoringContext|TestFederatedBitIdenticalUnderTransients|TestAllBreakersOpenRecovers)$$' ./internal/shard
	$(GO) test -race -count=20 -run '^(TestLRQueryDoesNotMutateCachedAnswers|TestLRParallelJobsShareCache)$$' ./internal/core
	$(GO) test -race -count=50 -run '^TestScopedQuerier' ./internal/lbs
	$(GO) test -race -count=50 -run '^(TestNNOBatchRespectsBudget|TestCachedBatchedParallelRun)$$' ./internal/core
	$(GO) test -race -count=20 -run '^TestJobViewCarriesPlan$$' ./internal/jobs
	$(GO) test -race -count=50 -run '^(TestExecuteParallelFusedGroup|TestParallelValueOnCollector)$$' ./internal/core
	$(GO) test -race -count=20 -run '^(TestLiveEpochConsistency|TestLiveClusterConcurrentSmoke|TestLiveFoldEquivalence)$$' ./internal/live
	$(GO) test -race -count=50 -run '^TestCacheFreshConcurrentReaders$$' ./internal/live
	$(GO) test -race -count=5 -run '^TestCacheFreshAfterEveryApply$$' ./internal/live
	$(GO) test -race -count=50 -run '^TestCacheInvalidateMatchesListWalk$$' ./internal/lbs
	$(GO) test -race -count=20 -run '^TestPartitionMatchesReference$$' ./internal/shard

# fuzz runs every fuzz target for 10 s: the untrusted wire decoders
# (query string, batch body, NDJSON ingest stream, estimate spec), the
# appended query answers (byte-identical to encoding/json), the
# store's record codec, whole .lbspack files as a warm restart opens
# them, the WAL as a restart replays it beside a pack, a stored job
# file as a restart recovers the job table from it, the answer
# cache's snapshot reader, and the answer cache over a live database
# (fuzzed reads and mutations; every cached answer must stay fresh).
# go test fuzzes one
# target per run, hence the loop over package:target pairs. Each new
# interesting input is minimized for at most 100 runs, not the default
# 60 s: FuzzPackOpen's 64 KiB-page seeds are 128 KiB inputs, and
# minimizing one at the default would spend the whole 10 s slot.
FUZZ_TARGETS = ./internal/httpapi:FuzzParseQuery ./internal/httpapi:FuzzParseBatch \
	./internal/httpapi:FuzzIngestStream ./internal/httpapi:FuzzEstimateSpec \
	./internal/httpapi:FuzzAnswerEncoding ./internal/store:FuzzRecordDecode \
	./internal/store:FuzzPackOpen ./internal/store:FuzzWALReplay \
	./internal/store:FuzzJobStoreRecover ./internal/lbs:FuzzCacheSnapshot \
	./internal/live:FuzzCacheInvalidate

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $${t#*:}"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime=10s -fuzzminimizetime=100x $${t%%:*} || exit 1; \
	done

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
# simulated oracle hot path, ground-truth diagram construction, one
# end-to-end estimator sample, the estimate-lr job mix in process
# (BenchmarkLRJob: ms/job and queries/job) and LR's CPU per query as
# the query budget grows from 600 to 60 000 (BenchmarkLRBudget:
# ns/query).
geom_BENCH = BenchmarkAddCut|BenchmarkReplaceCut|BenchmarkInsertSites|BenchmarkBuildTop|BenchmarkRandomPoint|BenchmarkSplit|BenchmarkEvalRange|BenchmarkKNN|BenchmarkBuild10k|BenchmarkCompute10k|BenchmarkQueryLR|BenchmarkLRSample|BenchmarkLRCellComputation|BenchmarkLRJob|BenchmarkLRBudget
geom_PKGS = ./internal/geom ./internal/cell ./internal/kdtree ./internal/lbs ./internal/voronoi ./internal/core ./internal/jobs
geom_FLAGS = -benchmem

# federation: the scatter-gather query path at 1/2/4/8 in-process
# shards, serial and batched, with the effective fan-out reported per
# query, and cutting the 50k-tuple schools database into 4 shards
# (BenchmarkPartition: ms/op, allocs/op).
federation_BENCH = BenchmarkFederatedQuery|BenchmarkFederatedBatch|BenchmarkPartition
federation_PKGS = ./internal/shard
federation_FLAGS = -benchmem

# live: the immutable Service read baseline, the live read path at
# 0%/1%/10% churn (mutations interleaved per query), reads alone over
# a fixed dirty overlay of 500 churn ops (Dirty), raw mutation
# throughput, and single moves over that overlay (ApplyMove). The
# Churn0 row measures the clean-overlay fast path against the
# immutable baseline.
live_BENCH = BenchmarkImmutableQueryLR|BenchmarkLiveQueryLRChurn|BenchmarkLiveQueryLRDirty|BenchmarkLiveApply
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
# scratch) versus warm restart (one scan of the .lbspack, O(n)
# preordered index rebuild) on the same 10k-tuple city — the warm row
# must come in well under the cold one (the acceptance floor is 5x) —
# plus the WAL append hot path.
store_BENCH = BenchmarkColdStartJSON10k|BenchmarkWarmStartPack10k|BenchmarkWALAppend
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
# masked by the pipeline. Each report is stamped with the commit it
# measured when git can tell (empty outside a git checkout), marked
# +dirty when the tree had uncommitted changes.
COMMIT = $(shell git rev-parse --short HEAD 2>/dev/null)$(shell git status --porcelain 2>/dev/null | grep -q . && echo +dirty)

define record
$(call suite,$(1)) > bench_$(1).out
$(GO) run ./cmd/benchjson -o BENCH_$(1).json -commit '$(COMMIT)' < bench_$(1).out
@rm -f bench_$(1).out

endef

# bench-record records every suite of the table.
bench-record:
	$(foreach s,$(SUITES),$(call record,$(s)))

# bench-smoke compiles and runs every benchmark once — the CI guard
# that keeps bench code from rotting.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
