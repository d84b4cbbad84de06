// Package lbsagg is the public API of this library: aggregate
// estimation over location based services with restrictive kNN query
// interfaces, reproducing "Aggregate Estimations over Location Based
// Services" (Liu, Rahman, Thirumuruganathan, Zhang, Das; PVLDB 8(10),
// 2015).
//
// # Overview
//
// A location based service hides a database of located tuples behind
// a query interface that only answers "what are the k tuples nearest
// this point?". This library estimates SUM/COUNT/AVG aggregates over
// such hidden databases by querying that interface alone:
//
//   - NewLRAggregator — Algorithm LR-LBS-AGG, for interfaces that
//     return tuple locations (Google-Maps-like). Completely unbiased;
//     weights each sampled tuple by the exactly computed mass of its
//     top-k Voronoi cell.
//   - NewLNRAggregator — Algorithm LNR-LBS-AGG, for interfaces that
//     return only a ranked list of tuple IDs (WeChat-like). Infers
//     Voronoi cells from rank flips via binary search, with bias
//     bounded by Theorem 2 and tunable via EdgeEps; can also infer a
//     tuple's position to arbitrary precision (Localize).
//   - NewNNOBaseline — the prior-art LR-LBS-NNO estimator (Dalvi et
//     al., KDD 2011), provided as the evaluation baseline. It is
//     biased, so it runs in process only: it is not a job method.
//
// # Estimation sessions (API v3)
//
// All three algorithms implement the Estimator interface — a source
// of i.i.d. point samples — and execute through one shared,
// context-aware run driver. A run is configured with functional
// options instead of positional limits:
//
//   - WithMaxSamples(n) / WithMaxQueries(n) — hard budget bounds;
//   - WithTargetCI(rel) — stop once the 95 % confidence half-width of
//     every aggregate falls below rel × |estimate|;
//   - WithProgress(fn) — stream a TracePoint per aggregate after every
//     completed sample;
//   - WithParallelism(n) — draw samples from n concurrent workers
//     (independent estimator forks) folded into one set of running
//     means; against a latency-bound remote service the wall-clock
//     time shrinks almost linearly in n.
//
// Every query path takes a context.Context: canceling it stops the
// run gracefully and returns the Results of the samples completed so
// far, and remote adapters cancel their in-flight HTTP requests.
//
// Runs return Results with Bessel-corrected standard errors,
// confidence intervals and full estimate-versus-cost traces.
//
// # Declarative aggregates (API v3)
//
// Aggregates are declarative specs: a small JSON-serializable
// predicate AST — AttrCmp, TagEq, InRect, combined with And/Or/Not —
// plus aggregate specs built from CountSpec, SumSpec(attr) and
// AvgSpec(attr), each optionally restricted with WithWhere. A COUNT or
// SUM spec compiles once (AggSpec.Compile) into the Aggregate an
// estimator's Run executes, so the declarative layer costs nothing per
// sample:
//
//	spec := lbsagg.CountSpec().WithWhere(lbsagg.AttrCmp("rating", lbsagg.CmpGE, 4))
//	count, err := spec.Compile()
//	res, err := agg.Run(ctx, []lbsagg.Aggregate{count}, lbsagg.WithMaxQueries(5000))
//
// AVG is SUM/COUNT (§1.3): PlanBatch expands an AvgSpec into the pair
// and finishes it, or run the two halves and combine them with
// RatioOf.
//
// Because specs are plain data, the same aggregate request can travel
// over the wire — which is what makes estimation jobs possible.
//
// # Multi-aggregate query planner (API v4)
//
// Real analytics front ends ask many aggregates at once, and answering
// each from its own sample stream multiplies the query cost by the
// batch size. PlanBatch compiles a whole spec list into a QueryPlan —
// a streaming operator graph that shares work across the batch:
//
//   - predicates are canonicalized (and/or reordering folds away) and
//     deduped, so each distinct selection compiles once into one
//     closure that every aggregate over it shares;
//   - COUNT/SUM/AVG over the same selection fuse into shared physical
//     aggregates (an AVG rides the same SUM and COUNT as its siblings);
//   - every spec reads every sample of one stream, run by the forced
//     method or else LR (under LNR, a batch with a location-reading
//     selection localizes each sample once, §4.3).
//
// Typical use:
//
//	plan, err := lbsagg.PlanBatch(specs, lbsagg.PlanOptions{
//		Seed: 42, MaxQueries: 5000, TargetCI: 0.05,
//	})
//	br, err := plan.Execute(ctx, svc, nil)   // br.Results per spec
//
// Under a fixed seed the planned estimates are bit-identical to
// running each spec independently — sharing changes the cost, never
// the numbers (pinned by the equivalence suite). A batch
// of 16 aggregates over 4 selections reaches the same confidence
// target for less than a third of the independent-run query cost (see
// BENCH_planner.json).
//
// # Estimation jobs (API v3)
//
// An HTTP server (NewHTTPServer) is a full estimation service, not
// just a raw oracle: POST /v1/estimate submits a declarative job —
// method (auto | lr | lnr), per-job RNG seed, aggregate specs, run
// options — that runs server-side with its own budget scope while all
// jobs share the service's budget and cache. GET /v1/jobs/{id}
// reports status and partial results, GET /v1/jobs/{id}/trace streams
// the estimate-versus-cost trace as NDJSON, DELETE /v1/jobs/{id}
// cancels and returns the partial results of the samples completed so
// far, and GET /v1/stats exposes live query/budget/cache/job
// counters. The HTTP client drives jobs remotely (Estimate, Job,
// WaitJob, FollowJobTrace, CancelJob) and retries transient
// failures — 5xx and genuine rate-limit 429s, never a spent budget —
// with jittered exponential backoff: three tries in all, waits
// doubling from 100 ms up to 2 s.
//
// # Batch queries and answer caching
//
// The paper's cost model makes the kNN interface — not computation —
// the scarce resource, so the access layer spends it carefully:
//
//   - Batching. Every oracle answers multi-point batches
//     (QueryLRBatch/QueryLNRBatch): the simulator charges a batch
//     under one atomic budget reservation, and the HTTP adapter ships a batch as one POST
//     (/v1/query/lr:batch) instead of one GET per point. Answers are
//     index-aligned with the points; when the budget dies mid-batch,
//     the covered prefix is answered (nil marks the rest) alongside
//     ErrBudgetExhausted. Each answered point still costs one query —
//     batching buys round-trips, never budget.
//
//   - Caching. A StackSpec with CacheSize set layers a concurrent
//     sharded LRU over its backend, keyed by (point, k). It records
//     LR answers only: an LNR query is the LR answer at its point with
//     the locations withheld, so one entry answers both views. Hits
//     replay recorded answers without consuming budget; the /v1/stats
//     cache section (CacheStats) counts hits, misses and evictions for
//     cost accounting. Caching models client-side memoization of answers
//     already paid for — it does not change the simulated service
//     contract, and estimates over a cached stack are identical to
//     uncached runs, just cheaper on workloads that repeat query
//     points. Queries carrying a functional filter bypass the cache,
//     so a cache shared by differently filtered callers can never
//     replay a wrong answer.
//
// # Scaling out: sharded federation
//
// One simulator (or one upstream) eventually saturates; the federation
// layer scales the oracle horizontally while keeping every estimator,
// cache, scope and job unchanged. A StackSpec — the serving stack that
// lbsserve's flags describe — composes it over an in-memory database:
//
//	st, err := lbsagg.StackSpec{K: 5, Shards: 4}.Build(ctx, db)
//	agg := lbsagg.NewLRAggregator(st.Querier, lbsagg.DefaultLROptions(42))
//
// Build splits db into Shards disjoint spatial shards by recursive
// longest-axis median splits (regions tile the bounds and carry
// balanced tuple counts) and puts one in-process service per shard
// behind a router with the production failure handling: per-member
// deadlines, bounded retry of transient errors and per-member circuit
// breakers. A fault spec (lbsserve's -fault-spec syntax) gives each
// member its own fault injector, so the router's retries and breakers
// absorb the faults; CacheSize puts an answer cache in front. With a nil
// database, Build takes the data from Scenario, Dataset, DataDir or
// Upstream — the last federates running lbsserve shards over HTTP.
//
// The router implements Querier via two-phase scatter-gather: the
// shard owning the query point answers first, its k-th-neighbor
// distance bounds the ball a better candidate could hide in, only
// shards intersecting that ball are fanned out to, and the merged
// candidates are re-ranked by the service ordering contract
// (distance ties break on tuple ID). Federated answers are
// bit-identical to a single Service over the union database — pinned
// by property tests — so estimates, costs and seeds reproduce exactly
// across 1, 2, 4, 8, ... shards. The router owns the logical cost
// model (budget, QueryCount = client-visible queries);
// per-shard physical counters aggregate through its Stats()
// (ShardRouterStats), which GET /v1/stats exposes as the federation
// section. A member that fails is routed around: the surviving
// members' answer comes back with a PartialAnswerError
// (IsPartialAnswer), ErrOwnerDown reports a down member owning the
// query point, and NewTolerantQuerier absorbs the annotations for
// estimation layers.
//
// # Live databases
//
// A StackSpec with Live set serves a mutable view of its database:
// Stack.Mutator applies inserts, deletes and moves (Apply) while
// queries keep running — readers never block, each query resolves one
// immutable snapshot, and a background rebuild folds accumulated
// changes into a fresh spatial index once the overlay outgrows
// CompactThreshold. Every applied mutation advances the database
// epoch (LiveResult). Answers over a live database with no pending
// mutations are bit-identical to a Service over the same tuples, so
// estimates and seeds reproduce exactly across the immutable/live
// boundary.
//
// With Shards too, N live shards sit behind the router and mutations
// route to the shard owning the location (cross-shard moves re-home
// the tuple); with CacheSize, mutations invalidate exactly the dirtied
// region of the answer cache; with DataDir, a write-ahead log journals
// them and a restart resumes warm. The HTTP server exposes any Mutator
// as POST /v1/tuples:stream — an NDJSON stream of ops acked one by one
// with the epoch at which each became visible (HTTPClient.StreamTuples
// drives it).
//
// # Bring your own service
//
// The estimators run against the Oracle interface, which this library
// implements both as an in-process simulator (NewService over a
// NewDatabase) faithful to real interface constraints — top-k caps,
// maximum coverage radii, query budgets, server-side filters,
// location obfuscation and prominence ranking — and as an HTTP client
// adapter (NewHTTPClient). To target a real LBS, implement a thin
// adapter that forwards QueryLR/QueryLNR to the provider's API and
// construct the estimators over it; honor the context so runs stay
// cancellable. Adapters may additionally implement BatchOracle (which
// is Querier, the Oracle methods plus the batch ones) to answer the
// estimators' independent probe sets (NNO's Monte-Carlo probes, LNR's
// lockstep cell searches) in one round-trip per set.
//
// # Quick start
//
//	db := lbsagg.NewDatabase(bounds, tuples)
//	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 10})
//	plan, err := lbsagg.PlanBatch([]lbsagg.AggSpec{
//		lbsagg.CountSpec(),
//		lbsagg.AvgSpec("rating"),
//	}, lbsagg.PlanOptions{Seed: 42, MaxQueries: 5000, Parallelism: 8})
//	br, err := plan.Execute(ctx, svc, nil)   // br.Results[i] answers spec i
//
// See examples/ for complete programs and internal/experiments for
// the reproduction of every figure and table of the paper.
//
// # MIGRATION from the v1/v2 APIs
//
// v2 threads context.Context through the whole query path and moves
// run limits into options. Old → new call sites:
//
//	agg.Run(aggs, maxSamples, maxQueries)
//	  → agg.Run(ctx, aggs, lbsagg.WithMaxSamples(maxSamples),
//	        lbsagg.WithMaxQueries(maxQueries))
//	svc.QueryLR(q, filter)      → svc.QueryLR(ctx, q, filter)
//	svc.QueryLNR(q, filter)     → svc.QueryLNR(ctx, q, filter)
//	agg.Step(aggs)              → agg.Step(ctx, needLoc)
//	agg.Localize(id, anchor)    → agg.Localize(ctx, id, anchor)
//	NewHTTPClient(url, sel, hc) → NewHTTPClient(ctx, url, sel, hc)
//
// Removed: the closure constructors (Count, CountWhere, SumAttr, ...),
// CompilePlan/AggPlan and Driver — use AggSpec.Compile, PlanBatch, Run.
// Removed: NewResilientShardRouter and NewShardedServiceWrapped, and
// then every constructor a StackSpec expresses — NewCachedOracle,
// CachedOracle, CacheOptions, PartitionDatabase, NewShardedService,
// NewShardRouter, Shard, ShardRouter, DefaultResilience, Resilience,
// NewFaultInjector, FaultInjector, FaultSpec, ParseFaultSpec,
// NewLiveDatabase, NewLiveCluster, LiveDatabase, LiveCluster,
// LiveOptions, OpenStore, Store, StoreOptions and StoreRecovery — use
// StackSpec{...}.Build(ctx, db).
// Removed, as nothing set or called them: the virtual-clock rate
// limiter (lbs.RateLimiter, ServiceOptions.Limiter, VirtualWaited,
// VirtualDuration), ServiceOptions.ProminenceOverfetch (fixed at 4),
// CacheOptions.Selection and TrustFilter (filtered queries always
// bypass the cache), LiveOptions.InvalidationRadius, the LR tuning
// fields UseK, FastInitFactor, MCAreaRatio, MCMinRounds, MCMaxTrials,
// LowerBoundSamples and MaxRounds and the LNR guards MaxCutsPerCell
// and MaxRoundsPerCell (now constants), ResetQueryCount,
// TolerantQuerier.DroppedCount, the router's NumShards, and the
// k-d tree's KNNWithin, WithinRadius, WithinRadiusInto, geodesic
// radius search and NearestDist. Options.Normalized is now Validate.
// Removed: WithBatch, which grouped m whole samples into one
// estimator call without changing the queries they cost; a run draws
// one sample per step, and the estimators' probe sets still batch
// through BatchOracle.
// Removed: the plan's method groups — their type, their post-run
// reports and the budget re-plan log with its per-group allocations —
// and the rank-only and checkpoint-grain plan options. A plan is one
// sample stream that every spec reads: QueryPlan carries its Method,
// Seed and fused Aggs, and BatchResult its account.
// Removed: the .lbspack buffer pool, which no read ever hit — the
// poolPages argument of OpenPackedDatabase and the pool_hits,
// pool_misses and pool_evictions keys of StoreStats. A pack is read
// once, front to back, into the in-memory index.
// Removed, as only tests set them: the HTTP client's retry policy (a
// request is tried three times, 100 ms–2 s apart) and NNOOptions'
// probe count, initial box scale and doubling cap (fixed at 30, 2 and
// 16).
//
// NewHTTPClient now returns the concrete *HTTPClient (still an
// Oracle), exposing the job methods; and NewHTTPServer returns the
// concrete *HTTPServer (still an http.Handler), exposing the job
// manager for graceful shutdown.
//
// Step now returns one sample's weighted records (a Sample, whose
// Value(agg) is the old per-aggregate value) and takes needLoc in
// place of the aggregates; Run folds every aggregate over each sample.
//
// Custom Oracle implementations must add the ctx parameter to both
// query methods; custom estimators implement Estimator (Step, Service,
// Fork) and run through Run.
package lbsagg

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/httpapi"
	"repro/internal/jobs"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/sampling"
	"repro/internal/shard"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/workload"
)

// Geometry primitives.
type (
	// Point is a location on the Euclidean plane.
	Point = geom.Point
	// Rect is an axis-aligned bounding rectangle.
	Rect = geom.Rect
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// NewRect constructs a Rect from two opposite corners.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// Service-side types (the simulated LBS).
type (
	// Tuple is one hidden-database row.
	Tuple = lbs.Tuple
	// Database is an immutable indexed tuple collection.
	Database = lbs.Database
	// Service is a kNN query interface over a database.
	Service = lbs.Service
	// ServiceOptions configures a service view (top-k, coverage
	// radius, budget, ranking, ...).
	ServiceOptions = lbs.Options
	// Obfuscation distorts the locations a service ranks by.
	Obfuscation = lbs.Obfuscation
	// Filter is a server-side selection condition (pass-through).
	Filter = lbs.Filter
	// LRRecord is a location-returned result row.
	LRRecord = lbs.LRRecord
	// LNRRecord is a rank-only result row.
	LNRRecord = lbs.LNRRecord
)

// ErrBudgetExhausted is returned once a service's query budget is
// spent.
var ErrBudgetExhausted = lbs.ErrBudgetExhausted

// NewDatabase builds a database over tuples within bounds.
func NewDatabase(bounds Rect, tuples []Tuple) *Database {
	return lbs.NewDatabase(bounds, tuples)
}

// NewObfuscatedDatabase builds a database whose ranking locations are
// obfuscated (the WeChat model).
func NewObfuscatedDatabase(bounds Rect, tuples []Tuple, obf Obfuscation) *Database {
	return lbs.NewObfuscatedDatabase(bounds, tuples, obf)
}

// NewService creates a kNN service view over a database.
func NewService(db *Database, opts ServiceOptions) *Service {
	return lbs.NewService(db, opts)
}

// CategoryFilter matches tuples of a category; NameFilter matches a
// name (server-side selection pass-through).
func CategoryFilter(category string) Filter { return lbs.CategoryFilter(category) }

// NameFilter matches tuples with the given name.
func NameFilter(name string) Filter { return lbs.NameFilter(name) }

// Oracle is the query surface estimators run against; *Service
// implements it, and so does the HTTP client adapter.
type Oracle = core.Oracle

// BatchOracle is Querier under the name estimator code knows it by: an
// Oracle with a native multi-point query path. *Service, every built
// Stack's Querier and the HTTP client implement it.
type BatchOracle = Querier

// Querier is the full service-side query surface (point + batch
// queries); the simulator and every built Stack satisfy it.
type Querier = lbs.Querier

// Serving stacks (see the package overview).
type (
	// StackSpec describes a serving stack: each field is the lbsserve
	// flag of the same name. Build(ctx, db) composes it over db, or over
	// the data its fields name when db is nil.
	StackSpec = stack.Spec
	// Stack is a built StackSpec: the Querier to run against, the
	// Mutator of a live stack, and Close for a DataDir checkpoint.
	Stack = stack.Stack
)

// The stats sections a built stack reports in GET /v1/stats.
type (
	// CacheStats snapshots hit/miss/eviction counters.
	CacheStats = lbs.CacheStats
	// ShardRouterStats snapshots federation cost accounting: logical
	// vs upstream query counts and the per-shard breakdown.
	ShardRouterStats = shard.RouterStats
	// ShardStat is one member's slice of ShardRouterStats.
	ShardStat = shard.ShardStat
)

// Fault-tolerance types (see README "Operating under failure").
type (
	// BreakerState is a member's circuit-breaker state (closed / open
	// / half-open), reported in ShardStat and /v1/stats.
	BreakerState = shard.BreakerState
	// PartialAnswerError annotates a usable answer drawn from a
	// partial federation (a member down or routed around): Degraded
	// counts degraded answers, Dropped lost batch positions, Missing
	// skipped members. It travels alongside records, not instead of
	// them.
	PartialAnswerError = lbs.PartialError
	// TolerantQuerier absorbs partial-answer annotations from a
	// wrapped Querier so estimation layers see clean answers while the
	// degraded counters still accumulate.
	TolerantQuerier = lbs.TolerantQuerier
	// FaultStats snapshots the fault injectors' counters.
	FaultStats = faults.Stats
)

// Circuit-breaker states.
const (
	BreakerClosed   = shard.BreakerClosed
	BreakerOpen     = shard.BreakerOpen
	BreakerHalfOpen = shard.BreakerHalfOpen
)

// Typed federation failures.
var (
	// ErrOwnerDown reports that the member owning the query point is
	// unavailable — the one failure scatter-gather cannot degrade
	// around (match with errors.Is; the concrete error also carries
	// the shard index).
	ErrOwnerDown = shard.ErrOwnerDown
	// ErrNoShards reports that every member's breaker is open.
	ErrNoShards = shard.ErrNoShards
	// ErrShardTimeout reports a member call exceeding the router's
	// per-member deadline.
	ErrShardTimeout = shard.ErrShardTimeout
)

// NewTolerantQuerier wraps inner so partial-answer annotations are
// absorbed (counted, not surfaced) — what the job manager installs
// over a resilient federation.
func NewTolerantQuerier(inner Querier) *TolerantQuerier {
	return lbs.NewTolerantQuerier(inner)
}

// IsPartialAnswer reports whether err is (or wraps) a partial-answer
// annotation, returning it when so. The records returned alongside
// the error are valid — degraded, not wrong.
func IsPartialAnswer(err error) (*PartialAnswerError, bool) { return lbs.AsPartial(err) }

// Live-database types (mutable backends; see the package overview).
type (
	// LiveOp is one mutation (insert, delete or move).
	LiveOp = live.Op
	// LiveOpKind discriminates LiveOp.
	LiveOpKind = live.OpKind
	// LiveResult is the per-op outcome of a Mutator.Apply call: the
	// epoch after the op, or the rejection error.
	LiveResult = live.Result
	// LiveStats snapshots a live database's mutation counters.
	LiveStats = live.Stats
	// Mutator is the mutation surface (a live Stack's Mutator, or a
	// custom implementation behind the HTTP ingest endpoint).
	Mutator = live.Mutator
)

// Mutation op kinds.
const (
	LiveOpInsert = live.OpInsert
	LiveOpDelete = live.OpDelete
	LiveOpMove   = live.OpMove
)

// Mutation rejection errors.
var (
	// ErrLiveUnknownID rejects a delete/move of an ID not in the
	// database.
	ErrLiveUnknownID = live.ErrUnknownID
	// ErrLiveDuplicateID rejects an insert of an ID already present.
	ErrLiveDuplicateID = live.ErrDuplicateID
	// ErrLiveOutOfRegion rejects an insert/move landing outside every
	// shard region (or the database bounds).
	ErrLiveOutOfRegion = live.ErrOutOfRegion
	// ErrLiveNonFinite rejects an insert/move to a location with a NaN
	// or infinite coordinate.
	ErrLiveNonFinite = live.ErrNonFinite
)

// HTTPSelection is the declarative server-side filter of the HTTP
// wire protocol.
type HTTPSelection = httpapi.Selection

// HTTP service types (estimation as a service).
type (
	// HTTPServer serves the full estimation service: raw oracle
	// endpoints, batch queries, estimation jobs and live stats.
	HTTPServer = httpapi.Server
	// HTTPServerOptions configures the optional server subsystems.
	HTTPServerOptions = httpapi.ServerOptions
	// HTTPClient is the remote Oracle and estimation-job client.
	HTTPClient = httpapi.Client
)

// NewHTTPServer exposes a service backend over HTTP (see cmd/lbsserve
// for a runnable server). Any Querier serves: the raw simulator or a
// built Stack's Querier. The returned server is an http.Handler; its
// Jobs() manager runs /v1/estimate jobs.
func NewHTTPServer(svc Querier) *HTTPServer { return httpapi.NewServer(svc) }

// NewHTTPServerWith is NewHTTPServer with explicit options (job
// retention cap, default per-job query budget).
func NewHTTPServerWith(svc Querier, opts HTTPServerOptions) *HTTPServer {
	return httpapi.NewServerWith(svc, opts)
}

// NewHTTPClient connects to an HTTP-exposed service and returns a
// client the estimators can run against (it implements Oracle and
// BatchOracle, which is Querier) — the template for adapting real
// provider APIs — and that drives server-side estimation jobs
// (Estimate, Job, WaitJob, FollowJobTrace, CancelJob). The construction-time metadata probe
// honors ctx; queries issued later carry the per-run context.
func NewHTTPClient(ctx context.Context, baseURL string, sel HTTPSelection, hc *http.Client) (*HTTPClient, error) {
	return httpapi.NewClient(ctx, baseURL, sel, hc)
}

// Estimation-job types (the declarative request/response surface of
// POST /v1/estimate; see the package overview).
type (
	// JobSpec is a declarative estimation request: method, seed,
	// aggregate specs and run options.
	JobSpec = jobs.Spec
	// JobRunOptions are the wire form of the run options.
	JobRunOptions = jobs.RunOptions
	// JobView is a snapshot of a job: state, partial or final results.
	JobView = jobs.View
	// JobState is a job lifecycle phase (running, done, canceled,
	// failed).
	JobState = jobs.State
	// JobResult is the wire form of one aggregate's result.
	JobResult = jobs.ResultView
	// JobTraceEvent is one NDJSON line of a job's trace stream.
	JobTraceEvent = jobs.TraceEvent
	// JobManager creates, observes and cancels server-side jobs.
	JobManager = jobs.Manager
)

// Job method and state names. JobMethodAuto runs LR; the same names
// configure PlanOptions.Method for in-process batches.
const (
	JobMethodAuto = jobs.MethodAuto
	JobMethodLR   = jobs.MethodLR
	JobMethodLNR  = jobs.MethodLNR

	JobRunning  = jobs.StateRunning
	JobDone     = jobs.StateDone
	JobCanceled = jobs.StateCanceled
	JobFailed   = jobs.StateFailed
)

// Declarative aggregate specs (API v3).
type (
	// PredSpec is a JSON-serializable predicate AST node.
	PredSpec = core.PredSpec
	// AggSpec is a declarative COUNT/SUM/AVG aggregate.
	AggSpec = core.AggSpec
	// RectSpec is the wire form of a rectangle.
	RectSpec = core.RectSpec
)

// Predicate constructors.
var (
	// AttrCmp compares a numeric attribute against a constant.
	AttrCmp = core.AttrCmp
	// TagEq tests a categorical attribute for equality.
	TagEq = core.TagEq
	// InRect tests the tuple location against a rectangle.
	InRect = core.InRect
	// And is the conjunction of its arguments.
	And = core.And
	// Or is the disjunction of its arguments.
	Or = core.Or
	// Not negates its argument.
	Not = core.Not
)

// Comparison operators for AttrCmp.
const (
	CmpLT = core.CmpLT
	CmpLE = core.CmpLE
	CmpGT = core.CmpGT
	CmpGE = core.CmpGE
	CmpEQ = core.CmpEQ
	CmpNE = core.CmpNE
)

// Aggregate-spec constructors.
var (
	// CountSpec builds COUNT(*).
	CountSpec = core.CountSpec
	// SumSpec builds SUM(attr).
	SumSpec = core.SumSpec
	// AvgSpec builds AVG(attr) (a SUM/COUNT pair under the hood).
	AvgSpec = core.AvgSpec
)

// Multi-aggregate query planner types (API v4; see the package
// overview).
type (
	// PlanOptions configure PlanBatch: method, batch seed and run
	// bounds.
	PlanOptions = core.PlanOptions
	// QueryPlan is a compiled multi-aggregate batch: one sample stream
	// of fused physical aggregates over deduped predicates. Run it with
	// Execute, as often as wanted.
	QueryPlan = core.QueryPlan
	// PlanProgress is the per-sample streaming event of Execute.
	PlanProgress = core.PlanProgress
	// BatchResult is the outcome of executing a QueryPlan: one Result
	// per spec plus the batch's account.
	BatchResult = core.BatchResult
)

// PlanBatch compiles a batch of aggregate specs into a fused
// QueryPlan: predicates dedup across specs, same-selection aggregates
// share physical accumulators, and every spec reads every sample of
// one stream. Estimates are bit-identical to independent runs at
// equal seeds — batching changes the cost, never the numbers.
var PlanBatch = core.PlanBatch

// Estimator types.
type (
	// Aggregate is the compiled (closure) form of a COUNT or SUM
	// aggregate; build it with AggSpec.Compile.
	Aggregate = core.Aggregate
	// Record is the estimator-visible view of a returned tuple.
	Record = core.Record
	// Result is an estimation outcome with error bars and trace.
	Result = core.Result
	// TracePoint is one point of the estimate-versus-cost trace.
	TracePoint = core.TracePoint
	// LROptions configures LR-LBS-AGG.
	LROptions = core.LROptions
	// LNROptions configures LNR-LBS-AGG.
	LNROptions = core.LNROptions
	// NNOOptions configures the LR-LBS-NNO baseline.
	NNOOptions = core.NNOOptions
	// LRAggregator is Algorithm LR-LBS-AGG.
	LRAggregator = core.LRAggregator
	// LNRAggregator is Algorithm LNR-LBS-AGG.
	LNRAggregator = core.LNRAggregator
	// NNOBaseline is Algorithm LR-LBS-NNO.
	NNOBaseline = core.NNOBaseline
	// Estimator is the sample-source interface all three algorithms
	// implement: Step returns one point sample's weighted records.
	// Custom algorithms that implement it run through Run, which folds
	// every aggregate over each sample.
	Estimator = core.Estimator
	// Sample is one point sample's weighted records; Value folds it
	// for an aggregate.
	Sample = core.Sample
	// WeightedRecord is a record of a Sample with its weight.
	WeightedRecord = core.WeightedRecord
	// RunOption configures an estimation run.
	RunOption = core.RunOption
)

// Run options for estimation sessions (see the package overview).
var (
	// WithMaxSamples stops a run after n completed samples.
	WithMaxSamples = core.WithMaxSamples
	// WithMaxQueries stops a run after n service queries.
	WithMaxQueries = core.WithMaxQueries
	// WithTargetCI stops a run at a relative 95 % CI half-width.
	WithTargetCI = core.WithTargetCI
	// WithProgress streams per-sample trace points to a callback.
	WithProgress = core.WithProgress
	// WithParallelism samples from n concurrent estimator forks.
	WithParallelism = core.WithParallelism
)

// Run executes any Estimator with budgets, traces, early stopping and
// optional parallelism; the estimators' Run methods call it.
var Run = core.Run

// The HTTP client adapter serves the batch path too, so a probe set
// travels as one POST instead of one GET per point.
var _ BatchOracle = (*httpapi.Client)(nil)

// NewLRAggregator builds the unbiased location-returned estimator
// over any Oracle (the in-process simulator or a remote adapter).
func NewLRAggregator(svc Oracle, opts LROptions) *LRAggregator {
	return core.NewLRAggregator(svc, opts)
}

// DefaultLROptions enables all four error-reduction devices of §3.2
// with h fixed at 1; set FixedH = 0 for the paper's adaptive h.
func DefaultLROptions(seed int64) LROptions { return core.DefaultLROptions(seed) }

// NewLNRAggregator builds the rank-only estimator.
func NewLNRAggregator(svc Oracle, opts LNROptions) *LNRAggregator {
	return core.NewLNRAggregator(svc, opts)
}

// NewNNOBaseline builds the prior-art baseline estimator.
func NewNNOBaseline(svc Oracle, opts NNOOptions) *NNOBaseline {
	return core.NewNNOBaseline(svc, opts)
}

// RatioOf combines two results of one run into an AVG-style ratio
// (AVG = SUM/COUNT).
var RatioOf = core.RatioOf

// Sampling distributions (§5.2 external knowledge).
type (
	// Sampler is a query-location distribution.
	Sampler = sampling.Sampler
	// UniformSampler samples uniformly over a rectangle.
	UniformSampler = sampling.Uniform
	// GridSampler is a piecewise-constant weighted density.
	GridSampler = sampling.Grid
)

// NewUniformSampler returns the uniform distribution over rect.
func NewUniformSampler(rect Rect) *UniformSampler { return sampling.NewUniform(rect) }

// NewGridSampler builds a weighted grid sampler from row-major cell
// weights.
func NewGridSampler(rect Rect, w, h int, weights []float64) *GridSampler {
	return sampling.NewGrid(rect, w, h, weights)
}

// GridFromPoints estimates a density grid from observed locations
// (the census substitute).
func GridFromPoints(rect Rect, w, h int, pts []Point, alpha float64) *GridSampler {
	return sampling.GridFromPoints(rect, w, h, pts, alpha)
}

// Workload scenarios (synthetic stand-ins for the paper's datasets).
type Scenario = workload.Scenario

// Named scenario constructors.
var (
	// USASchools generates the schools-with-enrollment scenario.
	USASchools = workload.USASchools
	// USARestaurants generates the restaurants-with-ratings scenario.
	USARestaurants = workload.USARestaurants
	// StarbucksUS generates the Starbucks-among-POIs scenario.
	StarbucksUS = workload.StarbucksUS
	// WeChatChina generates the obfuscated social-network scenario.
	WeChatChina = workload.WeChatChina
	// WeiboChina generates the rank-only social-network scenario.
	WeiboChina = workload.WeiboChina
)

// Durable storage (internal/store): the paged .lbspack database
// format, read once into the in-memory index; a StackSpec's DataDir adds WAL-backed live overlays and warm
// restarts.
type (
	// StoreStats is the engine's counter snapshot (the /v1/stats
	// "store" section).
	StoreStats = store.Stats
	// StoreCorruptError is the typed failure of every storage
	// integrity check (bad magic, checksum mismatch, truncated page).
	StoreCorruptError = store.CorruptError
	// TupleSource is a scannable tuple supplier a Database can
	// materialize from (implemented by the store's packs).
	TupleSource = lbs.TupleSource
)

// WritePack writes db as a Euclidean .lbspack file at path (epoch is
// recorded in the header; pageSize 0 means the default, and at most
// 64 KiB is accepted).
func WritePack(path string, db *Database, epoch uint64, pageSize int) error {
	return store.WritePackMetric(path, db, geo.Euclidean, epoch, pageSize, nil)
}

// OpenPackedDatabase opens a .lbspack and materializes the database
// it holds in one front-to-back scan, returning the recorded epoch.
func OpenPackedDatabase(path string) (*Database, uint64, error) {
	db, epoch, _, err := store.OpenDatabaseMetric(path, nil)
	return db, epoch, err
}

// NewDatabaseFromStore materializes a Database from any TupleSource.
var NewDatabaseFromStore = lbs.NewDatabaseFromStore
