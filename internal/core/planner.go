package core

import (
	"fmt"
)

// This file is the multi-aggregate query planner: the layer that turns
// a batch of declarative AggSpecs into fused, shared-stream execution.
// A real analytics front end submits many aggregates at once;
// answering each from its own sample stream multiplies the cost
// against the metered kNN oracle — the scarcest resource in the whole
// system — by the batch size. PlanBatch instead:
//
//   - canonicalizes and dedups predicates across specs (canon.go), so
//     each distinct selection compiles once into one pure closure that
//     every physical aggregate over it shares;
//   - fuses COUNT/SUM/AVG over the same selection into one physical
//     aggregate per (kind, attr, selection) — AVG contributes its
//     SUM/COUNT halves to the same pool — so a batch of M specs runs
//     far fewer than M physical accumulators;
//   - answers every spec from one sample stream: every sample feeds
//     every spec, so the batch spends one stream's queries, not one
//     per spec. Under LNR a batch whose selections read locations
//     localizes each sample once (§4.3), and all specs share it.
//
// Execution is a chain of streaming operators over the sample trace:
// sample source (the plan's Estimator, whose samples are weighted
// records) → fused aggregators (one Value closure over its compiled
// selection and one Accumulator per physical aggregate, folding every
// sample) → per-spec CI sinks (ratio finishing, progress,
// partials). Partial results and the NDJSON trace fall out of the
// operator graph: every completed sample streams one PlanProgress.

// Method names of the estimation algorithms the planner can run.
// They match the wire names of internal/jobs.
const (
	MethodAuto = "auto" // LR: the paper's estimator for location-returned interfaces
	MethodLR   = "lr"   // LR-LBS-AGG (§3)
	MethodLNR  = "lnr"  // LNR-LBS-AGG (§4)
)

// PlanOptions configure PlanBatch: the method, the batch's seed and
// the run bounds.
type PlanOptions struct {
	// Method forces one algorithm ("lr"|"lnr"); "" or "auto" runs LR.
	// PlanBatch alone knows the method set and refuses any other name.
	Method string
	// Seed seeds the plan's sample stream: a plan reproduces a
	// single-stream Run with the same seed.
	Seed int64
	// MaxQueries bounds the batch's total query spend (0 = unlimited).
	MaxQueries int64
	// MaxSamples bounds the batch's sample count (0 = unlimited).
	MaxSamples int
	// TargetCI stops the run once every spec's 95 % confidence
	// half-width falls below rel × |estimate| (after ciMinSamples
	// samples; 0 disables).
	TargetCI float64
	// Parallelism draws the samples from n concurrent estimator forks
	// (see WithParallelism; n ≤ 1 means serial).
	Parallelism int
}

// QueryPlan is a compiled multi-aggregate batch: the validated source
// specs and the fused physical aggregates of the one sample stream
// that answers them all. Build with PlanBatch, run with Execute (as
// often as wanted: a plan holds no run state).
type QueryPlan struct {
	// Specs are the validated source specs, in request order.
	Specs []AggSpec
	// Method is the algorithm of the sample stream: the forced one,
	// else LR.
	Method string
	// Seed seeds the stream's estimator (PlanOptions.Seed).
	Seed int64
	// NeedsLocation marks a plan some selection of which reads tuple
	// locations (set by PlanBatch for LNR only, where every sample then
	// pays the §4.3 localization; Run sets it for any estimator).
	NeedsLocation bool
	// Aggs are the fused physical aggregates (deduped by kind, attr
	// and canonical selection; AVG specs contribute their SUM/COUNT
	// halves). Execute folds every sample through them on its calling
	// goroutine, parallel or not.
	Aggs []Aggregate
	// PredHashes are the structural hashes of the batch's distinct
	// canonical predicates, in first-use order (the dedup observable:
	// specs ≥ len(PredHashes) means sharing; the CLI prints them).
	PredHashes []uint64

	// entries maps each spec to its physical aggregates.
	entries []planEntry

	opts PlanOptions
}

// planEntry maps one spec to its physical aggregate indices.
type planEntry struct {
	num  int    // physical index of the (only, or numerator) aggregate
	den  int    // physical index of the AVG denominator, or -1
	name string // the spec's result name
}

// PlanBatch validates and compiles a batch of aggregate specs into a
// fused QueryPlan (see the file comment for what the planner shares).
// The plan embeds opts; Execute runs it against an Oracle.
func PlanBatch(specs []AggSpec, opts PlanOptions) (*QueryPlan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("core: no aggregates given")
	}
	plan := &QueryPlan{
		Specs: make([]AggSpec, len(specs)),
		Seed:  opts.Seed,
		opts:  opts,
	}
	switch opts.Method {
	case "", MethodAuto, MethodLR:
		plan.Method = MethodLR
	case MethodLNR:
		plan.Method = MethodLNR
	default:
		return nil, fmt.Errorf("core: unknown method %q (want auto|lr|lnr)", opts.Method)
	}
	copy(plan.Specs, specs)
	physOf := make(map[string]int)
	predOf := make(map[string]func(Record) bool)

	// physIndex interns one physical aggregate (kind, attr, canonical
	// selection), compiling its canonical predicate on first use; every
	// aggregate over the same selection shares the compiled closure.
	physIndex := func(kind, attr string, where *PredSpec) int {
		key := physKey(kind, attr, where)
		if i, ok := physOf[key]; ok {
			return i
		}
		var cond func(Record) bool
		if where != nil {
			c := where.Canon()
			pkey := c.canonKey()
			var ok bool
			if cond, ok = predOf[pkey]; !ok {
				cond = c.compile()
				predOf[pkey] = cond
				plan.PredHashes = append(plan.PredHashes, c.Hash())
			}
		}
		spec := AggSpec{Kind: kind, Attr: attr, Where: where}
		agg := Aggregate{
			Name:          spec.name(),
			Value:         compileValue(kind, attr, cond),
			NeedsLocation: where != nil && where.needsLocation(),
		}
		physOf[key] = len(plan.Aggs)
		plan.Aggs = append(plan.Aggs, agg)
		return len(plan.Aggs) - 1
	}

	for i := range plan.Specs {
		s := &plan.Specs[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		// Only LNR pays per sample for locations (LR reads them from
		// the answer).
		if plan.Method == MethodLNR && s.Where != nil && s.Where.needsLocation() {
			plan.NeedsLocation = true
		}
		e := planEntry{name: s.name()}
		if s.Kind == AggAvg {
			// AVG(attr | where) = SUM(attr | where) / COUNT(where): both
			// halves join the fused pool, so an explicit SUM or COUNT
			// over the same selection shares them.
			e.num = physIndex(AggSum, s.Attr, s.Where)
			e.den = physIndex(AggCount, "", s.Where)
		} else {
			e.num = physIndex(s.Kind, s.Attr, s.Where)
			e.den = -1
		}
		plan.entries = append(plan.entries, e)
	}
	return plan, nil
}

// newPlanEstimator builds the plan's sample source over svc: LNR or
// LR, the only methods PlanBatch emits.
func newPlanEstimator(method string, svc Oracle, seed int64) Estimator {
	if method == MethodLNR {
		return NewLNRAggregator(svc, LNROptions{Seed: seed})
	}
	return NewLRAggregator(svc, DefaultLROptions(seed))
}
