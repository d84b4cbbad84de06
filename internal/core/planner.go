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
//     each distinct selection compiles once and is evaluated at most
//     once per returned record (the predicate fan-out of the operator
//     graph);
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
// sample source (the plan's Estimator) → predicate filter fan-out
// (predBank) → fused aggregators (one Accumulator per physical
// aggregate) → per-spec CI sinks (ratio finishing, progress,
// partials). Partial results and the NDJSON trace fall out of the
// operator graph: every completed sample streams one PlanProgress.

// Method names of the estimation algorithms the planner can run.
// They match the wire names of internal/jobs.
const (
	MethodAuto = "auto" // LR: the paper's estimator for location-returned interfaces
	MethodLR   = "lr"   // LR-LBS-AGG (§3)
	MethodLNR  = "lnr"  // LNR-LBS-AGG (§4)
	MethodNNO  = "nno"  // LR-LBS-NNO baseline (biased; only when forced)
)

// PlanOptions configure PlanBatch: the method, the batch's seed and
// the run bounds.
type PlanOptions struct {
	// Method forces one algorithm ("lr"|"lnr"|"nno"); "" or "auto"
	// runs LR.
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
// that answers them all. Build with PlanBatch, run with Execute.
//
// A QueryPlan is single-use: its fused physical aggregates share
// per-record predicate memos (predBank), so Aggs must not be run
// concurrently. Execute's parallel mode gives every extra worker its
// own copy over a fresh memo.
type QueryPlan struct {
	// Specs are the validated source specs, in request order.
	Specs []AggSpec
	// Method is the algorithm of the sample stream: the forced one,
	// else LR.
	Method string
	// Seed seeds the stream's estimator (PlanOptions.Seed).
	Seed int64
	// NeedsLocation marks an LNR plan some selection of which reads
	// tuple locations: every sample then pays the §4.3 localization.
	NeedsLocation bool
	// Aggs are the fused physical aggregates (deduped by kind, attr
	// and canonical selection; AVG specs contribute their SUM/COUNT
	// halves). Their Value closures share a per-record predicate memo
	// and are not safe for concurrent use (Execute forks copies for its
	// parallel workers).
	Aggs []Aggregate
	// PredHashes are the structural hashes of the batch's distinct
	// canonical predicates, in first-use order (the dedup observable:
	// specs ≥ len(PredHashes) means sharing; the CLI prints them).
	PredHashes []uint64

	// entries maps each spec to its physical aggregates.
	entries []planEntry
	// bank is the predicate memo the fused Aggs share, and fused the
	// recipe of each Agg over it (index-aligned with Aggs); nil for
	// Run's plans over caller-supplied aggregates.
	bank  *predBank
	fused []fusedAgg

	opts PlanOptions
}

// planEntry maps one spec to its physical aggregate indices.
type planEntry struct {
	num  int    // physical index of the (only, or numerator) aggregate
	den  int    // physical index of the AVG denominator, or -1
	name string // the spec's result name
}

// fusedAgg is the recipe of one fused physical aggregate: kind and
// attribute over predicate pred of the plan's bank (-1 = none).
type fusedAgg struct {
	kind, attr string
	pred       int
}

// forkAggs returns the plan's aggregates for one more concurrent
// worker: copies of the fused aggregates over a fresh predicate memo
// sharing the compiled predicates (which are pure). A plan without a
// memo shares its aggregates as they are — Run's contract for
// caller-supplied aggregates under WithParallelism.
func (p *QueryPlan) forkAggs() []Aggregate {
	if p.bank == nil {
		return p.Aggs
	}
	bank := &predBank{}
	for _, fn := range p.bank.preds {
		bank.add(fn)
	}
	aggs := make([]Aggregate, len(p.Aggs))
	for i, f := range p.fused {
		aggs[i] = p.Aggs[i]
		aggs[i].Value = fusedValue(f.kind, f.attr, bank, f.pred)
	}
	return aggs
}

// predBank is the predicate filter fan-out operator: every distinct
// canonical predicate of a plan, compiled once, with a one-record
// memo so a record answered by k fused aggregates evaluates each
// predicate once instead of k times. The memo keys on the fields
// predicates can read (ID, HasLoc, Loc); consecutive Value calls on
// the same record hit it, and any other record resets it. Under a live
// (mutating) backend a record re-returned with changed attributes
// under an unchanged identity could reuse one stale predicate
// evaluation; the staleness window is bounded to a single record
// evaluation and only matters mid-mutation.
type predBank struct {
	preds []func(Record) bool

	valid   bool
	lastID  int64
	lastHas bool
	lastX   float64
	lastY   float64
	evald   []bool
	val     []bool
}

// eval returns predicate i's value on r through the memo.
func (b *predBank) eval(i int, r Record) bool {
	if !b.valid || r.ID != b.lastID || r.HasLoc != b.lastHas || r.Loc.X != b.lastX || r.Loc.Y != b.lastY {
		b.valid = true
		b.lastID, b.lastHas = r.ID, r.HasLoc
		b.lastX, b.lastY = r.Loc.X, r.Loc.Y
		for j := range b.evald {
			b.evald[j] = false
		}
	}
	if !b.evald[i] {
		b.val[i] = b.preds[i](r)
		b.evald[i] = true
	}
	return b.val[i]
}

// add registers a compiled predicate and returns its index.
func (b *predBank) add(fn func(Record) bool) int {
	b.preds = append(b.preds, fn)
	b.evald = append(b.evald, false)
	b.val = append(b.val, false)
	return len(b.preds) - 1
}

// fusedValue builds the per-record value closure of one physical
// aggregate whose selection is predicate pi of bank (pi < 0 = no
// selection). Semantically identical to compileValue over the compiled
// predicate — the memo only changes how often the predicate runs,
// never what it returns — which is what keeps planned runs
// bit-identical to independent ones.
func fusedValue(kind, attr string, bank *predBank, pi int) func(Record) float64 {
	if pi < 0 {
		return compileValue(kind, attr, nil)
	}
	if kind == AggCount {
		return func(r Record) float64 {
			if bank.eval(pi, r) {
				return 1
			}
			return 0
		}
	}
	return func(r Record) float64 {
		if bank.eval(pi, r) {
			return r.Attr(attr)
		}
		return 0
	}
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
		bank:  &predBank{},
		opts:  opts,
	}
	switch opts.Method {
	case "", MethodAuto, MethodLR:
		plan.Method = MethodLR
	case MethodLNR, MethodNNO:
		plan.Method = opts.Method
	default:
		return nil, fmt.Errorf("core: unknown method %q (want auto|lr|lnr|nno)", opts.Method)
	}
	copy(plan.Specs, specs)
	physOf := make(map[string]int)
	predOf := make(map[string]int)

	// physIndex interns one physical aggregate (kind, attr, canonical
	// selection), compiling its predicate into the plan's bank on first
	// use.
	physIndex := func(kind, attr string, where *PredSpec) int {
		key := physKey(kind, attr, where)
		if i, ok := physOf[key]; ok {
			return i
		}
		pi := -1
		if where != nil {
			c := where.Canon()
			pkey := c.canonKey()
			var ok bool
			if pi, ok = predOf[pkey]; !ok {
				pi = plan.bank.add(c.compile())
				predOf[pkey] = pi
				plan.PredHashes = append(plan.PredHashes, c.Hash())
			}
		}
		spec := AggSpec{Kind: kind, Attr: attr, Where: where}
		agg := Aggregate{
			Name:          spec.name(),
			Value:         fusedValue(kind, attr, plan.bank, pi),
			NeedsLocation: where != nil && where.needsLocation(),
		}
		physOf[key] = len(plan.Aggs)
		plan.Aggs = append(plan.Aggs, agg)
		plan.fused = append(plan.fused, fusedAgg{kind: kind, attr: attr, pred: pi})
		return len(plan.Aggs) - 1
	}

	for i := range plan.Specs {
		s := &plan.Specs[i]
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("aggregate %d: %w", i, err)
		}
		// Only LNR pays per sample for locations (LR and NNO read them
		// from the answer).
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

// newPlanEstimator builds the plan's sample source over svc.
func newPlanEstimator(method string, svc Oracle, seed int64) Estimator {
	switch method {
	case MethodLNR:
		return NewLNRAggregator(svc, LNROptions{Seed: seed})
	case MethodNNO:
		return NewNNOBaseline(svc, NNOOptions{Seed: seed})
	default: // MethodLR — PlanBatch only emits known methods
		return NewLRAggregator(svc, DefaultLROptions(seed))
	}
}
