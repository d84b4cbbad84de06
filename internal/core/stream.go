package core

import (
	"context"
	"math"
)

// This file executes a QueryPlan as a streaming operator graph (see
// planner.go for the plan shape): one sample source feeds every fused
// aggregate, and every completed sample streams the finished per-spec
// partials.

// PlanProgress is the per-sample streaming event of Execute: one
// completed sample, carrying the physical trace points and the
// finished per-spec partial results. The slices are reused between
// calls — consumers must copy what they keep (the same contract as
// WithProgress).
type PlanProgress struct {
	// Points holds one TracePoint per physical aggregate, index-aligned
	// with QueryPlan.Aggs. Queries is relative to the whole batch (the
	// cost axis of the trace).
	Points []TracePoint
	// Partial holds one finished Result per spec (AVG folded through
	// RatioOf), index-aligned with QueryPlan.Specs.
	Partial []Result
	// Samples and Queries are the batch's totals so far.
	Samples int
	Queries int64
	// Degraded marks the sample as drawn while the service answered
	// degraded (see TracePoint.Degraded).
	Degraded bool
}

// BatchResult is the outcome of executing a QueryPlan: one Result per
// source spec (request order) and the batch's account.
type BatchResult struct {
	// Results are index-aligned with QueryPlan.Specs. Every spec rode
	// the one sample stream, so each reports the batch's samples and
	// queries.
	Results []Result
	// Samples and Queries are the batch's sample count and whole
	// oracle spend.
	Samples int
	Queries int64
	// DegradedSamples counts samples drawn while the service answered
	// degraded; 0 for a healthy run.
	DegradedSamples int
	// CIMet reports that the run stopped on its TargetCI.
	CIMet bool
}

// resultOfAcc assembles a Result from one accumulator.
func resultOfAcc(name string, a *Accumulator, queries int64) Result {
	return Result{
		Name:     name,
		Estimate: a.Mean(),
		StdErr:   a.StdErr(),
		CI95:     a.CI95(),
		Samples:  a.N(),
		Queries:  queries,
	}
}

// specResult finishes the plan's i-th spec from its fused accumulators
// (RatioOf for AVG, pass-through otherwise).
func (st *runState) specResult(i int) Result {
	e := st.plan.entries[i]
	if e.den < 0 {
		return resultOfAcc(e.name, &st.accs[e.num], st.queries)
	}
	r := RatioOf(
		resultOfAcc(st.plan.Aggs[e.num].Name, &st.accs[e.num], st.queries),
		resultOfAcc(st.plan.Aggs[e.den].Name, &st.accs[e.den], st.queries),
	)
	r.Name = e.name
	return r
}

// converged is the per-spec CI sink's stopping rule: every spec has a
// 95 % half-width below rel × |estimate| (rel ≤ 0 disables the rule).
// AVG specs use the delta-method CI of their ratio, and an undefined
// ratio (zero denominator) retires only once the denominator is
// confidently zero — no observed variance — so a selection that is
// merely rare keeps sampling.
func (st *runState) converged(rel float64) bool {
	if rel <= 0 || st.samples < ciMinSamples {
		return false
	}
	for i, e := range st.plan.entries {
		if e.den < 0 {
			a := &st.accs[e.num]
			if a.CI95() > rel*math.Abs(a.Mean()) {
				return false
			}
			continue
		}
		den := &st.accs[e.den]
		if den.Mean() == 0 {
			if den.CI95() > 0 {
				return false
			}
			continue
		}
		r := st.specResult(i)
		if r.CI95 > rel*math.Abs(r.Estimate) {
			return false
		}
	}
	return true
}

// Execute runs the plan against svc: one sample stream over the fused
// aggregates, every completed sample streamed through progress (which
// may be nil). It stops on the sample cap, the query budget, the CI
// target, the service's own budget or ctx's cancellation — which is
// graceful and returns the partial BatchResult, like Run (an error is
// returned only when not even one sample finished, or on a
// non-graceful transport failure).
//
// With PlanOptions.Parallelism > 1 the samples come from that many
// estimator forks; the calling goroutine still folds every sample
// through the plan's aggregates and fires progress. A plan holds no run state:
// executing it again at its seed repeats a serial run bit for bit.
func (p *QueryPlan) Execute(ctx context.Context, svc Oracle, progress func(PlanProgress)) (*BatchResult, error) {
	s := sampler{
		svc:         svc,
		startQ:      svc.QueryCount(),
		maxSamples:  p.opts.MaxSamples,
		maxQueries:  p.opts.MaxQueries,
		targetCI:    p.opts.TargetCI,
		parallelism: p.opts.Parallelism,
	}
	if progress != nil {
		s.emit = func(st *runState, degraded bool) {
			for i := range st.partial {
				st.partial[i] = st.specResult(i)
			}
			progress(PlanProgress{
				Points:   st.points,
				Partial:  st.partial,
				Samples:  st.samples,
				Queries:  st.queries,
				Degraded: degraded,
			})
		}
	}
	st := newRunState(p, newPlanEstimator(p.Method, svc, p.Seed))
	if err := s.run(ctx, &st); err != nil {
		return nil, err
	}
	if st.samples == 0 {
		return nil, noSamples(ctx)
	}
	br := &BatchResult{
		Results:         make([]Result, len(p.Specs)),
		Samples:         st.samples,
		Queries:         st.queries,
		DegradedSamples: st.degraded,
		CIMet:           st.ciMet,
	}
	for i := range br.Results {
		br.Results[i] = st.specResult(i)
		br.Results[i].DegradedSamples = st.degraded
	}
	return br, nil
}
