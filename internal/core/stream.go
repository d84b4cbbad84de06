package core

import (
	"context"
	"math"
)

// This file executes a QueryPlan as a streaming operator graph (see
// planner.go for the plan shape). Each group runs its own sample
// source; the executor interleaves groups in checkpoint-sized chunks
// and re-allocates the remaining shared query budget across the
// still-unconverged groups by observed accumulator variance — the
// groups that need more samples to reach the confidence target get
// proportionally more of what is left.

// PlanProgress is the per-sample streaming event of Execute: one
// completed sample of one group, carrying the group's physical trace
// points and the finished per-spec partial results. The slices are
// reused between calls — consumers must copy what they keep (the same
// contract as WithProgress).
type PlanProgress struct {
	// Group indexes QueryPlan.Groups.
	Group int
	// Specs are the group's spec indices (QueryPlan.Groups[Group].Specs).
	Specs []int
	// Points holds one TracePoint per physical aggregate of the group,
	// index-aligned with the group's Aggs. Queries is relative to the
	// whole batch (the shared cost axis of the trace).
	Points []TracePoint
	// Partial holds one finished Result per spec in Specs (AVG folded
	// through RatioOf), index-aligned with Specs.
	Partial []Result
	// GroupSamples and GroupQueries are the group's own totals so far.
	GroupSamples int
	GroupQueries int64
	// Degraded marks the sample as drawn while the service answered
	// degraded (see TracePoint.Degraded).
	Degraded bool
}

// GroupAlloc is one group's slice of a checkpoint re-plan: its
// variance-driven need estimate (in samples) and the sample quota the
// allocator granted for the next chunk.
type GroupAlloc struct {
	Group   int     `json:"group"`
	Need    float64 `json:"need"`
	Samples int     `json:"samples"`
}

// ReplanEvent records one checkpoint-boundary budget re-allocation.
type ReplanEvent struct {
	Round int `json:"round"`
	// RemainingQueries is the shared budget left at the checkpoint
	// (-1 when the batch is unbounded).
	RemainingQueries int64        `json:"remaining_queries"`
	Allocs           []GroupAlloc `json:"allocs"`
}

// maxReplanEvents bounds the recorded re-plan history of unbounded
// multi-group runs; later events are dropped (the decisions keep
// happening, only the log truncates).
const maxReplanEvents = 256

// GroupReport is the post-run account of one plan group.
type GroupReport struct {
	Method        string   `json:"method"`
	Seed          int64    `json:"seed"`
	Specs         []int    `json:"specs"`
	Aggs          []string `json:"aggs"`
	Preds         int      `json:"preds"`
	NeedsLocation bool     `json:"needs_location,omitempty"`
	// CostPerSample is the modeled cost the first allocation used.
	CostPerSample float64 `json:"cost_per_sample"`
	Samples       int     `json:"samples"`
	Queries       int64   `json:"queries"`
	CIMet         bool    `json:"ci_met,omitempty"`
}

// BatchResult is the outcome of executing a QueryPlan: one Result per
// source spec (request order), plus the per-group accounts and the
// re-plan history.
type BatchResult struct {
	// Results are index-aligned with QueryPlan.Specs. Result.Queries
	// reports the owning group's spend (the shared stream each spec
	// rode), so Σ over distinct groups — not over specs — is the
	// batch total.
	Results []Result
	Groups  []GroupReport
	Replans []ReplanEvent
	// Samples is the total across groups; Queries the batch's whole
	// oracle spend.
	Samples int
	Queries int64
	// DegradedSamples counts samples (across groups) drawn while the
	// service answered degraded; 0 for a healthy run.
	DegradedSamples int
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

// specResult finishes the group's li-th spec from its fused
// accumulators (RatioOf for AVG, pass-through otherwise).
func (st *groupState) specResult(li int) Result {
	e := st.grp.entries[li]
	if e.den < 0 {
		return resultOfAcc(e.name, &st.accs[e.num], st.queries)
	}
	r := RatioOf(
		resultOfAcc(st.grp.Aggs[e.num].Name, &st.accs[e.num], st.queries),
		resultOfAcc(st.grp.Aggs[e.den].Name, &st.accs[e.den], st.queries),
	)
	r.Name = e.name
	return r
}

// converged is the per-spec CI sink's stopping rule: every spec of the
// group has a 95 % half-width below rel × |estimate| (rel ≤ 0 disables
// the rule). AVG specs use the delta-method CI of their ratio, and an
// undefined ratio (zero denominator) retires only once the denominator
// is confidently zero — no observed variance — so a selection that is
// merely rare keeps sampling.
func (st *groupState) converged(rel float64) bool {
	if rel <= 0 || st.samples < ciMinSamples {
		return false
	}
	for li, e := range st.grp.entries {
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
		r := st.specResult(li)
		if r.CI95 > rel*math.Abs(r.Estimate) {
			return false
		}
	}
	return true
}

// emitProgress streams one completed sample of st (its trace points
// are already in st.points).
func emitProgress(st *groupState, degraded bool, progress func(PlanProgress)) {
	for li := range st.grp.entries {
		st.partial[li] = st.specResult(li)
	}
	progress(PlanProgress{
		Group:        st.gi,
		Specs:        st.grp.Specs,
		Points:       st.points,
		Partial:      st.partial,
		GroupSamples: st.samples,
		GroupQueries: st.queries,
		Degraded:     degraded,
	})
}

// need estimates how many more samples group gi wants, from its
// observed accumulator variance: for the worst spec, the total sample
// count that would shrink its 95 % CI to the target is
// n·(ci/(rel·|est|))², so the need is that minus what it already has.
// Before ciMinSamples (or with no target) the need falls back to one
// checkpoint — "unknown, keep probing".
func (p *QueryPlan) need(st *groupState) float64 {
	unknown := float64(p.opts.CheckpointSamples)
	if st.samples < ciMinSamples {
		return unknown
	}
	rel := p.opts.TargetCI
	worst := 0.0
	for li := range st.grp.entries {
		r := st.specResult(li)
		if math.IsNaN(r.Estimate) || r.Estimate == 0 {
			if r.CI95 == 0 {
				continue // confidently zero: no need
			}
			return unknown * 4 // undefined scale: generous probe
		}
		relCI := r.CI95 / math.Abs(r.Estimate)
		var toGo float64
		if rel > 0 {
			// Samples to reach the target, minus samples held.
			toGo = float64(st.samples) * (relCI/rel*relCI/rel - 1)
		} else {
			// No target: weight by relative variance, so the noisiest
			// group drinks most of an open-ended budget.
			toGo = float64(st.samples) * relCI * relCI
		}
		if toGo > worst {
			worst = toGo
		}
	}
	return worst
}

// allocate divides the next checkpoint's samples across the active
// groups proportionally to their needs, scaled down when the modeled
// query cost of the round would overrun the remaining shared budget.
func (p *QueryPlan) allocate(round int, remaining int64, active []int, states []groupState) ([]int, ReplanEvent) {
	base := p.opts.CheckpointSamples
	ev := ReplanEvent{Round: round, RemainingQueries: remaining}
	needs := make([]float64, len(active))
	total := 0.0
	for i, gi := range active {
		needs[i] = p.need(&states[gi])
		total += needs[i]
	}
	quotas := make([]int, len(active))
	for i := range active {
		share := 1.0 / float64(len(active))
		if total > 0 {
			share = needs[i] / total
		}
		q := int(math.Round(share * float64(len(active)) * float64(base)))
		if q < 1 {
			q = 1
		}
		if q > 4*base {
			q = 4 * base
		}
		quotas[i] = q
	}
	if remaining >= 0 {
		// Scale the round down when its modeled cost overruns what is
		// left, so the budget drains across groups by need instead of
		// first-come-first-served.
		cost := 0.0
		perSample := make([]float64, len(active))
		for i, gi := range active {
			perSample[i] = p.Groups[gi].CostPerSample
			if st := &states[gi]; st.samples > 0 {
				perSample[i] = float64(st.queries) / float64(st.samples)
			}
			cost += float64(quotas[i]) * perSample[i]
		}
		if cost > float64(remaining) {
			scale := float64(remaining) / cost
			for i := range quotas {
				if q := int(math.Floor(float64(quotas[i]) * scale)); q < quotas[i] {
					quotas[i] = q
				}
				if quotas[i] < 1 {
					quotas[i] = 1
				}
			}
		}
	}
	for i, gi := range active {
		ev.Allocs = append(ev.Allocs, GroupAlloc{Group: gi, Need: needs[i], Samples: quotas[i]})
	}
	return quotas, ev
}

// Execute runs the plan against svc: group sample streams interleaved
// at checkpoint grain, the shared budget re-allocated by variance at
// every boundary, every completed sample streamed through progress
// (which may be nil). It stops when every group converged or capped
// out, the shared budget or the service's own is exhausted, or ctx is
// canceled — cancellation is graceful and returns the partial
// BatchResult, like the Driver (an error is returned only when not
// even one sample finished, or on a non-graceful transport failure).
//
// Each group's samples come from one sampler run per checkpoint chunk;
// with PlanOptions.Parallelism > 1 every chunk fans out over that many
// estimator forks, each over its own copy of the group's fused
// aggregates, and progress still fires on the calling goroutine.
//
// A QueryPlan must be executed at most once: the group's own worker
// evaluates the plan's fused aggregates, whose predicate memo carries
// run state.
func (p *QueryPlan) Execute(ctx context.Context, svc Oracle, progress func(PlanProgress)) (*BatchResult, error) {
	s := sampler{
		svc:         svc,
		startQ:      svc.QueryCount(),
		maxSamples:  p.opts.MaxSamples,
		maxQueries:  p.opts.MaxQueries,
		targetCI:    p.opts.TargetCI,
		batch:       p.opts.Batch,
		parallelism: p.opts.Parallelism,
	}
	if progress != nil {
		s.emit = func(st *groupState, degraded bool) { emitProgress(st, degraded, progress) }
	}
	states := make([]groupState, len(p.Groups))
	for i := range states {
		grp := &p.Groups[i]
		states[i] = newGroupState(i, grp, newPlanEstimator(grp.Method, svc, grp.Seed))
	}

	var replans []ReplanEvent
	exhausted := false
	for round := 0; !exhausted; round++ {
		var active []int
		for i := range states {
			if !states[i].done {
				active = append(active, i)
			}
		}
		if len(active) == 0 || ctx.Err() != nil {
			break
		}
		remaining := int64(-1)
		if p.opts.MaxQueries > 0 {
			remaining = p.opts.MaxQueries - (svc.QueryCount() - s.startQ)
			if remaining <= 0 {
				break
			}
		}
		quotas, ev := p.allocate(round, remaining, active, states)
		if len(p.Groups) > 1 && len(replans) < maxReplanEvents {
			replans = append(replans, ev)
		}
		for i, gi := range active {
			if exhausted || ctx.Err() != nil {
				break
			}
			ex, err := s.run(ctx, &states[gi], quotas[i])
			if err != nil {
				return nil, err
			}
			exhausted = ex
		}
	}

	total, degradedTotal := 0, 0
	for i := range states {
		total += states[i].samples
		degradedTotal += states[i].degraded
	}
	if total == 0 {
		return nil, noSamples(ctx)
	}
	br := &BatchResult{
		Results:         make([]Result, len(p.Specs)),
		Groups:          make([]GroupReport, len(p.Groups)),
		Replans:         replans,
		Samples:         total,
		Queries:         svc.QueryCount() - s.startQ,
		DegradedSamples: degradedTotal,
	}
	for gi := range p.Groups {
		grp := &p.Groups[gi]
		st := &states[gi]
		names := make([]string, len(grp.Aggs))
		for j := range grp.Aggs {
			names[j] = grp.Aggs[j].Name
		}
		br.Groups[gi] = GroupReport{
			Method:        grp.Method,
			Seed:          grp.Seed,
			Specs:         grp.Specs,
			Aggs:          names,
			Preds:         len(grp.PredHashes),
			NeedsLocation: grp.NeedsLocation,
			CostPerSample: grp.CostPerSample,
			Samples:       st.samples,
			Queries:       st.queries,
			CIMet:         st.ciMet,
		}
		for li, si := range grp.Specs {
			br.Results[si] = st.specResult(li)
			br.Results[si].DegradedSamples = st.degraded
		}
	}
	return br, nil
}
