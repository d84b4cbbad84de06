package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/shard"
)

// batchSpecs builds n aggregate specs sharing 4 distinct selections:
// kinds rotate per selection, and the last rotation re-states its
// conjunction with the children reordered, which canonicalization
// must fuse with the original. This is the acceptance workload (16
// aggregates, 4 predicates).
func batchSpecs(n int) []AggSpec {
	and := And(AttrCmp("weight", "ge", 2), TagEq("flag", "yes"))
	andReordered := And(TagEq("flag", "yes"), AttrCmp("weight", "ge", 2))
	preds := []PredSpec{
		AttrCmp("weight", "ge", 3),
		TagEq("flag", "yes"),
		Or(TagEq("flag", "no"), AttrCmp("weight", "lt", 8)),
		and,
	}
	specs := make([]AggSpec, 0, n)
	for i := 0; i < n; i++ {
		p := preds[i%len(preds)]
		var s AggSpec
		switch i / len(preds) {
		case 0:
			s = CountSpec().WithWhere(p)
		case 1:
			s = SumSpec("weight").WithWhere(p)
		case 2:
			s = AvgSpec("weight").WithWhere(p)
		default:
			if i%len(preds) == len(preds)-1 {
				p = andReordered // same selection, different spelling
			}
			s = CountSpec().WithWhere(p).WithLabel(fmt.Sprintf("recount-%d", i))
		}
		specs = append(specs, s)
	}
	return specs
}

// independentResult runs one spec alone through Run, without the
// planner: a COUNT or SUM spec compiled directly, an AVG spec as its
// SUM and COUNT halves combined by RatioOf. It is the reference the
// planner's equivalence pins compare against.
func independentResult(tb testing.TB, ctx context.Context, est Estimator, s AggSpec, opts ...RunOption) Result {
	tb.Helper()
	halves := []AggSpec{s}
	if s.Kind == AggAvg {
		halves = []AggSpec{{Kind: AggSum, Attr: s.Attr, Where: s.Where}, {Kind: AggCount, Where: s.Where}}
	}
	res, err := Run(ctx, est, aggsOf(tb, halves...), opts...)
	if err != nil {
		tb.Fatal(err)
	}
	if s.Kind != AggAvg {
		return res[0]
	}
	r := RatioOf(res[0], res[1])
	r.Name = s.Name()
	return r
}

// TestPlanBatchDedup: 16 specs over 4 distinct selections fuse into
// one LR stream with one SUM and one COUNT physical per selection, and
// the reordered conjunction dedups into its canonical twin.
func TestPlanBatchDedup(t *testing.T) {
	specs := batchSpecs(16)
	plan, err := PlanBatch(specs, PlanOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Method != MethodLR {
		t.Fatalf("auto picked %s, want lr", plan.Method)
	}
	if len(plan.PredHashes) != 4 {
		t.Fatalf("distinct predicates = %d, want 4", len(plan.PredHashes))
	}
	// 4 selections × {COUNT, SUM} = 8 fused physicals for 16 specs.
	if len(plan.Aggs) != 8 {
		t.Fatalf("got %d physical aggregates, want 8 (16 specs fused)", len(plan.Aggs))
	}
	if len(plan.entries) != 16 {
		t.Fatalf("plan covers %d entries, want 16", len(plan.entries))
	}
	if plan.Seed != 7 {
		t.Fatalf("plan seed = %d, want the batch seed 7", plan.Seed)
	}
}

// TestPlanBatchLNRSharesLocationStream: under a forced LNR method,
// location-reading and location-free selections share one stream whose
// samples all localize; only an LNR plan with a location-reading
// selection needs locations.
func TestPlanBatchLNRSharesLocationStream(t *testing.T) {
	svc, _ := smallService(t, 40, 2, 5)
	inside := CountSpec().WithWhere(InRect(svc.Bounds())).WithLabel("inside")
	for _, tc := range []struct {
		method  string
		specs   []AggSpec
		needLoc bool
	}{
		{MethodLNR, []AggSpec{CountSpec(), inside, SumSpec("weight")}, true},
		{MethodLNR, []AggSpec{CountSpec(), SumSpec("weight")}, false},
		{MethodLR, []AggSpec{CountSpec(), inside}, false},
	} {
		plan, err := PlanBatch(tc.specs, PlanOptions{Method: tc.method, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if plan.Method != tc.method || plan.Seed != 9 || plan.NeedsLocation != tc.needLoc {
			t.Errorf("%s over %d specs: method %s seed %d needs-location %v, want %s 9 %v",
				tc.method, len(tc.specs), plan.Method, plan.Seed, plan.NeedsLocation, tc.method, tc.needLoc)
		}
		if len(plan.Aggs) != len(tc.specs) {
			t.Errorf("%s: %d fused aggregates, want %d", tc.method, len(plan.Aggs), len(tc.specs))
		}
	}
}

// TestPlanBatchRejects: malformed specs and unknown methods fail at
// plan time. NNO is not a plan method: the biased baseline runs only
// through NewNNOBaseline.
func TestPlanBatchRejects(t *testing.T) {
	if _, err := PlanBatch(nil, PlanOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := PlanBatch([]AggSpec{{Kind: "median"}}, PlanOptions{}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, method := range []string{"bogus", "nno"} {
		if _, err := PlanBatch([]AggSpec{CountSpec()}, PlanOptions{Method: method}); err == nil {
			t.Errorf("unknown method %q accepted", method)
		}
	}
}

// planBackend builds the batch and reference backends for the
// equivalence suite: a single service or an n-way federated router
// over the same database (pinned bit-identical by the shard suite).
func planBackend(t *testing.T, db *lbs.Database, k, shards int) Oracle {
	t.Helper()
	if shards <= 1 {
		return lbs.NewService(db, lbs.Options{K: k})
	}
	parts := shard.Partition(db, shards)
	members := make([]shard.Shard, len(parts))
	for i, part := range parts {
		members[i] = shard.Shard{
			Querier: lbs.NewService(part, lbs.Options{K: k}),
			Region:  part.Bounds(),
		}
	}
	r, err := shard.NewRouter(members, lbs.Options{K: k}, shard.DefaultResilience())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestPlanBatchEquivalentToIndependentRuns is the acceptance
// equivalence suite: a batch of aggregates over shared predicates
// produces estimates bit-identical to independent Runs with the same
// seed and sample count, while consuming one sample stream's worth of
// queries — pinned for LR and LNR over a single service and a 4-shard
// federation.
func TestPlanBatchEquivalentToIndependentRuns(t *testing.T) {
	_, db := smallService(t, 90, 2, 5)
	specs := []AggSpec{
		CountSpec(),
		SumSpec("weight"),
		AvgSpec("weight").WithWhere(TagEq("flag", "yes")),
		CountSpec().WithWhere(And(AttrCmp("weight", "ge", 3), TagEq("flag", "yes"))).WithLabel("a"),
		CountSpec().WithWhere(And(TagEq("flag", "yes"), AttrCmp("weight", "ge", 3))).WithLabel("b"),
	}
	for _, method := range []string{MethodLR, MethodLNR} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", method, shards), func(t *testing.T) {
				ctx := context.Background()
				backend := planBackend(t, db, 2, shards)
				plan, err := PlanBatch(specs, PlanOptions{
					Method: method, Seed: 42, MaxSamples: 25,
				})
				if err != nil {
					t.Fatal(err)
				}
				br, err := plan.Execute(ctx, backend, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(br.Results) != len(specs) {
					t.Fatalf("got %d results, want %d", len(br.Results), len(specs))
				}

				// Each spec, replayed independently with the plan's seed
				// and sample count over a fresh backend, must land on the
				// same bits.
				var indepQueries int64
				for si := range specs {
					ref := planBackend(t, db, 2, shards)
					est := newPlanEstimator(plan.Method, ref, plan.Seed)
					want := independentResult(t, ctx, est, specs[si], WithMaxSamples(br.Samples))
					got := br.Results[si]
					if got.Estimate != want.Estimate && !(math.IsNaN(got.Estimate) && math.IsNaN(want.Estimate)) {
						t.Errorf("spec %d (%s): batch estimate %v != independent %v",
							si, got.Name, got.Estimate, want.Estimate)
					}
					if got.StdErr != want.StdErr && !(math.IsNaN(got.StdErr) && math.IsNaN(want.StdErr)) {
						t.Errorf("spec %d (%s): batch stderr %v != independent %v",
							si, got.Name, got.StdErr, want.StdErr)
					}
					if got.CI95 != want.CI95 && !(math.IsNaN(got.CI95) && math.IsNaN(want.CI95)) {
						t.Errorf("spec %d (%s): batch ci95 %v != independent %v",
							si, got.Name, got.CI95, want.CI95)
					}
					if got.Samples != want.Samples {
						t.Errorf("spec %d (%s): batch samples %d != independent %d",
							si, got.Name, got.Samples, want.Samples)
					}
					indepQueries += want.Queries
				}
				// A shared stream: the batch spends one stream's queries,
				// not one per spec.
				if br.Queries >= indepQueries {
					t.Errorf("batch spent %d queries, independent runs %d — no sharing",
						br.Queries, indepQueries)
				}
			})
		}
	}
}

// TestPlannerQuerySavings is the acceptance pin of the batch-cost
// claim: 16 aggregates sharing 4 distinct predicates, run at an equal
// confidence target, consume at most ~1/3 the oracle queries of 16
// independent runs (they consume ~1/16th plus the AVG slowdown; the
// 3× bar leaves slack for variance).
func TestPlannerQuerySavings(t *testing.T) {
	_, db := smallService(t, 150, 3, 6)
	specs := batchSpecs(16)
	const targetCI = 0.30
	ctx := context.Background()

	backend := lbs.NewService(db, lbs.Options{K: 3})
	plan, err := PlanBatch(specs, PlanOptions{Seed: 21, TargetCI: targetCI, MaxSamples: 4000})
	if err != nil {
		t.Fatal(err)
	}
	br, err := plan.Execute(ctx, backend, nil)
	if err != nil {
		t.Fatal(err)
	}

	// The independent leg runs each spec as its own single-spec plan —
	// same stopping rule, same target, its own sample stream — which is
	// exactly what a client without the batch planner would submit 16
	// times.
	var indep int64
	for i, s := range specs {
		ref := lbs.NewService(db, lbs.Options{K: 3})
		sp, err := PlanBatch([]AggSpec{s}, PlanOptions{
			Seed: 21 + int64(i), TargetCI: targetCI, MaxSamples: 4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		one, err := sp.Execute(ctx, ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		indep += one.Queries
	}
	if 3*br.Queries > indep {
		t.Fatalf("batch spent %d queries, 16 independent runs %d: ratio %.2f, want ≤ 1/3",
			br.Queries, indep, float64(br.Queries)/float64(indep))
	}
	t.Logf("batch %d queries vs independent %d (ratio %.3f, %d samples)",
		br.Queries, indep, float64(br.Queries)/float64(indep), br.Samples)
}

// TestExecuteLNRMixedLocationOneStream: a forced-LNR batch mixing a
// location-free and a location-reading selection under a query cap
// draws one stream that every spec reads — each result reports the
// same sample count — and overshoots the cap by at most the sample in
// flight when it ran out.
func TestExecuteLNRMixedLocationOneStream(t *testing.T) {
	svc, _ := smallService(t, 40, 2, 5)
	b := svc.Bounds()
	west := geom.NewRect(b.Min, geom.Pt((b.Min.X+b.Max.X)/2, b.Max.Y))
	const maxQueries = 3000
	plan, err := PlanBatch([]AggSpec{
		CountSpec(),
		CountSpec().WithWhere(InRect(west)).WithLabel("west"),
	}, PlanOptions{Method: MethodLNR, Seed: 3, MaxQueries: maxQueries})
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	var last, maxStep int64
	br, err := plan.Execute(context.Background(), svc, func(pp PlanProgress) {
		events++
		if len(pp.Points) == 0 || len(pp.Partial) != 2 {
			t.Errorf("malformed progress: %+v", pp)
		}
		q := pp.Points[0].Queries
		maxStep = max(maxStep, q-last)
		last = q
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != br.Samples {
		t.Errorf("progress fired %d times for %d samples", events, br.Samples)
	}
	for _, r := range br.Results {
		if r.Samples != br.Samples {
			t.Errorf("%s drew %d samples, the batch %d: specs must share one stream", r.Name, r.Samples, br.Samples)
		}
	}
	// The cap is checked between samples, so the overshoot is bounded by
	// the one sample in flight (LNR samples cost hundreds of queries).
	if br.Queries > maxQueries+maxStep {
		t.Errorf("budget overrun: %d queries vs cap %d (+%d, one sample)", br.Queries, maxQueries, maxStep)
	}
}

// TestExecuteParallelFusedGroup: a fused plan (COUNT, SUM and AVG over
// one shared compiled predicate) sampled by four concurrent forks draws
// exactly its sample cap, streams every sample once and in order, and
// stays unbiased. Under -race this pins that the forks share the plan
// without racing; they only draw, and the folding goroutine alone calls
// Value (TestParallelValueOnCollector pins that).
func TestExecuteParallelFusedGroup(t *testing.T) {
	svc, db := smallService(t, 150, 3, 6)
	where := TagEq("flag", "yes")
	plan, err := PlanBatch([]AggSpec{
		CountSpec().WithWhere(where),
		SumSpec("weight").WithWhere(where),
		AvgSpec("weight").WithWhere(where),
	}, PlanOptions{Seed: 5, MaxSamples: 256, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Aggs) != 2 {
		t.Fatalf("plan %+v, want 2 fused aggregates", plan.Aggs)
	}
	events := 0
	br, err := plan.Execute(context.Background(), svc, func(pp PlanProgress) {
		events++
		if pp.Samples != events {
			t.Errorf("progress %d reports %d samples", events, pp.Samples)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Samples != 256 || events != 256 {
		t.Fatalf("samples %d (events %d), want exactly 256", br.Samples, events)
	}
	if br.Queries != svc.QueryCount() {
		t.Errorf("queries %d, service counted %d", br.Queries, svc.QueryCount())
	}
	truth := float64(db.Count(func(tp *lbs.Tuple) bool { return tp.Tag("flag") == "yes" }))
	checkZ(t, "parallel fused COUNT", br.Results[0], truth, 5)
	if want := br.Results[1].Estimate / br.Results[0].Estimate; br.Results[2].Estimate != want {
		t.Errorf("AVG %v, want SUM/COUNT of the shared stream %v", br.Results[2].Estimate, want)
	}
}

// TestExecuteCancelYieldsPartials: cancellation mid-run is graceful —
// partial results with completed samples, no error.
func TestExecuteCancelYieldsPartials(t *testing.T) {
	svc, _ := smallService(t, 40, 2, 5)
	plan, err := PlanBatch([]AggSpec{CountSpec()}, PlanOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	br, err := plan.Execute(ctx, svc, func(PlanProgress) {
		if n++; n >= 5 {
			cancel()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Samples == 0 || br.Results[0].Samples == 0 {
		t.Fatalf("canceled run returned no partials: %+v", br)
	}
}

// TestPlanAggregatesReadEveryRecordAfresh: a fused aggregate's value
// depends on its record alone. Two records with one ID and location
// but different tags — a live delete and re-insert at the same spot —
// must each be judged by their own tags, even back to back.
func TestPlanAggregatesReadEveryRecordAfresh(t *testing.T) {
	where := TagEq("color", "red")
	plan, err := PlanBatch([]AggSpec{CountSpec().WithWhere(where), SumSpec("x").WithWhere(where)}, PlanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loc := geom.Pt(3, 4)
	red := Record{ID: 7, HasLoc: true, Loc: loc, Tags: map[string]string{"color": "red"}, Attrs: map[string]float64{"x": 5}}
	blue := Record{ID: 7, HasLoc: true, Loc: loc, Tags: map[string]string{"color": "blue"}, Attrs: map[string]float64{"x": 5}}
	if got := plan.Aggs[0].Value(red); got != 1 {
		t.Fatalf("COUNT(red record) = %v, want 1", got)
	}
	if got := plan.Aggs[1].Value(blue); got != 0 {
		t.Errorf("SUM(x | color=red) of a blue record = %v, want 0", got)
	}
	if got := plan.Aggs[0].Value(blue); got != 0 {
		t.Errorf("COUNT(color=red) of a blue record = %v, want 0", got)
	}
}

// TestQueryPlanReusable: a plan carries no run state, so executing it
// twice serially at its seed returns bit-identical BatchResults.
func TestQueryPlanReusable(t *testing.T) {
	svc, _ := smallService(t, 120, 3, 9)
	plan, err := PlanBatch(batchSpecs(12), PlanOptions{Seed: 11, MaxSamples: 60})
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Execute(context.Background(), svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := plan.Execute(context.Background(), svc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Samples != second.Samples || first.Queries != second.Queries ||
		first.DegradedSamples != second.DegradedSamples || first.CIMet != second.CIMet {
		t.Fatalf("accounts differ: %+v vs %+v", first, second)
	}
	for i, a := range first.Results {
		b := second.Results[i]
		if a.Name != b.Name || a.Samples != b.Samples || a.Queries != b.Queries ||
			math.Float64bits(a.Estimate) != math.Float64bits(b.Estimate) ||
			math.Float64bits(a.StdErr) != math.Float64bits(b.StdErr) ||
			math.Float64bits(a.CI95) != math.Float64bits(b.CI95) {
			t.Errorf("spec %d: first %+v, second %+v", i, a, b)
		}
	}
}
