package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
	"repro/internal/workload"
)

// checkZ asserts the estimate is within zmax standard errors of truth
// (falling back to a relative-error check when StdErr is degenerate).
func checkZ(t *testing.T, label string, res Result, truth, zmax float64) {
	t.Helper()
	se := res.StdErr
	if se <= 0 || math.IsNaN(se) {
		if rel := res.RelErr(truth); rel > 0.25 {
			t.Errorf("%s: estimate %v vs truth %v (rel %v, no stderr)", label, res.Estimate, truth, rel)
		}
		return
	}
	z := math.Abs(res.Estimate-truth) / se
	if z > zmax {
		t.Errorf("%s: estimate %v vs truth %v (z=%v, se=%v)", label, res.Estimate, truth, z, se)
	}
}

// smallService builds a clustered test database with known aggregates.
func smallService(t *testing.T, n, k int, seed int64) (*lbs.Service, *lbs.Database) {
	t.Helper()
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 5, UniformFrac: 0.2, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		tuples[i] = lbs.Tuple{
			ID:  int64(i + 1),
			Loc: p,
			Attrs: map[string]float64{
				"weight": 1 + rng.Float64()*9,
			},
			Tags: map[string]string{"flag": map[bool]string{true: "yes", false: "no"}[rng.Float64() < 0.4]},
		}
	}
	db := lbs.NewDatabase(bounds, tuples)
	return lbs.NewService(db, lbs.Options{K: k}), db
}

func TestLRCountUnbiasedBaseline(t *testing.T) {
	// The §3.1 baseline (no devices) must estimate COUNT(*) accurately.
	svc, db := smallService(t, 60, 1, 3)
	agg := NewLRAggregator(svc, LROptions{Seed: 11})
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(400))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(db.Len())
	checkZ(t, "baseline COUNT", res[0], truth, 4)
	if res[0].Samples != 400 {
		t.Errorf("samples: %d", res[0].Samples)
	}
	if res[0].Queries <= 0 {
		t.Errorf("no queries recorded")
	}
}

func TestLRCountAllDevices(t *testing.T) {
	svc, db := smallService(t, 80, 5, 7)
	agg := NewLRAggregator(svc, DefaultLROptions(13))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(400))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(db.Len())
	checkZ(t, "full AGG COUNT", res[0], truth, 4)
	st := agg.Stats()
	if st.Cells == 0 || st.VertexQueries == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

func TestLRSumEstimate(t *testing.T) {
	svc, db := smallService(t, 70, 3, 17)
	agg := NewLRAggregator(svc, DefaultLROptions(5))
	res, err := agg.Run(context.Background(), aggsOf(t, SumSpec("weight"), CountSpec()), WithMaxSamples(400))
	if err != nil {
		t.Fatal(err)
	}
	truthSum := db.GroundTruth(func(tp *lbs.Tuple) float64 { return tp.Attr("weight") }, nil)
	checkZ(t, "SUM(weight)", res[0], truthSum, 4)
	// Ratio (AVG) via shared samples.
	avg := RatioOf(res[0], res[1])
	truthAvg := truthSum / float64(db.Len())
	checkZ(t, "AVG(weight)", avg, truthAvg, 5)
}

func TestLRPostProcessCondition(t *testing.T) {
	svc, db := smallService(t, 80, 2, 23)
	agg := NewLRAggregator(svc, DefaultLROptions(29))
	cond := CountSpec().WithWhere(TagEq("flag", "yes"))
	res, err := agg.Run(context.Background(), aggsOf(t, cond), WithMaxSamples(500))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(db.Count(func(tp *lbs.Tuple) bool { return tp.Tag("flag") == "yes" }))
	checkZ(t, "COUNT(flag)", res[0], truth, 4)
}

func TestLRPassThroughFilter(t *testing.T) {
	// Pass-through selection: the service only exposes tuples with the
	// flag; COUNT(*) over the filtered view equals the conditional count.
	svc, db := smallService(t, 80, 2, 31)
	filter := func(tp *lbs.Tuple) bool { return tp.Tag("flag") == "yes" }
	opts := DefaultLROptions(37)
	opts.Filter = filter
	agg := NewLRAggregator(svc, opts)
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(400))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(db.Count(filter))
	checkZ(t, "pass-through COUNT", res[0], truth, 4)
}

func TestLRWeightedSamplerStillUnbiased(t *testing.T) {
	// §5.2: weighted sampling must preserve unbiasedness even when the
	// density knowledge is noisy.
	svc, db := smallService(t, 60, 2, 41)
	pts := make([]geom.Point, db.Len())
	for i := range pts {
		pts[i] = db.Tuple(i).Loc
	}
	grid := sampling.GridFromPoints(svc.Bounds(), 10, 10, pts, 1)
	noisy := grid.Noisy(rand.New(rand.NewSource(2)), 0.7)
	opts := DefaultLROptions(43)
	opts.Sampler = noisy
	agg := NewLRAggregator(svc, opts)
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(400))
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(db.Len())
	checkZ(t, "weighted COUNT", res[0], truth, 4)
}

func TestLRWeightedReducesVariance(t *testing.T) {
	// Weighted sampling should reduce per-sample variance on clustered
	// data (the Figure 13 effect), comparing across several seeds.
	svc, db := smallService(t, 150, 1, 47)
	pts := make([]geom.Point, db.Len())
	for i := range pts {
		pts[i] = db.Tuple(i).Loc
	}
	grid := sampling.GridFromPoints(svc.Bounds(), 12, 12, pts, 1)
	var uniVar, wVar float64
	for seed := int64(0); seed < 3; seed++ {
		optsU := DefaultLROptions(100 + seed)
		aggU := NewLRAggregator(svc, optsU)
		resU, err := aggU.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(150))
		if err != nil {
			t.Fatal(err)
		}
		uniVar += resU[0].StdErr * resU[0].StdErr

		optsW := DefaultLROptions(200 + seed)
		optsW.Sampler = grid
		aggW := NewLRAggregator(svc, optsW)
		resW, err := aggW.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(150))
		if err != nil {
			t.Fatal(err)
		}
		wVar += resW[0].StdErr * resW[0].StdErr
	}
	if wVar >= uniVar {
		t.Errorf("weighted variance %v not below uniform %v", wVar, uniVar)
	}
}

func TestLRMaxRadiusEmptyAnswers(t *testing.T) {
	// With a tight coverage radius, many sampled queries return empty;
	// the estimator must remain accurate via the zero-contribution rule.
	svc0, db := smallService(t, 100, 2, 53)
	capped := lbs.NewService(db, lbs.Options{K: 2, MaxRadius: 8})
	_ = svc0
	agg := NewLRAggregator(capped, DefaultLROptions(59))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(600))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Stats().EmptyAnswers == 0 {
		t.Fatalf("expected some empty answers with MaxRadius=8")
	}
	truth := float64(db.Len())
	checkZ(t, "capped COUNT", res[0], truth, 4)
}

func TestLRBudgetStops(t *testing.T) {
	db := smallService2(120, 61)
	svc := lbs.NewService(db, lbs.Options{K: 1, Budget: 300})
	agg := NewLRAggregator(svc, DefaultLROptions(67))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queries > 300 {
		t.Errorf("exceeded budget: %d", res[0].Queries)
	}
	if res[0].Samples == 0 {
		t.Errorf("no samples completed")
	}
}

// smallService2 is a helper without *testing.T for reuse.
func smallService2(n int, seed int64) *lbs.Database {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 5, UniformFrac: 0.2, Seed: seed,
	})
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: p}
	}
	return lbs.NewDatabase(bounds, tuples)
}

func TestLRMaxQueriesStops(t *testing.T) {
	db := smallService2(100, 71)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	agg := NewLRAggregator(svc, DefaultLROptions(73))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxQueries(500))
	if err != nil {
		t.Fatal(err)
	}
	// The run may overshoot by at most one sample's worth of queries.
	if res[0].Queries > 700 {
		t.Errorf("query stop ineffective: %d", res[0].Queries)
	}
}

func TestLRHistoryReducesCost(t *testing.T) {
	// §3.2.2: with history, per-sample query cost must drop over time.
	db := smallService2(150, 79)
	svcA := lbs.NewService(db, lbs.Options{K: 1})
	aggNoHist := NewLRAggregator(svcA, LROptions{Seed: 83, FastInit: true})
	if _, err := aggNoHist.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(120)); err != nil {
		t.Fatal(err)
	}
	costNo := float64(svcA.QueryCount()) / 120

	svcB := lbs.NewService(db, lbs.Options{K: 1})
	aggHist := NewLRAggregator(svcB, LROptions{Seed: 83, FastInit: true, UseHistory: true})
	if _, err := aggHist.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(120)); err != nil {
		t.Fatal(err)
	}
	costHist := float64(svcB.QueryCount()) / 120
	if costHist >= costNo {
		t.Errorf("history cost/sample %v not below no-history %v", costHist, costNo)
	}
}

func TestLRFastInitReducesCost(t *testing.T) {
	db := smallService2(150, 89)
	svcA := lbs.NewService(db, lbs.Options{K: 1})
	agg0 := NewLRAggregator(svcA, LROptions{Seed: 97})
	if _, err := agg0.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(100)); err != nil {
		t.Fatal(err)
	}
	cost0 := float64(svcA.QueryCount()) / 100

	svcB := lbs.NewService(db, lbs.Options{K: 1})
	agg1 := NewLRAggregator(svcB, LROptions{Seed: 97, FastInit: true})
	if _, err := agg1.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(100)); err != nil {
		t.Fatal(err)
	}
	cost1 := float64(svcB.QueryCount()) / 100
	if cost1 >= cost0 {
		t.Errorf("fast-init cost/sample %v not below baseline %v", cost1, cost0)
	}
}

func TestLRAdaptiveHRecorded(t *testing.T) {
	db := smallService2(200, 101)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	opts := DefaultLROptions(103)
	opts.FixedH = 0
	opts.Lambda0Frac = 0.05
	agg := NewLRAggregator(svc, opts)
	if _, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(150)); err != nil {
		t.Fatal(err)
	}
	st := agg.Stats()
	total := 0
	multi := 0
	for h, n := range st.AdaptiveHChosen {
		total += n
		if h > 1 {
			multi += n
		}
	}
	if total == 0 {
		t.Fatalf("adaptive choice never exercised")
	}
	if multi == 0 {
		t.Errorf("adaptive h never chose h>1 with generous λ0: %v", st.AdaptiveHChosen)
	}
}

func TestLRFixedHVariants(t *testing.T) {
	// Every fixed h must stay (approximately) unbiased.
	db := smallService2(80, 107)
	truth := float64(db.Len())
	for _, h := range []int{1, 2, 3} {
		svc := lbs.NewService(db, lbs.Options{K: 3})
		opts := DefaultLROptions(109 + int64(h))
		opts.FixedH = h
		agg := NewLRAggregator(svc, opts)
		res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(300))
		if err != nil {
			t.Fatalf("h=%d: %v", h, err)
		}
		checkZ(t, fmt.Sprintf("h=%d COUNT", h), res[0], truth, 4.5)
	}
}

func TestLRNoAggregatesError(t *testing.T) {
	db := smallService2(10, 113)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	agg := NewLRAggregator(svc, DefaultLROptions(1))
	if _, err := agg.Run(context.Background(), nil, WithMaxSamples(10)); err == nil {
		t.Errorf("expected error with no aggregates")
	}
}

func TestLRTraceMonotoneQueries(t *testing.T) {
	db := smallService2(60, 127)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	agg := NewLRAggregator(svc, DefaultLROptions(131))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(50))
	if err != nil {
		t.Fatal(err)
	}
	tr := res[0].Trace
	if len(tr) != 50 {
		t.Fatalf("trace length: %d", len(tr))
	}
	for i := 1; i < len(tr); i++ {
		if tr[i].Queries < tr[i-1].Queries {
			t.Fatalf("trace queries not monotone at %d", i)
		}
	}
}

// TestLRUnbiasednessManyRuns is the statistical heart: across many
// short runs, the mean of the estimator must land within a few
// standard errors of the truth, and per-cell computation must be exact
// enough that even the Monte-Carlo variant shows no systematic bias.
func TestLRUnbiasednessManyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	db := smallService2(50, 137)
	truth := float64(db.Len())
	var acc Accumulator
	for seed := int64(0); seed < 30; seed++ {
		svc := lbs.NewService(db, lbs.Options{K: 3})
		agg := NewLRAggregator(svc, DefaultLROptions(1000+seed))
		res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(60))
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(res[0].Estimate)
	}
	z := (acc.Mean() - truth) / math.Max(acc.StdErr(), 1e-9)
	if math.Abs(z) > 4 {
		t.Errorf("bias detected: mean %v vs truth %v (z=%v)", acc.Mean(), truth, z)
	}
}

// TestLRCellExactness verifies the Theorem-1 loop computes the exact
// Voronoi-cell mass: with the full-device aggregator on a fixed
// dataset, per-sample weights for the same tuple must agree with the
// ground-truth cell area (checked through the estimate of COUNT over a
// 1-tuple-per-query interface with Monte Carlo disabled).
func TestLRCellExactness(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	tuples := []lbs.Tuple{
		{ID: 1, Loc: geom.Pt(2, 2)},
		{ID: 2, Loc: geom.Pt(8, 3)},
		{ID: 3, Loc: geom.Pt(5, 8)},
		{ID: 4, Loc: geom.Pt(3, 6)},
	}
	db := lbs.NewDatabase(bounds, tuples)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	opts := LROptions{Seed: 139, FastInit: true, UseHistory: true}
	agg := NewLRAggregator(svc, opts)
	// With exact cells, each sample's COUNT contribution is
	// |V0|/|V(t)|; over all samples E = 4. With only 4 tuples the
	// estimator has modest variance; 600 samples suffice.
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(600))
	if err != nil {
		t.Fatal(err)
	}
	if rel := res[0].RelErr(4); rel > 0.1 {
		t.Errorf("exact-cell COUNT %v (rel %v)", res[0].Estimate, rel)
	}
}

func TestLRProminenceRankedService(t *testing.T) {
	// §5.3: over a prominence-ranked interface, LR-LBS-AGG re-sorts the
	// answers by distance and remains accurate.
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: 80, Clusters: 4, UniformFrac: 0.3, Seed: 555,
	})
	rng := rand.New(rand.NewSource(556))
	tuples := make([]lbs.Tuple, len(pts))
	for i, p := range pts {
		tuples[i] = lbs.Tuple{
			ID: int64(i + 1), Loc: p,
			Attrs: map[string]float64{"pop": rng.Float64() * 100},
		}
	}
	db := lbs.NewDatabase(bounds, tuples)
	svc := lbs.NewService(db, lbs.Options{
		K: 5, Rank: lbs.RankByProminence,
		ProminenceAttr: "pop", ProminenceWeight: 0.05,
	})
	agg := NewLRAggregator(svc, DefaultLROptions(557))
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(300))
	if err != nil {
		t.Fatal(err)
	}
	checkZ(t, "prominence COUNT", res[0], float64(db.Len()), 4.5)
}
