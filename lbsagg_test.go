package lbsagg_test

import (
	"context"
	"errors"
	"math"
	"testing"

	lbsagg "repro"
)

// compileAll compiles COUNT/SUM specs through the facade.
func compileAll(tb testing.TB, specs ...lbsagg.AggSpec) []lbsagg.Aggregate {
	tb.Helper()
	aggs := make([]lbsagg.Aggregate, len(specs))
	for i := range specs {
		a, err := specs[i].Compile()
		if err != nil {
			tb.Fatal(err)
		}
		aggs[i] = a
	}
	return aggs
}

// TestFacadeQuickstart exercises the public API exactly as the README
// quick start does.
func TestFacadeQuickstart(t *testing.T) {
	bounds := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(100, 100))
	tuples := make([]lbsagg.Tuple, 50)
	for i := range tuples {
		tuples[i] = lbsagg.Tuple{
			ID:    int64(i + 1),
			Loc:   lbsagg.Pt(float64(3+(i*17)%94), float64(5+(i*31)%89)),
			Attrs: map[string]float64{"v": float64(i % 7)},
		}
	}
	db := lbsagg.NewDatabase(bounds, tuples)
	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 5})
	agg := lbsagg.NewLRAggregator(svc, lbsagg.DefaultLROptions(42))
	res, err := agg.Run(context.Background(), compileAll(t, lbsagg.CountSpec(), lbsagg.SumSpec("v")), lbsagg.WithMaxSamples(300))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res[0].Estimate-50)/50 > 0.2 && math.Abs(res[0].Estimate-50) > 5*res[0].StdErr {
		t.Errorf("facade COUNT: %+v", res[0])
	}
	avg := lbsagg.RatioOf(res[1], res[0])
	if avg.Estimate <= 0 {
		t.Errorf("facade AVG: %+v", avg)
	}
}

// TestFacadeLNRAndScenarios covers the LNR path and the scenario
// constructors through the facade.
func TestFacadeLNRAndScenarios(t *testing.T) {
	sc := lbsagg.WeiboChina(150, 7)
	svc := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 5})
	agg := lbsagg.NewLNRAggregator(svc, lbsagg.LNROptions{Seed: 3})
	res, err := agg.Run(context.Background(), compileAll(t, lbsagg.CountSpec().WithWhere(lbsagg.TagEq("gender", "m"))), lbsagg.WithMaxSamples(40))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queries == 0 || res[0].Samples != 40 {
		t.Errorf("LNR run accounting: %+v", res[0])
	}
}

// TestFacadeSamplers covers the sampler constructors.
func TestFacadeSamplers(t *testing.T) {
	r := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(10, 10))
	u := lbsagg.NewUniformSampler(r)
	if u.Density(lbsagg.Pt(5, 5)) != 0.01 {
		t.Errorf("uniform density")
	}
	g := lbsagg.NewGridSampler(r, 2, 1, []float64{1, 3})
	if g.Density(lbsagg.Pt(7, 5)) <= g.Density(lbsagg.Pt(2, 5)) {
		t.Errorf("grid weights not respected")
	}
	pts := []lbsagg.Point{lbsagg.Pt(1, 1), lbsagg.Pt(2, 2)}
	if lbsagg.GridFromPoints(r, 4, 4, pts, 1) == nil {
		t.Errorf("GridFromPoints")
	}
}

// TestFacadeFilters covers pass-through filters via the facade.
func TestFacadeFilters(t *testing.T) {
	sc := lbsagg.StarbucksUS(30, 100, 5)
	svc := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 3})
	res, err := svc.QueryLR(context.Background(), lbsagg.Pt(2000, 1200), lbsagg.NameFilter("Starbucks"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res {
		if rec.Name != "Starbucks" {
			t.Errorf("filter leak: %+v", rec)
		}
	}
}

// TestFacadeFederation covers the scale-out surface: a StackSpec
// federation over an in-memory database answers like a single service,
// runs an estimator unchanged and reports per-shard stats.
func TestFacadeFederation(t *testing.T) {
	sc := lbsagg.USASchools(200, 3)
	ctx := context.Background()
	st, err := lbsagg.StackSpec{K: 5, Shards: 4}.Build(ctx, sc.DB)
	if err != nil {
		t.Fatal(err)
	}
	single := lbsagg.NewService(sc.DB, lbsagg.ServiceOptions{K: 5})
	q := sc.DB.Bounds().Center()
	want, _ := single.QueryLR(ctx, q, nil)
	got, err := st.Querier.QueryLR(ctx, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) || want[0].ID != got[0].ID {
		t.Fatalf("federated answer diverges: %+v vs %+v", want, got)
	}
	// An estimator runs over the stack unchanged.
	agg := lbsagg.NewLRAggregator(st.Querier, lbsagg.DefaultLROptions(42))
	res, err := agg.Run(ctx, compileAll(t, lbsagg.CountSpec()), lbsagg.WithMaxSamples(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Samples != 5 {
		t.Fatalf("federated estimator run: %+v", res)
	}
	if rs := routerStats(t, st); rs.Logical == 0 || len(rs.Shards) != 4 {
		t.Fatalf("router stats: %+v", rs)
	}
}

// routerStats reads the federation stats of a stack built with Shards.
func routerStats(t *testing.T, st *lbsagg.Stack) lbsagg.ShardRouterStats {
	t.Helper()
	r, ok := st.Querier.(interface {
		Stats() lbsagg.ShardRouterStats
	})
	if !ok {
		t.Fatalf("%T is not a federation", st.Querier)
	}
	return r.Stats()
}

// TestFacadeFaultTolerance exercises the failure-handling exports over
// a StackSpec federation whose members die after their eighth call: a
// dead owner fails with ErrOwnerDown until its breaker opens, then the
// query is answered degraded by the survivor with a partial
// annotation, which a tolerant wrapper absorbs for estimation layers.
func TestFacadeFaultTolerance(t *testing.T) {
	sc := lbsagg.USASchools(150, 4)
	ctx := context.Background()
	st, err := lbsagg.StackSpec{K: 10, Shards: 2, FaultSpec: "down-after=8"}.Build(ctx, sc.DB)
	if err != nil {
		t.Fatal(err)
	}
	// The corner of member 1's region farthest from member 0's: its
	// answer never needs member 0, so only member 1 spends calls.
	rs := routerStats(t, st)
	far, other := rs.Shards[1].Region, rs.Shards[0].Region.Center()
	dead := lbsagg.Pt(far.Min.X, far.Min.Y)
	for _, c := range []lbsagg.Point{far.Min, far.Max, lbsagg.Pt(far.Min.X, far.Max.Y), lbsagg.Pt(far.Max.X, far.Min.Y)} {
		if c.Dist2(other) > dead.Dist2(other) {
			dead = c
		}
	}
	failures := 0
	for i := 0; i < 20 && failures < 5; i++ {
		if _, err := st.Querier.QueryLR(ctx, dead, nil); errors.Is(err, lbsagg.ErrOwnerDown) {
			failures++
		} else if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	rs = routerStats(t, st)
	if failures != 5 || rs.Shards[1].State != lbsagg.BreakerOpen {
		t.Fatalf("after %d owner-down failures: breaker %s", failures, rs.Shards[1].State)
	}
	if rs.Shards[0].Queries != 0 {
		t.Fatalf("member 0 answered %d queries for the far corner", rs.Shards[0].Queries)
	}
	recs, err := st.Querier.QueryLR(ctx, dead, nil)
	pe, ok := lbsagg.IsPartialAnswer(err)
	if !ok || len(recs) == 0 || pe.Degraded != 1 {
		t.Fatalf("degraded answer: %d recs, %v", len(recs), err)
	}
	tol := lbsagg.NewTolerantQuerier(st.Querier)
	if _, err := tol.QueryLR(ctx, dead, nil); err != nil {
		t.Fatalf("tolerant wrapper surfaced: %v", err)
	}
	if tol.DegradedCount() == 0 {
		t.Fatal("tolerant wrapper did not count the degraded answer")
	}
}
