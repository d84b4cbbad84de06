package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
)

// lnrFixture builds a small service and returns ground-truth helpers.
func lnrFixture(n int, k int, seed int64) (*lbs.Service, *lbs.Database) {
	db := smallService2(n, seed)
	return lbs.NewService(db, lbs.Options{K: k}), db
}

// truthCellArea computes the exact top-h cell area of the tuple with
// the given index using full knowledge.
func truthCellArea(db *lbs.Database, idx, h int) float64 {
	target := db.Tuple(idx).Loc
	sites := make([]cell.Site, 0, db.Len()-1)
	for i := 0; i < db.Len(); i++ {
		if i == idx {
			continue
		}
		sites = append(sites, cell.Site{Key: db.Tuple(i).ID, Loc: db.Tuple(i).Loc})
	}
	c := cell.BuildFromSites(db.Bounds().Polygon(), h, target, sites)
	return c.Area()
}

func TestLNRCellMatchesGroundTruthTop1(t *testing.T) {
	svc, db := lnrFixture(40, 5, 211)
	agg := NewLNRAggregator(svc, LNROptions{Seed: 1, EdgeEps: svc.Bounds().Diagonal() * 1e-4})
	// Pick a few tuples by probing their own locations (top-1 there).
	for idx := 0; idx < 8; idx++ {
		loc := db.Tuple(idx).Loc
		region, _, err := agg.buildCell(context.Background(), db.Tuple(idx).ID, 1, loc)
		if err != nil {
			t.Fatalf("tuple %d: %v", idx, err)
		}
		got := region.Area()
		want := truthCellArea(db, idx, 1)
		if math.Abs(got-want) > 0.02*want+1e-6 {
			t.Errorf("tuple %d: inferred area %v vs truth %v", idx, got, want)
		}
	}
}

func TestLNRCellMatchesGroundTruthTopK(t *testing.T) {
	svc, db := lnrFixture(40, 6, 223)
	agg := NewLNRAggregator(svc, LNROptions{H: 3, Seed: 2, EdgeEps: svc.Bounds().Diagonal() * 1e-4})
	for idx := 0; idx < 6; idx++ {
		loc := db.Tuple(idx).Loc
		region, _, err := agg.buildCell(context.Background(), db.Tuple(idx).ID, 3, loc)
		if err != nil {
			t.Fatalf("tuple %d: %v", idx, err)
		}
		got := region.Area()
		want := truthCellArea(db, idx, 3)
		if math.Abs(got-want) > 0.05*want+1e-6 {
			t.Errorf("tuple %d: top-3 inferred area %v vs truth %v", idx, got, want)
		}
	}
}

func TestLNRCountEstimate(t *testing.T) {
	svc, db := lnrFixture(50, 3, 227)
	agg := NewLNRAggregator(svc, LNROptions{Seed: 3})
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	checkZ(t, "LNR COUNT", res[0], float64(db.Len()), 4)
	if agg.Stats().Cells == 0 || agg.Stats().EdgeSearches == 0 {
		t.Errorf("stats not recorded: %+v", agg.Stats())
	}
}

func TestLNRCountTopH(t *testing.T) {
	svc, db := lnrFixture(60, 5, 229)
	agg := NewLNRAggregator(svc, LNROptions{H: 2, Seed: 5})
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(120))
	if err != nil {
		t.Fatal(err)
	}
	checkZ(t, "LNR COUNT h=2", res[0], float64(db.Len()), 4.5)
}

func TestLNRAttributeAggregates(t *testing.T) {
	// Gender-ratio style estimation: tags survive the rank-only
	// interface.
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	tuples := make([]lbs.Tuple, 80)
	male := 0
	for i := range tuples {
		g := "f"
		if i%3 == 0 {
			g = "m"
			male++
		}
		tuples[i] = lbs.Tuple{
			ID:   int64(i + 1),
			Loc:  geom.Pt(float64(7+(i*13)%87), float64(5+(i*29)%91)),
			Tags: map[string]string{"gender": g},
		}
	}
	db := lbs.NewDatabase(bounds, tuples)
	svc := lbs.NewService(db, lbs.Options{K: 3})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 7})
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec().WithWhere(TagEq("gender", "m")), CountSpec()), WithMaxSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	checkZ(t, "LNR COUNT(m)", res[0], float64(male), 4)
	ratio := RatioOf(res[0], res[1])
	truth := float64(male) / float64(len(tuples))
	if math.Abs(ratio.Estimate-truth) > 0.15 {
		t.Errorf("gender ratio %v vs %v", ratio.Estimate, truth)
	}
}

func TestLNRLocalizeExact(t *testing.T) {
	// Without obfuscation, localization must recover tuple positions to
	// ~EdgeEps precision.
	svc, db := lnrFixture(40, 5, 233)
	eps := svc.Bounds().Diagonal() * 1e-4
	agg := NewLNRAggregator(svc, LNROptions{Seed: 11, EdgeEps: eps})
	okCount := 0
	var worst float64
	for idx := 0; idx < 10; idx++ {
		truth := db.Tuple(idx).Loc
		got, err := agg.Localize(context.Background(), db.Tuple(idx).ID, truth)
		if err != nil {
			t.Logf("tuple %d: %v", idx, err)
			continue
		}
		d := got.Dist(truth)
		if d > worst {
			worst = d
		}
		if d <= 20*eps {
			okCount++
		}
	}
	if okCount < 7 {
		t.Errorf("only %d/10 tuples localized within 20ε (worst %v, ε=%v)", okCount, worst, eps)
	}
}

func TestLNRLocalizeObfuscated(t *testing.T) {
	// With obfuscation the recovered position approximates the
	// *effective* location; error vs the true location is dominated by
	// the obfuscation radius (the Figure 21 effect).
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	tuples := make([]lbs.Tuple, 50)
	for i := range tuples {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: geom.Pt(float64(3+(i*17)%94), float64(2+(i*31)%96))}
	}
	obf := lbs.Obfuscation{GridSize: 2.0, Jitter: 0.5, Seed: 5}
	db := lbs.NewObfuscatedDatabase(bounds, tuples, obf)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 13, EdgeEps: bounds.Diagonal() * 1e-4})
	var errEff, errTrue []float64
	for idx := 0; idx < 8; idx++ {
		eff := db.EffectiveLoc(idx)
		got, err := agg.Localize(context.Background(), db.Tuple(idx).ID, eff)
		if err != nil {
			continue
		}
		errEff = append(errEff, got.Dist(eff))
		errTrue = append(errTrue, got.Dist(db.Tuple(idx).Loc))
	}
	if len(errEff) < 4 {
		t.Fatalf("too few successful localizations: %d", len(errEff))
	}
	meanEff, meanTrue := mean(errEff), mean(errTrue)
	if meanEff > 0.5 {
		t.Errorf("effective-location error too large: %v", meanEff)
	}
	if meanTrue < meanEff {
		t.Errorf("true-location error %v should exceed effective error %v under obfuscation",
			meanTrue, meanEff)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestLNRLocationCondition(t *testing.T) {
	// COUNT with a location-based selection over a rank-only interface
	// forces position inference per sampled tuple (§4.3 use case).
	svc, db := lnrFixture(40, 5, 239)
	sub := geom.NewRect(geom.Pt(0, 0), geom.Pt(50, 100))
	truth := float64(db.Count(func(tp *lbs.Tuple) bool { return sub.Contains(tp.Loc) }))
	agg := NewLNRAggregator(svc, LNROptions{Seed: 17})
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec().WithWhere(InRect(sub))), WithMaxSamples(120))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Stats().Localizations == 0 {
		t.Fatalf("no localizations performed for a location-based aggregate")
	}
	checkZ(t, "LNR COUNT(in-rect)", res[0], truth, 4.5)
}

func TestLNRBudgetStops(t *testing.T) {
	db := smallService2(60, 241)
	svc := lbs.NewService(db, lbs.Options{K: 2, Budget: 3000})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 19})
	res, err := agg.Run(context.Background(), aggsOf(t, CountSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Queries > 3000 {
		t.Errorf("budget exceeded: %d", res[0].Queries)
	}
}

func TestLNRTheorem2Bound(t *testing.T) {
	db := smallService2(50, 251)
	nn := NearestNeighborDists(db)
	if len(nn) != 50 {
		t.Fatalf("nearest dists: %d", len(nn))
	}
	b1, u1 := CountBiasBound(nn, 0.001)
	b2, u2 := CountBiasBound(nn, 0.01)
	if u1 != 0 {
		t.Errorf("tiny eps should bound all tuples, %d unbounded", u1)
	}
	if b2 <= b1 {
		t.Errorf("bound must grow with eps: %v vs %v", b1, b2)
	}
	_ = u2
	// The bound vanishes as eps → 0.
	b0, _ := CountBiasBound(nn, 1e-12)
	if b0 > 1e-6 {
		t.Errorf("bound should vanish with eps: %v", b0)
	}
}

func TestVolumeRatioBound(t *testing.T) {
	if VolumeRatioBound(1, 2) != 0 {
		t.Errorf("d<=eps should give 0")
	}
	r := VolumeRatioBound(10, 1)
	if math.Abs(r-0.81) > 1e-12 {
		t.Errorf("ratio: %v", r)
	}
	if VolumeRatioBound(10, 0) != 1 {
		t.Errorf("eps=0 should give 1")
	}
}

func TestLNRProberCaching(t *testing.T) {
	db := smallService2(30, 257)
	svc := lbs.NewService(db, lbs.Options{K: 2})
	p := newLNRProber(svc, nil)
	pt := geom.Pt(10, 10)
	if _, err := p.probe(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
	if _, err := p.probe(context.Background(), pt); err != nil {
		t.Fatal(err)
	}
	if svc.QueryCount() != 1 {
		t.Errorf("cache miss on identical probe: %d queries", svc.QueryCount())
	}
}

func TestRelOrder(t *testing.T) {
	recs := []lbs.LNRRecord{{ID: 5}, {ID: 9}, {ID: 2}}
	if relOrder(recs, 5, 9) != 1 || relOrder(recs, 9, 5) != -1 {
		t.Errorf("both present ordering")
	}
	if relOrder(recs, 5, 77) != 1 || relOrder(recs, 77, 5) != -1 {
		t.Errorf("presence ordering")
	}
	if relOrder(recs, 70, 77) != 0 {
		t.Errorf("both absent should be unknown")
	}
}

func TestEdgeSearchParams(t *testing.T) {
	b := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	p := newEdgeSearchParams(0.1, b)
	if p.deltaPrime != 0.05 {
		t.Errorf("deltaPrime: %v", p.deltaPrime)
	}
	if d := p.fineDelta(10); d <= 0 || d > p.deltaCoarse {
		t.Errorf("fineDelta: %v", d)
	}
	// Fine delta shrinks with anchor distance (angular requirement).
	if p.fineDelta(100) >= p.fineDelta(1) {
		t.Errorf("fineDelta not decreasing in r")
	}
}
