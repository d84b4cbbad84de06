package shard

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

var shardCounts = []int{1, 2, 4, 8}

// testPoints draws the adversarial query mix of the equivalence
// property: uniform interior points, points hugging every shard-region
// boundary (where owner choice and ball pruning are most delicate),
// exact tuple locations (distance ties), and points outside bounds.
func testPoints(rng *rand.Rand, db *lbs.Database, parts []*lbs.Database, n int) []geom.Point {
	b := db.Bounds()
	var pts []geom.Point
	for i := 0; i < n; i++ {
		pts = append(pts, geom.Pt(
			b.Min.X+rng.Float64()*b.Width(),
			b.Min.Y+rng.Float64()*b.Height(),
		))
	}
	// Points on and just off every shard boundary edge.
	for _, p := range parts {
		r := p.Bounds()
		for _, eps := range []float64{0, 1e-9, -1e-9, 1e-3} {
			y := r.Min.Y + rng.Float64()*r.Height()
			x := r.Min.X + rng.Float64()*r.Width()
			pts = append(pts,
				geom.Pt(r.Min.X+eps, y), geom.Pt(r.Max.X+eps, y),
				geom.Pt(x, r.Min.Y+eps), geom.Pt(x, r.Max.Y+eps))
		}
	}
	// Exact tuple locations: distance ties with the tuple itself and,
	// under grid obfuscation, with its co-snapped neighbors.
	for i := 0; i < n && i < db.Len(); i++ {
		pts = append(pts, db.EffectiveLoc(rng.Intn(db.Len())))
	}
	// Outside the bounding box entirely.
	for i := 0; i < 8; i++ {
		pts = append(pts, geom.Pt(
			b.Min.X-b.Width()*rng.Float64()*2,
			b.Max.Y+b.Height()*rng.Float64()*2))
	}
	return pts
}

// checkEquivalence asserts federated == single-service, bit for bit,
// over serial and batch paths of both interface views.
func checkEquivalence(t *testing.T, db *lbs.Database, opts lbs.Options, nShards int, pts []geom.Point, filter lbs.Filter) {
	t.Helper()
	ctx := context.Background()
	single := lbs.NewService(db, opts)
	router, err := FromPartsWrapped(Partition(db, nShards), opts, DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range pts {
		wantLR, err1 := single.QueryLR(ctx, q, filter)
		gotLR, err2 := router.QueryLR(ctx, q, filter)
		if err1 != nil || err2 != nil {
			t.Fatalf("point %d: errs %v %v", i, err1, err2)
		}
		if !reflect.DeepEqual(wantLR, gotLR) {
			t.Fatalf("shards=%d point %d (%v): LR mismatch\nsingle: %+v\nfederated: %+v",
				nShards, i, q, wantLR, gotLR)
		}
		wantLNR, _ := single.QueryLNR(ctx, q, filter)
		gotLNR, err := router.QueryLNR(ctx, q, filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantLNR, gotLNR) {
			t.Fatalf("shards=%d point %d (%v): LNR mismatch", nShards, i, q)
		}
	}
	// Batch paths: one batch over the full point set.
	wantB, err1 := single.QueryLRBatch(ctx, pts, filter)
	gotB, err2 := router.QueryLRBatch(ctx, pts, filter)
	if err1 != nil || err2 != nil {
		t.Fatalf("batch errs: %v %v", err1, err2)
	}
	if !reflect.DeepEqual(wantB, gotB) {
		t.Fatalf("shards=%d: LR batch mismatch", nShards)
	}
	wantBN, _ := single.QueryLNRBatch(ctx, pts, filter)
	gotBN, err := router.QueryLNRBatch(ctx, pts, filter)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantBN, gotBN) {
		t.Fatalf("shards=%d: LNR batch mismatch", nShards)
	}
}

// TestFederatedEquivalence is the core property: federated QueryLR /
// QueryLNR (serial and batch) over 1/2/4/8 shards is bit-identical to
// a single Service over the union database, across seeded workloads —
// including the grid-obfuscated WeChat scenario, whose co-snapped
// effective locations make exact distance ties routine.
func TestFederatedEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		db   *lbs.Database
		opts lbs.Options
	}{
		{"schools-k5", workload.USASchools(400, 11).DB, lbs.Options{K: 5}},
		{"schools-k1", workload.USASchools(250, 12).DB, lbs.Options{K: 1}},
		{"schools-radius", workload.USASchools(300, 13).DB, lbs.Options{K: 5, MaxRadius: 40}},
		{"wechat-obfuscated", workload.WeChatChina(400, 14).DB, lbs.Options{K: 8}},
		{"restaurants-prominence", workload.USARestaurants(300, 15).DB, lbs.Options{
			K: 4, Rank: lbs.RankByProminence, ProminenceAttr: "rating", ProminenceWeight: 2,
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			for _, n := range shardCounts {
				parts := Partition(sc.db, n)
				pts := testPoints(rng, sc.db, parts, 40)
				checkEquivalence(t, sc.db, sc.opts, n, pts, nil)
			}
		})
	}
}

// TestFederatedEquivalenceWithFilter checks server-side selection
// pass-through federates exactly.
func TestFederatedEquivalenceWithFilter(t *testing.T) {
	db := workload.USARestaurants(300, 21).DB
	rng := rand.New(rand.NewSource(3))
	parts := Partition(db, 4)
	pts := testPoints(rng, db, parts, 30)
	checkEquivalence(t, db, lbs.Options{K: 5}, 4, pts, lbs.CategoryFilter("restaurant"))
}

// TestPartitionInvariants pins the partitioner contract: disjoint
// tuples covering the union, regions tiling bounds, every tuple's
// effective location inside its shard region.
func TestPartitionInvariants(t *testing.T) {
	db := workload.WeChatChina(500, 7).DB
	for _, n := range shardCounts {
		parts := Partition(db, n)
		if len(parts) != n {
			t.Fatalf("n=%d: got %d parts", n, len(parts))
		}
		seen := make(map[int64]bool)
		total := 0
		for _, p := range parts {
			region := p.Bounds()
			total += p.Len()
			for i := 0; i < p.Len(); i++ {
				id := p.Tuple(i).ID
				if seen[id] {
					t.Fatalf("n=%d: tuple %d in two shards", n, id)
				}
				seen[id] = true
				if !region.Contains(p.EffectiveLoc(i)) {
					t.Fatalf("n=%d: tuple %d effective loc %v outside region %v",
						n, id, p.EffectiveLoc(i), region)
				}
			}
		}
		if total != db.Len() {
			t.Fatalf("n=%d: %d tuples across shards, want %d", n, total, db.Len())
		}
	}
}

// TestFederatedBudget pins the logical cost model: the router's budget
// meters client-visible queries (not fan-out), dies at the same point
// a single service's would, and batch semantics match (granted prefix
// answered, nil holes, ErrBudgetExhausted).
func TestFederatedBudget(t *testing.T) {
	db := workload.USASchools(200, 31).DB
	ctx := context.Background()
	opts := lbs.Options{K: 3, Budget: 10}
	router, err := FromPartsWrapped(Partition(db, 4), opts, DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pts := testPoints(rng, db, Partition(db, 4), 4)[:7]
	if _, err := router.QueryLRBatch(ctx, pts, nil); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if got := router.QueryCount(); got != 7 {
		t.Fatalf("logical count after 7-point batch: %d", got)
	}
	// 5 more against 3 remaining: prefix answered, holes nil.
	out, err := router.QueryLRBatch(ctx, pts[:5], nil)
	if !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted, got %v", err)
	}
	for i, recs := range out {
		if i < 3 && recs == nil {
			t.Fatalf("position %d inside grant is nil", i)
		}
		if i >= 3 && recs != nil {
			t.Fatalf("position %d beyond grant answered", i)
		}
	}
	if got := router.QueryCount(); got != 10 {
		t.Fatalf("count after exhaustion: %d", got)
	}
	if _, err := router.QueryLR(ctx, pts[0], nil); !errors.Is(err, lbs.ErrBudgetExhausted) {
		t.Fatalf("spent budget must refuse: %v", err)
	}
	if rem := router.RemainingBudget(); rem != 0 {
		t.Fatalf("remaining: %d", rem)
	}
}

// TestRouterStats pins the stats aggregation: logical vs upstream
// counts and the per-shard breakdown.
func TestRouterStats(t *testing.T) {
	db := workload.USASchools(200, 41).DB
	router, err := FromPartsWrapped(Partition(db, 4), lbs.Options{K: 5}, DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	b := db.Bounds()
	for i := 0; i < 25; i++ {
		q := geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
		if _, err := router.QueryLR(ctx, q, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := router.Stats()
	if st.Logical != 25 {
		t.Fatalf("logical: %d", st.Logical)
	}
	if st.Upstream < st.Logical {
		t.Fatalf("upstream %d < logical %d", st.Upstream, st.Logical)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("shard stats: %d", len(st.Shards))
	}
	var sum int64
	for _, s := range st.Shards {
		sum += s.Queries
	}
	if sum != st.Upstream {
		t.Fatalf("per-shard sum %d != upstream %d", sum, st.Upstream)
	}
}

// TestRouterRejectsUndersizedShards pins construction-time validation:
// members must answer at least the candidate count.
func TestRouterRejectsUndersizedShards(t *testing.T) {
	db := workload.USASchools(100, 51).DB
	svc := lbs.NewService(db, lbs.Options{K: 3})
	if _, err := NewRouter([]Shard{{Querier: svc, Region: db.Bounds()}}, lbs.Options{K: 5}, DefaultResilience()); err == nil {
		t.Fatal("k=3 shard accepted for k=5 federation")
	}
	// Prominence needs K×overfetch candidates.
	if _, err := NewRouter([]Shard{{Querier: svc, Region: db.Bounds()}}, lbs.Options{
		K: 3, Rank: lbs.RankByProminence, ProminenceAttr: "x",
	}, DefaultResilience()); err == nil {
		t.Fatal("k=3 shard accepted for prominence federation needing 12 candidates")
	}
}

// TestFederatedEmptyShards covers n greater than the tuple count:
// empty shards answer empty and the federation still matches.
func TestFederatedEmptyShards(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	tuples := []lbs.Tuple{
		{ID: 1, Loc: geom.Pt(1, 1)},
		{ID: 2, Loc: geom.Pt(9, 9)},
		{ID: 3, Loc: geom.Pt(5, 5)},
	}
	db := lbs.NewDatabase(bounds, tuples)
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(10, 10), geom.Pt(-3, 4)}
	checkEquivalence(t, db, lbs.Options{K: 2}, 8, pts, nil)
}

// TestFederatedStrayTuples covers databases holding tuples outside
// Bounds() (NewDatabase accepts them): leaf regions grow to cover
// their strays, so ball pruning can never skip the shard owning the
// true nearest tuple and equivalence holds.
func TestFederatedStrayTuples(t *testing.T) {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	tuples := []lbs.Tuple{
		{ID: 1, Loc: geom.Pt(-30, -2)}, // far left of bounds
		{ID: 2, Loc: geom.Pt(2, 2)},
		{ID: 3, Loc: geom.Pt(5, 6)},
		{ID: 4, Loc: geom.Pt(8, 3)},
		{ID: 5, Loc: geom.Pt(14, 12)}, // beyond Max
		{ID: 6, Loc: geom.Pt(9, 9)},
	}
	db := lbs.NewDatabase(bounds, tuples)
	pts := []geom.Point{
		geom.Pt(-25, 0), geom.Pt(0, 0), geom.Pt(5, 5),
		geom.Pt(10, 10), geom.Pt(13, 11), geom.Pt(-5, -5),
	}
	for _, n := range []int{2, 4} {
		checkEquivalence(t, db, lbs.Options{K: 2}, n, pts, nil)
	}
	// Every stray is inside its (grown) shard region.
	for _, p := range Partition(db, 4) {
		for i := 0; i < p.Len(); i++ {
			if !p.Bounds().Contains(p.EffectiveLoc(i)) {
				t.Fatalf("stray tuple %d outside its region", p.Tuple(i).ID)
			}
		}
	}
}
