package lbs

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// tieDB builds a database where many tuples share effective locations
// (the grid-snapped obfuscation shape), with IDs deliberately out of
// construction order, so ordering artifacts of the kd-tree index show.
func tieDB(t *testing.T) *Database {
	t.Helper()
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
	// Three tuples stacked at (2,2), two at (5,5), one at (8,8); IDs
	// assigned in reverse so index order disagrees with ID order.
	locs := []geom.Point{{X: 2, Y: 2}, {X: 5, Y: 5}, {X: 2, Y: 2}, {X: 8, Y: 8}, {X: 2, Y: 2}, {X: 5, Y: 5}}
	tuples := make([]Tuple, len(locs))
	for i, p := range locs {
		tuples[i] = Tuple{ID: int64(100 - i), Loc: p}
	}
	return NewDatabase(bounds, tuples)
}

// TestOrderingTiesBreakByID pins the service ordering contract: exact
// distance ties order by ascending tuple ID, including at the top-k
// selection boundary, regardless of database construction order.
func TestOrderingTiesBreakByID(t *testing.T) {
	db := tieDB(t)
	ctx := context.Background()

	// k=2 from right next to the (2,2) stack: the three co-located
	// tuples (IDs 100, 98, 96) tie at the boundary; the two smallest
	// IDs must win and come back in ID order.
	svc := NewService(db, Options{K: 2})
	recs, err := svc.QueryLR(ctx, geom.Pt(2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != 96 || recs[1].ID != 98 {
		t.Fatalf("boundary tie not resolved by ID: %+v", recs)
	}

	// k=4 sees the whole stack ordered by ID, then the next tuple out.
	svc4 := NewService(db, Options{K: 4})
	recs4, err := svc4.QueryLR(ctx, geom.Pt(2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []int64{96, 98, 100, 95}
	if len(recs4) != 4 {
		t.Fatalf("got %d records", len(recs4))
	}
	for i, id := range wantIDs {
		if recs4[i].ID != id {
			t.Fatalf("rank %d: got ID %d, want %d (%+v)", i, recs4[i].ID, id, recs4)
		}
	}

	// LNR sees the same ranking.
	lnr, err := svc4.QueryLNR(ctx, geom.Pt(2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range wantIDs {
		if lnr[i].ID != id {
			t.Fatalf("lnr rank %d: got ID %d, want %d", i, lnr[i].ID, id)
		}
	}
}

// TestOrderingProminenceTiesBreakByID pins the prominence tie-break:
// equal scores order by tuple ID, not internal index.
func TestOrderingProminenceTiesBreakByID(t *testing.T) {
	db := tieDB(t)
	svc := NewService(db, Options{
		K: 3, Rank: RankByProminence, ProminenceAttr: "pop", ProminenceWeight: 1,
	})
	recs, err := svc.QueryLR(context.Background(), geom.Pt(2, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// All three stacked tuples have dist 0 and no "pop" attribute, so
	// their scores tie exactly; ID order must decide.
	if len(recs) != 3 || recs[0].ID != 96 || recs[1].ID != 98 || recs[2].ID != 100 {
		t.Fatalf("prominence tie not resolved by ID: %+v", recs)
	}
}

// TestQueryOutsideBounds pins the out-of-bounds contract: a query
// point outside Bounds() is answered from the full database exactly
// like an inside point, with MaxRadius still applying.
func TestQueryOutsideBounds(t *testing.T) {
	db := testDB(t)
	ctx := context.Background()

	svc := NewService(db, Options{K: 2})
	far := geom.Pt(-50, -50) // well outside [0,10]²
	recs, err := svc.QueryLR(ctx, far, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != 1 {
		t.Fatalf("outside-bounds query should return the global nearest tuples: %+v", recs)
	}
	if recs[0].Dist != far.Dist(geom.Pt(1, 1)) {
		t.Errorf("distance must be measured from the raw query point: %g", recs[0].Dist)
	}

	// With a coverage radius the same point gets an empty (non-nil)
	// answer — the dmax constraint is anchored at the query point, not
	// at its clamped projection.
	capped := NewService(db, Options{K: 2, MaxRadius: 5})
	empty, err := capped.QueryLR(ctx, far, nil)
	if err != nil {
		t.Fatal(err)
	}
	if empty == nil || len(empty) != 0 {
		t.Fatalf("radius-capped outside query: want empty non-nil, got %v", empty)
	}
}

// TestCacheKeyNegativeZero pins the -0.0 fix: +0.0 and -0.0 are the
// same point and must share one cache entry.
func TestCacheKeyNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 64})
	ctx := context.Background()
	if _, err := c.QueryLR(ctx, geom.Pt(0, 0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLR(ctx, geom.Pt(negZero, negZero), nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("-0.0 and +0.0 keyed differently: %+v", st)
	}
}

// TestOrderingMatchesBruteForce cross-checks the (dist, ID) contract
// against a brute-force oracle over a workload dense with duplicate
// snapped locations.
func TestOrderingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(4, 4))
	tuples := make([]Tuple, 120)
	for i := range tuples {
		// Snap to a coarse grid so exact distance ties abound.
		x := math.Floor(rng.Float64()*4*2) / 2
		y := math.Floor(rng.Float64()*4*2) / 2
		tuples[i] = Tuple{ID: int64(1000 - i), Loc: geom.Pt(x, y)}
	}
	db := NewDatabase(bounds, tuples)
	svc := NewService(db, Options{K: 7})
	ctx := context.Background()
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(rng.Float64()*4, rng.Float64()*4)
		got, err := svc.QueryLR(ctx, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: sort all tuples by (dist, ID), take 7.
		type cand struct {
			id int64
			d  float64
		}
		cands := make([]cand, len(tuples))
		for i := range tuples {
			cands[i] = cand{id: tuples[i].ID, d: math.Sqrt(q.Dist2(tuples[i].Loc))}
		}
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && (cands[j].d < cands[j-1].d || (cands[j].d == cands[j-1].d && cands[j].id < cands[j-1].id)); j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		for i := 0; i < 7; i++ {
			if got[i].ID != cands[i].id {
				t.Fatalf("trial %d rank %d: got ID %d, want %d (q=%v)", trial, i, got[i].ID, cands[i].id, q)
			}
		}
	}
}
