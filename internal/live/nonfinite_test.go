package live_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// nonFinite are locations no distance can rank: a NaN or infinite
// coordinate.
var nonFinite = []geom.Point{
	geom.Pt(math.NaN(), 1), geom.Pt(1, math.NaN()), geom.Pt(math.Inf(1), 1), geom.Pt(1, math.Inf(-1)),
}

// TestLiveRefusesNonFiniteInsert: an insert at a non-finite location
// is refused with ErrNonFinite. Accepted, it would be counted by Len
// while no query could ever return it.
func TestLiveRefusesNonFiniteInsert(t *testing.T) {
	db := workload.USASchools(300, 5).DB
	d, err := live.New(db, lbs.Options{K: 5}, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, loc := range nonFinite {
		r := d.Apply(context.Background(), []live.Op{{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: int64(900000 + i), Loc: loc}}})[0]
		if !errors.Is(r.Err, live.ErrNonFinite) {
			t.Errorf("insert at %v: %v, want ErrNonFinite", loc, r.Err)
		}
	}
	if d.Len() != db.Len() || d.Epoch() != 0 || d.Stats().Rejected != int64(len(nonFinite)) {
		t.Errorf("after refused inserts: Len %d (want %d), epoch %d, %+v", d.Len(), db.Len(), d.Epoch(), d.Stats())
	}
}

// TestLiveRefusesNonFiniteMove: a move to a non-finite location is
// refused and leaves the tuple where it was. Accepted at MaxRadius > 0,
// its dirty region had a NaN side, the answer cache invalidated
// nothing and kept answering the tuple at its old location, where the
// live database no longer had it.
func TestLiveRefusesNonFiniteMove(t *testing.T) {
	db := workload.USASchools(250, 13).DB
	var cache *lbs.CachedOracle
	d, err := live.New(db, lbs.Options{K: 4, MaxRadius: 40}, live.Options{OnInvalidate: func(r geom.Rect) { cache.Invalidate(r) }})
	if err != nil {
		t.Fatal(err)
	}
	cache = lbs.NewCachedOracle(d, lbs.CacheOptions{})
	ctx := context.Background()
	id, at := db.Tuple(1).ID, db.EffectiveLoc(1)
	if _, err := cache.QueryLR(ctx, at, nil); err != nil {
		t.Fatal(err)
	}
	for _, loc := range nonFinite {
		if r := d.Apply(ctx, []live.Op{{Kind: live.OpMove, ID: id, Loc: loc}})[0]; !errors.Is(r.Err, live.ErrNonFinite) {
			t.Errorf("move to %v: %v, want ErrNonFinite", loc, r.Err)
		}
	}
	if _, loc, ok := d.Lookup(id); !ok || loc != at {
		t.Errorf("tuple %d at %v (present %v) after refused moves, want %v", id, loc, ok, at)
	}
	cached, err := cache.QueryLR(ctx, at, nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := d.QueryLR(ctx, at, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cached) != len(fresh) {
		t.Fatalf("cache answers %d records, the live database %d", len(cached), len(fresh))
	}
	for i := range cached {
		if cached[i].ID != fresh[i].ID {
			t.Fatalf("cache answers %v, the live database %v", cached[i], fresh[i])
		}
	}
}

// TestClusterRefusesNonFinite: a live cluster refuses a non-finite
// insert or move with the same error, ahead of region routing.
func TestClusterRefusesNonFinite(t *testing.T) {
	db := workload.USASchools(200, 91).DB
	c, err := live.NewCluster(db, lbs.Options{K: 3}, 4, live.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, loc := range nonFinite {
		ops := []live.Op{
			{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 500000, Loc: loc}},
			{Kind: live.OpMove, ID: db.Tuple(0).ID, Loc: loc},
		}
		for i, r := range c.Apply(ctx, ops) {
			if !errors.Is(r.Err, live.ErrNonFinite) {
				t.Errorf("%s to %v: %v, want ErrNonFinite", ops[i].Kind, loc, r.Err)
			}
		}
	}
	if c.Len() != db.Len() {
		t.Errorf("Len %d after refused ops, want %d", c.Len(), db.Len())
	}
}
