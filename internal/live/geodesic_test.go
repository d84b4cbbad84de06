package live_test

// Geodesic invalidation pins: under Haversine a cached answer's reach
// is in kilometres and a mutated location is compared against it by
// great-circle distance (geo.Metric.RectMinDist), so cache eviction
// stays local — a 50 km influence radius over a 10°×10° region must
// drop the answers around the mutation, not the whole map — and the
// dirtied point refetches the post-mutation answer.

import (
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
)

func TestLiveGeodesicCacheInvalidationIsLocal(t *testing.T) {
	// One tuple and one cached query point per degree square over
	// lon [0,10] × lat [40,50].
	bounds := geom.NewRect(geom.Pt(0, 40), geom.Pt(10, 50))
	var tuples []lbs.Tuple
	id := int64(1)
	var qpts []geom.Point
	for x := 0.5; x < 10; x++ {
		for y := 40.5; y < 50; y++ {
			tuples = append(tuples, lbs.Tuple{ID: id, Loc: geom.Pt(x, y)})
			qpts = append(qpts, geom.Pt(x, y))
			id++
		}
	}
	db := lbs.NewDatabase(bounds, tuples)
	opts := lbs.Options{K: 3, MaxRadius: 50, Metric: geo.Haversine} // km
	var cache *lbs.CachedOracle
	d, err := live.New(db, opts, live.Options{OnInvalidate: func(r geom.Rect) { cache.Invalidate(r) }})
	if err != nil {
		t.Fatal(err)
	}
	cache = lbs.NewCachedOracle(d, lbs.CacheOptions{})
	ctx := context.Background()
	for _, p := range qpts {
		if _, err := cache.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != int64(len(qpts)) {
		t.Fatalf("entries %d, want %d", st.Entries, len(qpts))
	}

	// Mutate in the northeast corner. 50 km at lat ~50° expands to
	// under half a degree of latitude and under a degree of longitude,
	// so at most a few neighboring query points can lie in the region.
	if r := d.Apply(ctx, []live.Op{{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: 9999, Loc: geom.Pt(9.5, 49.5)}}})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}
	st := cache.Stats()
	if st.Invalidations == 0 {
		t.Fatal("mutation invalidated nothing")
	}
	if st.Invalidations > 4 {
		t.Fatalf("invalidations %d: a 50 km dirty region must stay local on a degree grid", st.Invalidations)
	}
	if st.Entries != int64(len(qpts))-st.Invalidations {
		t.Fatalf("entries %d after %d invalidations of %d", st.Entries, st.Invalidations, len(qpts))
	}

	// A far-away entry survives and replays without forwarding…
	before := d.QueryCount()
	if _, err := cache.QueryLR(ctx, geom.Pt(0.5, 40.5), nil); err != nil {
		t.Fatal(err)
	}
	if d.QueryCount() != before {
		t.Fatal("surviving entry forwarded a query")
	}
	// …and the dirtied point re-fetches the post-mutation answer.
	recs, err := cache.QueryLR(ctx, geom.Pt(9.5, 49.5), nil)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range recs {
		if r.ID == 9999 {
			found = true
		}
	}
	if !found {
		t.Fatalf("refetched answer misses the inserted tuple: %+v", recs)
	}
}
