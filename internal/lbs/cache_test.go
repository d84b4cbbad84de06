package lbs

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
)

// TestCacheHitsDontConsumeBudget: with a budget of exactly the number
// of distinct points, arbitrarily many repeats still succeed — hits
// replay recorded answers for free.
func TestCacheHitsDontConsumeBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2, Budget: 3})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9), geom.Pt(5, 5)}

	want := make([][]LRRecord, len(pts))
	for i, p := range pts {
		recs, err := c.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = recs
	}
	for rep := 0; rep < 10; rep++ {
		for i, p := range pts {
			recs, err := c.QueryLR(ctx, p, nil)
			if err != nil {
				t.Fatalf("repeat %d point %d: %v", rep, i, err)
			}
			if len(recs) != len(want[i]) || recs[0].ID != want[i][0].ID {
				t.Fatalf("repeat answer diverged: %+v vs %+v", recs, want[i])
			}
		}
	}
	if n := svc.QueryCount(); n != 3 {
		t.Errorf("QueryCount = %d, want 3 (hits must not consume budget)", n)
	}
	st := c.Stats()
	if st.Misses != 3 || st.Hits != 30 {
		t.Errorf("stats = %+v, want 3 misses / 30 hits", st)
	}
	// A genuinely new point now fails: the budget is spent.
	if _, err := c.QueryLR(ctx, geom.Pt(2.5, 7.5), nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Errorf("new point err = %v, want ErrBudgetExhausted", err)
	}
	// ... but cached points keep answering.
	if _, err := c.QueryLR(ctx, pts[0], nil); err != nil {
		t.Errorf("cached point after exhaustion: %v", err)
	}
}

// TestCacheEvictionUnderPressure: a tiny cache stays within capacity
// and reports evictions.
func TestCacheEvictionUnderPressure(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 8})
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i%10), float64(i/10)), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Entries > 8 {
		t.Errorf("resident entries %d exceed capacity 8", st.Entries)
	}
	if st.Evictions < 92 {
		t.Errorf("evictions = %d, want ≥ 92 for 100 distinct keys in 8 slots", st.Evictions)
	}
	if st.Misses != 100 {
		t.Errorf("misses = %d, want 100 (every point distinct)", st.Misses)
	}
}

// TestCacheLRULeastRecentFirst: re-touching an entry protects it from
// eviction.
func TestCacheLRULeastRecentFirst(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 2 * cacheShards})
	ctx := context.Background()
	// a, b and d key into one shard, whose two slots are the LRU under
	// test.
	same := []geom.Point{geom.Pt(1, 1)}
	sh := c.shardFor(c.keyFor(same[0]))
	for i := 1; len(same) < 3; i++ {
		if p := geom.Pt(1+0.01*float64(i), 9); c.shardFor(c.keyFor(p)) == sh {
			same = append(same, p)
		}
	}
	a, b, d := same[0], same[1], same[2]
	c.QueryLR(ctx, a, nil)
	c.QueryLR(ctx, b, nil)
	c.QueryLR(ctx, a, nil) // a is now most recent
	c.QueryLR(ctx, d, nil) // evicts b
	before := c.Stats().Hits
	c.QueryLR(ctx, a, nil)
	if c.Stats().Hits != before+1 {
		t.Errorf("a was evicted although most recently used")
	}
	c.QueryLR(ctx, b, nil)
	if got := c.Stats().Misses; got != 4 {
		t.Errorf("misses = %d, want 4 (a, b, d, then b again after eviction)", got)
	}
}

// TestCacheLREntryAnswersLNR: the LR entry recorded at a point answers
// an LNR query there, with its locations stripped.
func TestCacheLREntryAnswersLNR(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	p := geom.Pt(5, 5)
	lr, err := c.QueryLR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := c.QueryLNR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || len(recs) != len(lr) {
		t.Fatalf("LNR answer has %d records, want the LR answer's %d", len(recs), len(lr))
	}
	for i := range recs {
		if recs[i].ID != lr[i].ID {
			t.Fatalf("LNR rank %d is ID %d, want %d", i, recs[i].ID, lr[i].ID)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want one miss and one hit (one entry per point)", st)
	}
}

// TestCacheBatchMixedHitsAndMisses: a batch containing cached and
// novel points only charges the novel ones.
func TestCacheBatchMixedHitsAndMisses(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	warm := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)}
	if _, err := c.QueryLRBatch(ctx, warm, nil); err != nil {
		t.Fatal(err)
	}
	mixed := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 9), geom.Pt(0, 0)}
	answers, err := c.QueryLRBatch(ctx, mixed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		if a == nil {
			t.Errorf("answer %d nil", i)
		}
	}
	if n := svc.QueryCount(); n != 4 {
		t.Errorf("QueryCount = %d, want 4 (2 warm + 2 novel)", n)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 {
		t.Errorf("stats = %+v, want 2 hits / 4 misses", st)
	}
}

// TestCacheBatchPartialBudget: when the inner budget dies mid-batch,
// cache hits still answer and only uncovered misses stay nil.
func TestCacheBatchPartialBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1, Budget: 3})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	// Spend 2 of 3 budget on warm points.
	if _, err := c.QueryLRBatch(ctx, []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)}, nil); err != nil {
		t.Fatal(err)
	}
	// hit, miss (charged), hit, miss (budget dead), miss (budget dead)
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(5, 5), geom.Pt(9, 9), geom.Pt(2, 2), geom.Pt(3, 3)}
	answers, err := c.QueryLRBatch(ctx, pts, nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	for _, i := range []int{0, 1, 2} {
		if answers[i] == nil {
			t.Errorf("answer %d nil, want served", i)
		}
	}
	for _, i := range []int{3, 4} {
		if answers[i] != nil {
			t.Errorf("answer %d served beyond budget", i)
		}
	}
	if n := svc.QueryCount(); n != 3 {
		t.Errorf("QueryCount = %d, want 3", n)
	}
}

// TestCacheConcurrent drives overlapping point sets from many
// goroutines (run under -race): every answer must be consistent with
// the uncached service and the hit/miss accounting must add up.
func TestCacheConcurrent(t *testing.T) {
	db := testDB(t)
	svc := NewService(db, Options{K: 2})
	ref := NewService(db, Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 64})
	ctx := context.Background()

	// 32 distinct points shared by all goroutines.
	pts := make([]geom.Point, 32)
	rng := rand.New(rand.NewSource(7))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
	}
	want := make([][]LRRecord, len(pts))
	for i, p := range pts {
		want[i], _ = ref.QueryLR(ctx, p, nil)
	}

	const goroutines, rounds = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(len(pts))
				var recs []LRRecord
				var err error
				if r%3 == 0 {
					var batch [][]LRRecord
					batch, err = c.QueryLRBatch(ctx, pts[i:i+1], nil)
					if err == nil {
						recs = batch[0]
					}
				} else {
					recs, err = c.QueryLR(ctx, pts[i], nil)
				}
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(recs) != len(want[i]) || (len(recs) > 0 && recs[0].ID != want[i][0].ID) {
					t.Errorf("goroutine %d: answer for point %d diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := c.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Errorf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines*rounds)
	}
	if svc.QueryCount() != st.Misses {
		t.Errorf("inner queries %d != misses %d", svc.QueryCount(), st.Misses)
	}
	if st.Misses > int64(len(pts))+st.Evictions {
		t.Errorf("misses %d exceed distinct points %d + evictions %d", st.Misses, len(pts), st.Evictions)
	}
}

// TestCacheUntrustedFilterBypasses: a wrapper shared by differently
// filtered callers (the HTTP gateway pattern) must never replay an
// answer across filters — in either order.
func TestCacheUntrustedFilterBypasses(t *testing.T) {
	ctx := context.Background()
	p := geom.Pt(5, 5)

	// Filtered first: the bypassed answer must not poison the cache.
	c := NewCachedOracle(NewService(testDB(t), Options{K: 4}), CacheOptions{})
	filtered, err := c.QueryLR(ctx, p, CategoryFilter("school"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.QueryLR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(filtered) {
		t.Fatalf("unfiltered answer %d records after filtered %d — cache replayed across filters", len(full), len(filtered))
	}
	if st := c.Stats(); st.Bypasses != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 bypass / 1 miss", st)
	}

	// Unfiltered first: the cached full answer must not serve a
	// filtered query.
	c2 := NewCachedOracle(NewService(testDB(t), Options{K: 4}), CacheOptions{})
	full2, err := c2.QueryLR(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	filtered2, err := c2.QueryLR(ctx, p, CategoryFilter("school"))
	if err != nil {
		t.Fatal(err)
	}
	if len(filtered2) >= len(full2) {
		t.Fatalf("filtered answer %d records, full %d — cache replayed across filters", len(filtered2), len(full2))
	}
	for _, r := range filtered2 {
		if r.Category != "school" {
			t.Errorf("filtered answer leaked %s", r.Category)
		}
	}
	// Batch path bypasses too.
	answers, err := c2.QueryLRBatch(ctx, []geom.Point{p, p}, CategoryFilter("cafe"))
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range answers {
		for _, r := range a {
			if r.Category != "cafe" {
				t.Errorf("batch answer %d leaked %s", i, r.Category)
			}
		}
	}
	if st := c2.Stats(); st.Bypasses != 3 {
		t.Errorf("bypasses = %d, want 3 (1 single + 2 batch)", st.Bypasses)
	}
}

// TestCacheTinyCapacityClamp: a capacity below the default shard
// count must still bound residency by the capacity (the shard count
// clamps down), not by one-entry-per-shard.
func TestCacheTinyCapacityClamp(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1})
	c := NewCachedOracle(svc, CacheOptions{Capacity: 3})
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i%10)+0.1, float64(i/10)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries > 3 {
		t.Errorf("resident entries %d exceed configured capacity 3", st.Entries)
	}
}

// TestCacheStatsString is a smoke check that stats render usefully in
// experiment logs.
func TestCacheStatsFormatting(t *testing.T) {
	st := CacheStats{Hits: 10, Misses: 2, Evictions: 1, Entries: 1}
	s := fmt.Sprintf("%+v", st)
	if s == "" {
		t.Fatal("empty stats rendering")
	}
}

// TestCacheInvalidateRegion: invalidation drops exactly the entries
// the region lies within reach of — the K-th record's distance for a
// full answer — and leaves the rest replaying. The region is nearer
// to (5, 5) than to (1, 1), yet (1, 1) drops and (5, 5) survives: its
// second record is 0.5 away, so nothing beyond 0.5 can change it.
func TestCacheInvalidateRegion(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	// Reaches: (1,1) → 4√2 ≈ 5.66 (to (5,5)); (9,9) → √28.25 ≈ 5.32
	// (to (5.5,5)); (5,5) → 0.5; (7.5,0.5) → √26.5 ≈ 5.15 (to (5,5)).
	// RectMinDist to [3,4]²: (1,1) 2√2, (9,9) 5√2, (5,5) √2, (7.5,0.5) √24.5.
	inside := []geom.Point{geom.Pt(1, 1), geom.Pt(7.5, 0.5)}
	outside := []geom.Point{geom.Pt(9, 9), geom.Pt(5, 5)}
	for _, p := range append(append([]geom.Point{}, inside...), outside...) {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 4 {
		t.Fatalf("entries = %d, want 4", st.Entries)
	}
	dropped := c.Invalidate(geom.NewRect(geom.Pt(3, 3), geom.Pt(4, 4)))
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (only the entries the region is within reach of)", dropped)
	}
	st := c.Stats()
	if st.Entries != 2 {
		t.Fatalf("survivors = %d, want 2", st.Entries)
	}
	if st.Invalidations != 2 {
		t.Fatalf("Invalidations = %d, want 2", st.Invalidations)
	}
	// Survivors still replay (no inner queries), dropped points re-fetch.
	before := svc.QueryCount()
	for _, p := range outside {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.QueryCount(); n != before {
		t.Errorf("survivors forwarded %d queries, want 0", n-before)
	}
	for _, p := range inside {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.QueryCount(); n != before+int64(len(inside)) {
		t.Errorf("dropped points forwarded %d queries, want %d", n-before, len(inside))
	}
}

// TestCacheInvalidateReachInclusive: a location at exactly an entry's
// K-th distance is within reach (an insert there with a smaller ID
// would enter the answer), one a hair farther is not.
func TestCacheInvalidateReachInclusive(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	q := geom.Pt(5, 5) // reach 0.5: the second record is (5.5, 5)
	if _, err := c.QueryLR(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	far := geom.Pt(math.Nextafter(4.5, 0), 5)
	if n := c.Invalidate(geom.Rect{Min: far, Max: far}); n != 0 {
		t.Fatalf("a location past the reach dropped %d", n)
	}
	at := geom.Pt(4.5, 5)
	if n := c.Invalidate(geom.Rect{Min: at, Max: at}); n != 1 {
		t.Fatalf("a location at exactly the reach dropped %d, want 1", n)
	}
}

// TestCacheReachWithoutOptions: a cache over a layer with no Options
// method cannot bound an answer's reach, so any mutation drops every
// entry.
func TestCacheReachWithoutOptions(t *testing.T) {
	c := NewCachedOracle(struct{ Querier }{NewService(testDB(t), Options{K: 2, MaxRadius: 1})}, CacheOptions{})
	ctx := context.Background()
	for _, p := range []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)} {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	p := geom.Pt(-100, -100)
	if n := c.Invalidate(geom.Rect{Min: p, Max: p}); n != 2 {
		t.Fatalf("dropped %d, want every entry", n)
	}
}

// TestCacheInvalidateExactKeys: a point region invalidates exactly
// that point's entry (which answered both views) and nothing else.
func TestCacheInvalidateExactKeys(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	p, q := geom.Pt(1, 1), geom.Pt(9, 9)
	if _, err := c.QueryLR(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLNR(ctx, p, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.QueryLR(ctx, q, nil); err != nil {
		t.Fatal(err)
	}
	if dropped := c.Invalidate(geom.Rect{Min: p, Max: p}); dropped != 1 {
		t.Fatalf("dropped = %d, want 1 (the one entry for p)", dropped)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("survivors = %d, want 1", st.Entries)
	}
}

// TestCacheInvalidateInfiniteRegion: the infinite dirty region (a
// mutation on a service without MaxRadius) flushes everything and
// counts it.
func TestCacheInvalidateInfiniteRegion(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if _, err := c.QueryLR(ctx, geom.Pt(float64(i)+0.5, 5), nil); err != nil {
			t.Fatal(err)
		}
	}
	inf := math.Inf(1)
	if dropped := c.Invalidate(geom.Rect{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)}); dropped != 4 {
		t.Fatalf("infinite region dropped = %d, want 4", dropped)
	}
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 4 {
		t.Fatalf("stats after flush = %+v", st)
	}
}

// listWalkInvalidate is the reference invalidation: walk each shard's
// LRU list front to back and remove every entry the region lies within
// reach of, touching nothing but the list and the index.
func listWalkInvalidate(c *CachedOracle, region geom.Rect) int64 {
	var dropped int64
	for _, sh := range c.shards {
		var next *list.Element
		for el := sh.lru.Front(); el != nil; el = next {
			next = el.Next()
			e := el.Value.(*cacheEntry)
			if c.opts.Metric.RectMinDist(e.key.point(), region) <= e.reach {
				sh.lru.Remove(el)
				delete(sh.items, e.key)
				dropped++
			}
		}
	}
	c.invalidations.Add(dropped)
	return dropped
}

// sameLRU reports whether two caches hold the same keys in the same
// LRU order, shard by shard.
func sameLRU(a, b *CachedOracle) bool {
	for i := range a.shards {
		x, y := a.shards[i].lru.Front(), b.shards[i].lru.Front()
		for ; x != nil && y != nil; x, y = x.Next(), y.Next() {
			if x.Value.(*cacheEntry).key != y.Value.(*cacheEntry).key {
				return false
			}
		}
		if x != nil || y != nil {
			return false
		}
	}
	return true
}

// lruKeys lists every shard's keys in LRU order, most recent first.
func lruKeys(c *CachedOracle) [][]cacheKey {
	out := make([][]cacheKey, len(c.shards))
	for i, sh := range c.shards {
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			out[i] = append(out[i], el.Value.(*cacheEntry).key)
		}
	}
	return out
}

// checkGrid verifies each shard's slots and grid against its LRU
// list: every resident entry owns its slot (its point, reach and
// element) and is linked, once, into the cell its query point maps to,
// inside the cell's box and within its reach; the cell lists hold
// nothing else; every other slot is free; and the shard's reachMax
// bounds every reach.
func checkGrid(t *testing.T, c *CachedOracle) {
	t.Helper()
	for i, sh := range c.shards {
		linked := 0
		for ci := range sh.cells {
			gc := &sh.cells[ci]
			prev := int32(-1)
			for slot := gc.head; slot >= 0; prev, slot = slot, sh.next[slot] {
				linked++
				if sh.prev[slot] != prev || sh.els[slot] == nil {
					t.Fatalf("shard %d cell %d: slot %d has prev %d (want %d) or no element", i, ci, slot, sh.prev[slot], prev)
				}
				e := sh.els[slot].Value.(*cacheEntry)
				p := e.key.point()
				if sh.items[e.key] != sh.els[slot] || e.slot != slot || int(e.cell) != ci || sh.grid.cell(p) != ci {
					t.Fatalf("shard %d cell %d slot %d: entry at %v records slot %d cell %d, maps to cell %d", i, ci, slot, p, e.slot, e.cell, sh.grid.cell(p))
				}
				if sh.pts[slot] != p && !math.IsNaN(p.X+p.Y) || sh.reach[slot] != e.reach {
					t.Fatalf("shard %d slot %d: holds %v reach %v for an entry at %v reach %v", i, slot, sh.pts[slot], sh.reach[slot], p, e.reach)
				}
				if b := gc.box; !math.IsNaN(p.X+p.Y) && !(b.Min.X <= p.X && p.X <= b.Max.X && b.Min.Y <= p.Y && p.Y <= b.Max.Y) {
					t.Fatalf("shard %d cell %d: box %+v misses %v", i, ci, gc.box, p)
				}
				if e.reach > gc.reach || e.reach > sh.reachMax {
					t.Fatalf("shard %d cell %d: reach %v above the cell's %v or the shard's %v", i, ci, e.reach, gc.reach, sh.reachMax)
				}
			}
		}
		if linked != sh.lru.Len() || linked+len(sh.free) != len(sh.els) {
			t.Fatalf("shard %d: %d linked slots, %d free, %d slots, LRU length %d", i, linked, len(sh.free), len(sh.els), sh.lru.Len())
		}
	}
}

// TestCacheInvalidateMatchesListWalk drives two caches through one
// random mix of misses, hits, refreshes and evictions (queries and
// snapshot restores) and invalidations of points and boxes. The cache
// under test finds the entries to drop through its grids; the
// reference walks its LRU lists and applies the reach predicate to
// every entry. After every step the two hold the same keys in the
// same LRU order with the same counters, and the grids match the
// lists. The seeds cover no radius, a radius, and Haversine.
func TestCacheInvalidateMatchesListWalk(t *testing.T) {
	ctx := context.Background()
	for seed, opts := range map[int64]Options{
		1: {K: 2},
		2: {K: 3, MaxRadius: 1.5},
		3: {K: 2, Metric: geo.Haversine, MaxRadius: 150},
	} {
		rng := rand.New(rand.NewSource(seed))
		// Tuples on a 0.5 lattice over the 10×10 bounds, so answers tie
		// and query points sit at exactly their records' distances.
		var tuples []Tuple
		for id := int64(1); id <= 60; id++ {
			tuples = append(tuples, Tuple{ID: id, Loc: geom.Pt(float64(rng.Intn(21))/2, float64(rng.Intn(21))/2)})
		}
		svc := NewService(NewDatabase(geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10)), tuples), opts)
		got := NewCachedOracle(svc, CacheOptions{Capacity: 256})
		ref := NewCachedOracle(svc, CacheOptions{Capacity: 256})
		// Points on a 36×36 lattice reaching past the bounds (with -0 on
		// the axes), a quarter of them drawn from a hot corner, repeat
		// often enough for hits and refreshes and outnumber the
		// capacity enough for evictions.
		point := func() geom.Point {
			side := 36
			if rng.Intn(4) == 0 {
				side = 6
			}
			x, y := float64(rng.Intn(side))/3-1.5, float64(rng.Intn(side))/3-1.5
			if x == 0 && rng.Intn(2) == 0 {
				x = math.Copysign(0, -1)
			}
			return geom.Pt(x, y)
		}
		// Snapshots of two third caches, restored now and then:
		// refreshes of resident keys, new keys, evictions under
		// pressure.
		var snaps [][]byte
		for i := 0; i < 2; i++ {
			src := NewCachedOracle(svc, CacheOptions{Capacity: 256})
			for j := 60 + rng.Intn(60); j > 0; j-- {
				if _, err := src.QueryLR(ctx, point(), nil); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := src.WriteSnapshot(&buf); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, buf.Bytes())
		}
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(100); {
			case r < 80:
				p := point()
				for _, c := range []*CachedOracle{got, ref} {
					if _, err := c.QueryLR(ctx, p, nil); err != nil {
						t.Fatal(err)
					}
				}
			case r < 90:
				pts := make([]geom.Point, 1+rng.Intn(6))
				for i := range pts {
					pts[i] = point()
				}
				for _, c := range []*CachedOracle{got, ref} {
					if _, err := c.QueryLRBatch(ctx, pts, nil); err != nil {
						t.Fatal(err)
					}
				}
			case r < 92:
				snap := snaps[rng.Intn(len(snaps))]
				for _, c := range []*CachedOracle{got, ref} {
					if _, err := c.ReadSnapshot(bytes.NewReader(snap)); err != nil {
						t.Fatal(err)
					}
				}
			default:
				// Mostly points, as a live database sends; some boxes.
				x0, y0 := float64(rng.Intn(28))/2-1, float64(rng.Intn(28))/2-1
				region := geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x0, y0)}
				if rng.Intn(4) == 0 {
					region.Max = geom.Pt(x0+float64(rng.Intn(6)), y0+float64(rng.Intn(6)))
				}
				if rng.Intn(40) == 0 {
					inf := math.Inf(1)
					region = geom.Rect{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)}
				}
				if a, b := got.Invalidate(region), listWalkInvalidate(ref, region); a != b {
					t.Fatalf("seed %d step %d: Invalidate(%v) dropped %d, list walk %d", seed, step, region, a, b)
				}
			}
			if !sameLRU(got, ref) {
				t.Fatalf("seed %d step %d: LRU contents differ\ngot %v\nref %v", seed, step, lruKeys(got), lruKeys(ref))
			}
			if a, b := got.Stats(), ref.Stats(); a != b {
				t.Fatalf("seed %d step %d: stats %+v, reference %+v", seed, step, a, b)
			}
			checkGrid(t, got)
		}
		if st := got.Stats(); st.Evictions == 0 || st.Invalidations == 0 || st.Hits == 0 || st.Restored == 0 {
			t.Fatalf("seed %d: the mix missed a path: %+v", seed, st)
		}
	}
}
