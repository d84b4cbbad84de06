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
// whose query points lie in the dirty region and leaves the rest
// replaying — the survivor count pins that mutation-driven
// invalidation is regional, not a full flush.
func TestCacheInvalidateRegion(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2})
	c := NewCachedOracle(svc, CacheOptions{})
	ctx := context.Background()
	inside := []geom.Point{geom.Pt(1.5, 1.5), geom.Pt(2.5, 2.5)}
	outside := []geom.Point{geom.Pt(8.5, 8.5), geom.Pt(7.5, 0.5), geom.Pt(0.5, 7.5)}
	for _, p := range append(append([]geom.Point{}, inside...), outside...) {
		if _, err := c.QueryLR(ctx, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 5 {
		t.Fatalf("entries = %d, want 5", st.Entries)
	}
	dropped := c.Invalidate(geom.NewRect(geom.Pt(1, 1), geom.Pt(3, 3)))
	if dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (only points in the region)", dropped)
	}
	st := c.Stats()
	if st.Entries != 3 {
		t.Fatalf("survivors = %d, want 3", st.Entries)
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
// LRU list front to back and remove the entries whose query point lies
// in region, touching nothing but the list and the index.
func listWalkInvalidate(c *CachedOracle, region geom.Rect) int64 {
	var dropped int64
	for _, sh := range c.shards {
		var next *list.Element
		for el := sh.lru.Front(); el != nil; el = next {
			next = el.Next()
			key := el.Value.(*cacheEntry).key
			x, y := math.Float64frombits(key.qx), math.Float64frombits(key.qy)
			if region.Min.X <= x && x <= region.Max.X && region.Min.Y <= y && y <= region.Max.Y {
				sh.lru.Remove(el)
				delete(sh.items, key)
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

// checkSlots verifies a shard's slot array against its LRU list: every
// resident entry owns exactly the slot holding its point and element,
// every other slot is free, and the live slot count is the LRU length.
func checkSlots(t *testing.T, c *CachedOracle) {
	t.Helper()
	for i, sh := range c.shards {
		live := 0
		for slot, p := range sh.pts {
			if sh.els[slot] == nil {
				if !math.IsNaN(p.X) || !math.IsNaN(p.Y) {
					t.Fatalf("shard %d slot %d: free slot holds %v", i, slot, p)
				}
				continue
			}
			live++
			e := sh.els[slot].Value.(*cacheEntry)
			if e.slot != slot || p != geom.Pt(math.Float64frombits(e.key.qx), math.Float64frombits(e.key.qy)) {
				t.Fatalf("shard %d slot %d: holds %v for an entry in slot %d keyed %+v", i, slot, p, e.slot, e.key)
			}
		}
		if live != sh.lru.Len() || live+len(sh.free) != len(sh.pts) {
			t.Fatalf("shard %d: %d live slots, %d free, %d slots, LRU length %d", i, live, len(sh.free), len(sh.pts), sh.lru.Len())
		}
	}
}

// TestCacheInvalidateMatchesListWalk drives two caches through one
// random mix of misses, hits, refreshes and evictions (queries and
// snapshot restores) and region invalidations. The cache under test
// invalidates by scanning its slot arrays; the reference walks its LRU
// lists. After every step the two hold the same keys in the same LRU
// order with the same counters, and the slot arrays match the lists.
func TestCacheInvalidateMatchesListWalk(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		svc := NewService(testDB(t), Options{K: 2})
		got := NewCachedOracle(svc, CacheOptions{Capacity: 48})
		ref := NewCachedOracle(svc, CacheOptions{Capacity: 48})
		// Points on a 12×12 grid (with -0 on the axes) repeat often
		// enough for hits and refreshes and outnumber the capacity
		// enough for evictions.
		point := func() geom.Point {
			x, y := float64(rng.Intn(12)), float64(rng.Intn(12))
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
			src := NewCachedOracle(svc, CacheOptions{Capacity: 48})
			for j := 10 + rng.Intn(20); j > 0; j-- {
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
		for step := 0; step < 200; step++ {
			switch r := rng.Intn(40); {
			case r < 24:
				p := point()
				for _, c := range []*CachedOracle{got, ref} {
					if _, err := c.QueryLR(ctx, p, nil); err != nil {
						t.Fatal(err)
					}
				}
			case r < 28:
				pts := make([]geom.Point, 1+rng.Intn(6))
				for i := range pts {
					pts[i] = point()
				}
				for _, c := range []*CachedOracle{got, ref} {
					if _, err := c.QueryLRBatch(ctx, pts, nil); err != nil {
						t.Fatal(err)
					}
				}
			case r < 29:
				snap := snaps[rng.Intn(len(snaps))]
				for _, c := range []*CachedOracle{got, ref} {
					if _, err := c.ReadSnapshot(bytes.NewReader(snap)); err != nil {
						t.Fatal(err)
					}
				}
			default:
				x0, y0 := float64(rng.Intn(14)-1), float64(rng.Intn(14)-1)
				region := geom.Rect{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+float64(rng.Intn(6)), y0+float64(rng.Intn(6)))}
				if rng.Intn(10) == 0 {
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
			checkSlots(t, got)
		}
		if st := got.Stats(); st.Evictions == 0 || st.Invalidations == 0 || st.Hits == 0 || st.Restored == 0 {
			t.Fatalf("seed %d: the mix missed a path: %+v", seed, st)
		}
	}
}
