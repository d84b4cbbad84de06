package live_test

import (
	"context"
	"maps"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
)

// FuzzCacheInvalidate decodes the fuzzed bytes into reads and
// mutations over a small live backend behind an answer cache hooked to
// its OnInvalidate, and after every mutation checks that each point
// read so far reads through the cache exactly as the backend answers
// it. The first byte picks the composition: bit 0 Haversine, bit 1 a
// MaxRadius, bit 2 a 2-shard cluster. Each later op is one byte of
// kind and a few bytes of operands (see the switch); coordinates snap
// to a 21×21 lattice that contains the 6×6 tuple lattice, so answers
// tie and mutations land at exactly an answer's K-th distance.
func FuzzCacheInvalidate(f *testing.F) {
	f.Add([]byte{0, 0, 3, 3, 1, 4, 4, 2, 0, 3, 1, 9, 9, 4, 0, 0})
	f.Add([]byte{1, 0, 10, 10, 0, 2, 2, 4, 0, 1, 4, 1, 0, 3, 2, 5, 5, 2, 1})
	f.Add([]byte{2, 0, 0, 0, 0, 20, 20, 1, 10, 10, 3, 0, 20, 0, 4, 1, 0})
	f.Add([]byte{7, 0, 4, 4, 0, 16, 16, 4, 0, 0, 4, 1, 1, 3, 7, 8, 8, 2, 3, 4, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		mode := data[0]
		data = data[1:]
		bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(10, 10))
		opts := lbs.Options{K: 3}
		if mode&1 != 0 {
			bounds = geom.NewRect(geom.Pt(0, 40), geom.Pt(10, 50))
			opts.Metric = geo.Haversine
		}
		if mode&2 != 0 {
			opts.MaxRadius = 2.5 // plane units
			if opts.Metric == geo.Haversine {
				opts.MaxRadius = 250 // km
			}
		}
		var tuples []lbs.Tuple
		alive := map[int64]bool{}
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				id := int64(len(tuples) + 1)
				tuples = append(tuples, lbs.Tuple{ID: id, Loc: geom.Pt(bounds.Min.X+2*float64(i), bounds.Min.Y+2*float64(j))})
				alive[id] = true
			}
		}
		shards := 1
		if mode&4 != 0 {
			shards = 2
		}
		b, cache := cachedLive(t, lbs.NewDatabase(bounds, tuples), opts, shards)
		ctx := context.Background()

		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			pos++
			return data[pos-1], true
		}
		point := func() (geom.Point, bool) {
			x, ok1 := next()
			y, ok2 := next()
			return geom.Pt(bounds.Min.X+float64(x%21)/2, bounds.Min.Y+float64(y%21)/2), ok1 && ok2
		}
		// pick returns the live ID a byte selects, in ID order.
		pick := func() (int64, bool) {
			v, ok := next()
			if !ok || len(alive) == 0 {
				return 0, false
			}
			ids := slices.Sorted(maps.Keys(alive))
			return ids[int(v)%len(ids)], true
		}
		var reads []geom.Point
		low, high := int64(-1), int64(1000)
		for ops := 0; ops < 48; ops++ {
			kind, ok := next()
			if !ok {
				return
			}
			var op live.Op
			switch kind % 5 {
			case 0: // read a point through the cache
				p, ok := point()
				if !ok || len(reads) >= 24 {
					continue
				}
				reads = append(reads, p)
				if _, err := cache.QueryLR(ctx, p, nil); err != nil {
					t.Fatal(err)
				}
				continue
			case 1: // insert at a point
				p, ok := point()
				if !ok {
					continue
				}
				op = live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: high, Loc: p}}
				high++
			case 2: // delete a live tuple
				id, ok := pick()
				if !ok {
					continue
				}
				op = live.Op{Kind: live.OpDelete, ID: id}
			case 3: // move a live tuple to a point
				id, ok := pick()
				p, ok2 := point()
				if !ok || !ok2 {
					continue
				}
				op = live.Op{Kind: live.OpMove, ID: id, Loc: p}
			case 4: // insert at a read point's K-th record, below or above its ID
				v, ok := next()
				if !ok || len(reads) == 0 {
					continue
				}
				recs, err := b.QueryLR(ctx, reads[int(v/2)%len(reads)], nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(recs) < opts.K {
					continue
				}
				id := high
				if v%2 == 0 {
					id = low
					low--
				} else {
					high++
				}
				op = live.Op{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: id, Loc: recs[opts.K-1].Loc}}
			}
			if r := b.Apply(ctx, []live.Op{op})[0]; r.Err != nil {
				t.Fatalf("op %+v: %v", op, r.Err)
			}
			switch op.Kind {
			case live.OpInsert:
				alive[op.Tuple.ID] = true
			case live.OpDelete:
				delete(alive, op.ID)
			}
			checkFresh(t, "fuzz", b, cache, reads)
		}
	})
}
