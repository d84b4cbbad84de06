package live_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/live"
	"repro/internal/workload"
)

// The live benchmark suite measures what mutability costs the read
// path: query throughput over a live database at 0%, 1% and 10% churn
// (mutations interleaved per query) against the immutable Service
// baseline on the same data. At 0% churn the overlay is clean and the
// fast path should track the baseline within noise; under churn the
// merge path and snapshot rebuilds price in.

const benchN = 20000

func benchDB(b *testing.B) *lbs.Database {
	b.Helper()
	return workload.USASchools(benchN, 7).DB
}

func benchPoints(db *lbs.Database, n int) []geom.Point {
	rng := rand.New(rand.NewSource(3))
	bounds := db.Bounds()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(
			bounds.Min.X+rng.Float64()*bounds.Width(),
			bounds.Min.Y+rng.Float64()*bounds.Height())
	}
	return pts
}

// BenchmarkImmutableQueryLR is the reference: a plain Service over
// the same database and options as the live benchmarks.
func BenchmarkImmutableQueryLR(b *testing.B) {
	db := benchDB(b)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	pts := benchPoints(db, 4096)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChurn runs the live query benchmark with permil mutations per
// thousand queries, interleaved deterministically.
func benchChurn(b *testing.B, permil int) {
	db := benchDB(b)
	d, err := live.New(db, lbs.Options{K: 5}, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(db, 4096)
	ops := churn.Ops(db, churn.Config{Seed: 11}, 200000)
	ctx := context.Background()
	next := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if permil > 0 && i%1000 < permil && next < len(ops) {
			if r := d.Apply(ctx, ops[next:next+1])[0]; r.Err != nil {
				b.Fatal(r.Err)
			}
			next++
		}
		if _, err := d.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if permil > 0 && next == 0 {
		b.Fatal("no mutations interleaved")
	}
}

// BenchmarkLiveQueryLRChurn0: clean overlay — the fast path the <10%
// read-regression acceptance bound is measured against.
func BenchmarkLiveQueryLRChurn0(b *testing.B) { benchChurn(b, 0) }

// BenchmarkLiveQueryLRChurn1: 1% of queries interleave one mutation.
func BenchmarkLiveQueryLRChurn1(b *testing.B) { benchChurn(b, 10) }

// BenchmarkLiveQueryLRChurn10: 10% of queries interleave one mutation.
func BenchmarkLiveQueryLRChurn10(b *testing.B) { benchChurn(b, 100) }

// BenchmarkLiveApply measures raw mutation throughput: one
// insert+delete pair per iteration (the overlay returns to clean each
// time, so the cost measured is op validation plus two snapshot
// swaps, repeatable for any b.N).
func BenchmarkLiveApply(b *testing.B) {
	db := benchDB(b)
	d, err := live.New(db, lbs.Options{K: 5}, live.Options{})
	if err != nil {
		b.Fatal(err)
	}
	pts := benchPoints(db, 4096)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(10_000_000 + i)
		for _, r := range d.Apply(ctx, []live.Op{
			{Kind: live.OpInsert, Tuple: lbs.Tuple{ID: id, Loc: pts[i%len(pts)]}},
			{Kind: live.OpDelete, ID: id},
		}) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// dirtyOverlay is a live database over the benchmark data with a
// fixed overlay: 500 churn ops applied one at a time, as an ingest
// stream applies them, with compaction off so the overlay stays put.
// It also returns the IDs the overlay holds (inserted or moved tuples
// still present); moving one of them keeps the overlay's size fixed.
func dirtyOverlay(b *testing.B) (*live.Database, []geom.Point, []int64) {
	b.Helper()
	db := benchDB(b)
	d, err := live.New(db, lbs.Options{K: 5}, live.Options{CompactThreshold: -1})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var resident []int64
	seen := map[int64]bool{}
	for _, op := range churn.Ops(db, churn.Config{Seed: 11}, 500) {
		if r := d.Apply(ctx, []live.Op{op})[0]; r.Err != nil {
			b.Fatal(r.Err)
		}
		id := op.ID
		if op.Kind == live.OpInsert {
			id = op.Tuple.ID
		}
		if op.Kind != live.OpDelete && !seen[id] {
			seen[id] = true
			resident = append(resident, id)
		}
	}
	kept := resident[:0]
	for _, id := range resident {
		if _, _, ok := d.Lookup(id); ok {
			kept = append(kept, id)
		}
	}
	return d, benchPoints(db, 4096), kept
}

// BenchmarkLiveQueryLRDirty measures the read path alone over a dirty
// overlay (no mutations during the timed loop): every query merges
// the base with the overlay's candidates.
func BenchmarkLiveQueryLRDirty(b *testing.B) {
	d, pts, _ := dirtyOverlay(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLiveApplyMove measures one move per iteration over that
// overlay: the moved tuple is already in the overlay, so the overlay's
// size (delta tuples and tombstones) does not grow with b.N.
func BenchmarkLiveApplyMove(b *testing.B) {
	d, pts, resident := dirtyOverlay(b)
	ctx := context.Background()
	before := d.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := live.Op{Kind: live.OpMove, ID: resident[i%len(resident)], Loc: pts[i%len(pts)]}
		if r := d.Apply(ctx, []live.Op{op})[0]; r.Err != nil {
			b.Fatal(r.Err)
		}
	}
	b.StopTimer()
	if after := d.Stats(); after.DeltaLen != before.DeltaLen || after.Tombstones != before.Tombstones {
		b.Fatalf("overlay size moved: %+v -> %+v", before, after)
	}
}
