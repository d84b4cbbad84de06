package shard

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// BenchmarkFederatedQuery measures the federated QueryLR path over a
// 10k-tuple database at 1/2/4/8 in-process shards. shards=1 is the
// degenerate federation (pure routing overhead over one member);
// higher counts trade smaller per-shard k-d trees against two-phase
// fan-out. Reported alongside the geometry suite via `make bench-fed`
// and tracked in BENCH_federation.json.
func BenchmarkFederatedQuery(b *testing.B) {
	db := workload.USASchools(10000, 1).DB
	bounds := db.Bounds()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "shards=1", 2: "shards=2", 4: "shards=4", 8: "shards=8"}[n], func(b *testing.B) {
			router, err := FromPartsWrapped(Partition(db, n), lbs.Options{K: 10}, DefaultResilience(), nil)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(2))
			pts := make([]geom.Point, 1024)
			for i := range pts {
				pts[i] = geom.Pt(
					bounds.Min.X+rng.Float64()*bounds.Width(),
					bounds.Min.Y+rng.Float64()*bounds.Height())
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := router.QueryLR(ctx, pts[i%len(pts)], nil); err != nil {
					b.Fatal(err)
				}
			}
			st := router.Stats()
			b.ReportMetric(float64(st.Upstream)/float64(st.Logical), "fanout/query")
		})
	}
}

// BenchmarkFederatedBatch measures the batched federation path (one
// logical batch of 64 points per op) at the same shard counts.
func BenchmarkFederatedBatch(b *testing.B) {
	db := workload.USASchools(10000, 1).DB
	bounds := db.Bounds()
	for _, n := range []int{1, 4} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4"}[n], func(b *testing.B) {
			router, err := FromPartsWrapped(Partition(db, n), lbs.Options{K: 10}, DefaultResilience(), nil)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			pts := make([]geom.Point, 64)
			for i := range pts {
				pts[i] = geom.Pt(
					bounds.Min.X+rng.Float64()*bounds.Width(),
					bounds.Min.Y+rng.Float64()*bounds.Height())
			}
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := router.QueryLRBatch(ctx, pts, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var partitionSink []*lbs.Database

// BenchmarkPartition measures cutting the 50k-tuple schools database
// into 4 shards, the split every sharded stack pays at start-up.
func BenchmarkPartition(b *testing.B) {
	db := workload.USASchools(50000, 1).DB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partitionSink = Partition(db, 4)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
