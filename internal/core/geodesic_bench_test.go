package core

import (
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// geodesicService2 is smallService2 on degree coordinates: a 10°×10°
// continental window, the regime where the documented equirectangular
// cell approximation holds to ~1% (see internal/geo Projection).
func geodesicService2(n int, seed int64) *lbs.Database {
	bounds := geom.NewRect(geom.Pt(-105, 35), geom.Pt(-95, 45))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 5, UniformFrac: 0.2, Seed: seed,
	})
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		tuples[i] = lbs.Tuple{ID: int64(i + 1), Loc: p}
	}
	return lbs.NewDatabase(bounds, tuples)
}

// BenchmarkLRSampleGeodesic is the geodesic twin of BenchmarkLRSample:
// one end-to-end LR estimator sample against a Haversine-ranked
// oracle. Cell geometry runs on the raw degree plane (the documented
// projected-plane approximation); the per-sample cost difference
// against BenchmarkLRSample is the geodesic overhead the acceptance
// bound caps at 2×, tracked in BENCH_geom.json.
func BenchmarkLRSampleGeodesic(b *testing.B) {
	db := geodesicService2(2000, 29)
	svc := lbs.NewService(db, lbs.Options{K: 5, Metric: geo.Haversine})
	agg := NewLRAggregator(svc, DefaultLROptions(1))
	count := aggsOf(b, CountSpec())
	// Warm the history so the benchmark reflects steady state.
	if _, err := agg.Run(context.Background(), count, WithMaxSamples(50)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Step(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.QueryCount())/float64(agg.Stats().Samples), "queries/sample")
}
