package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// benchService builds a fresh clustered service for one planner bench
// iteration (same shape as smallService, without the testing.T).
func benchService(n, k int, seed int64) *lbs.Service {
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	pts := workload.ClusterMix(workload.ClusterMixConfig{
		Bounds: bounds, N: n, Clusters: 5, UniformFrac: 0.2, Seed: seed,
	})
	rng := rand.New(rand.NewSource(seed + 1))
	tuples := make([]lbs.Tuple, n)
	for i, p := range pts {
		tuples[i] = lbs.Tuple{
			ID:  int64(i + 1),
			Loc: p,
			Attrs: map[string]float64{
				"weight": 1 + rng.Float64()*9,
			},
			Tags: map[string]string{"flag": map[bool]string{true: "yes", false: "no"}[rng.Float64() < 0.4]},
		}
	}
	return lbs.NewService(lbs.NewDatabase(bounds, tuples), lbs.Options{K: k})
}

// Planner benchmark settings: the acceptance workload shape (specs
// sharing 4 selections) run to a fixed confidence target, so the
// queries/agg metric is the cost of equal-quality answers.
const (
	benchPlannerN        = 150
	benchPlannerK        = 3
	benchPlannerSeed     = 21
	benchPlannerTargetCI = 0.30
	benchPlannerMaxSamp  = 2000
)

// BenchmarkPlannerBatch plans and executes batches of 1/4/16
// aggregates as one shared-stream batch, reporting oracle queries per
// aggregate — the paper's cost metric, amortized by the planner's
// predicate dedup, operator fusion and budget allocation.
func BenchmarkPlannerBatch(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("aggs=%d", size), func(b *testing.B) {
			specs := batchSpecs(size)
			ctx := context.Background()
			var queries int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := benchService(benchPlannerN, benchPlannerK, 6)
				b.StartTimer()
				plan, err := PlanBatch(specs, PlanOptions{
					Seed:       benchPlannerSeed,
					TargetCI:   benchPlannerTargetCI,
					MaxSamples: benchPlannerMaxSamp,
				})
				if err != nil {
					b.Fatal(err)
				}
				br, err := plan.Execute(ctx, svc, nil)
				if err != nil {
					b.Fatal(err)
				}
				queries += br.Queries
			}
			b.ReportMetric(float64(queries)/float64(b.N)/float64(size), "queries/agg")
		})
	}
}

// BenchmarkPlannerIndependent answers the same batches one aggregate
// at a time — a fresh single-spec plan, stream and service per spec,
// the pre-planner cost — so the queries/agg ratio against
// BenchmarkPlannerBatch is the measured sharing payoff.
func BenchmarkPlannerIndependent(b *testing.B) {
	for _, size := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("aggs=%d", size), func(b *testing.B) {
			specs := batchSpecs(size)
			ctx := context.Background()
			var queries int64
			for i := 0; i < b.N; i++ {
				for si := range specs {
					b.StopTimer()
					svc := benchService(benchPlannerN, benchPlannerK, 6)
					b.StartTimer()
					plan, err := PlanBatch(specs[si:si+1], PlanOptions{
						Seed:       benchPlannerSeed + int64(si),
						TargetCI:   benchPlannerTargetCI,
						MaxSamples: benchPlannerMaxSamp,
					})
					if err != nil {
						b.Fatal(err)
					}
					br, err := plan.Execute(ctx, svc, nil)
					if err != nil {
						b.Fatal(err)
					}
					queries += br.Queries
				}
			}
			b.ReportMetric(float64(queries)/float64(b.N)/float64(size), "queries/agg")
		})
	}
}
