package core

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/lbs"
	"repro/internal/workload"
)

// BenchmarkLRCellComputation measures one full exact-cell weight
// computation (queries are in-process, so this is the algorithmic
// overhead, not the simulated network).
func BenchmarkLRCellComputation(b *testing.B) {
	db := smallService2(500, 31)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	agg := NewLRAggregator(svc, DefaultLROptions(1))
	count := aggsOf(b, CountSpec())
	// Warm the history so the benchmark reflects steady state.
	if _, err := agg.Run(context.Background(), count, WithMaxSamples(50)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Step(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.QueryCount())/float64(agg.Stats().Samples), "queries/sample")
}

// BenchmarkLRSample measures one end-to-end LR estimator sample
// (query + cell computations for every exploited tuple) against the
// in-process oracle — the headline number of the geometry-engine
// overhaul, tracked in BENCH_geom.json.
func BenchmarkLRSample(b *testing.B) {
	db := smallService2(2000, 29)
	svc := lbs.NewService(db, lbs.Options{K: 5})
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

// BenchmarkLRSampleK10 is BenchmarkLRSample in the shape of the
// estimate-lr benchmark workload: schools-shaped data (50k tuples,
// clustered over the US plane), k = 10, the full device set. At k = 10
// the adaptive-h choice runs for ten tuples per sample against a
// history of thousands of sites, so this row tracks the cost of
// choosing h, which the k = 5 row over 2000 tuples under-represents.
func BenchmarkLRSampleK10(b *testing.B) {
	sc := workload.USASchools(50000, 7)
	svc := lbs.NewService(sc.DB, lbs.Options{K: 10})
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

// BenchmarkLRBudget measures how LR's CPU per query grows with the
// query budget: one whole DefaultLROptions COUNT run over schools-50k
// (k = 10) per iteration, at B = 600 (an estimate-lr job), 5 000,
// 20 000 and 60 000 queries. The history grows by up to k sites per
// query, so a per-sample cost that scans it shows as ns/query rising
// with B; with the history's grid index it stays about flat.
func BenchmarkLRBudget(b *testing.B) {
	sc := workload.USASchools(50000, 7)
	count := aggsOf(b, CountSpec())
	for _, budget := range []int64{600, 5000, 20000, 60000} {
		b.Run(fmt.Sprintf("B=%d", budget), func(b *testing.B) {
			var queries int64
			for i := 0; i < b.N; i++ {
				svc := lbs.NewService(sc.DB, lbs.Options{K: 10})
				agg := NewLRAggregator(svc, DefaultLROptions(1))
				if _, err := agg.Run(context.Background(), count, WithMaxQueries(budget)); err != nil {
					b.Fatal(err)
				}
				queries += svc.QueryCount()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(queries), "ns/query")
		})
	}
}

// BenchmarkLNRCellInference measures one rank-only sample (cell
// inference via binary search).
func BenchmarkLNRCellInference(b *testing.B) {
	db := smallService2(500, 37)
	svc := lbs.NewService(db, lbs.Options{K: 5})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := agg.Step(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.QueryCount())/float64(agg.Stats().Samples), "queries/sample")
}

// BenchmarkNNOSample measures one baseline sample.
func BenchmarkNNOSample(b *testing.B) {
	db := smallService2(500, 41)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 3})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nno.Step(context.Background(), false); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(svc.QueryCount())/float64(b.N), "queries/sample")
}

// BenchmarkLocalize measures one §4.3 position inference.
func BenchmarkLocalize(b *testing.B) {
	db := smallService2(300, 43)
	svc := lbs.NewService(db, lbs.Options{K: 8})
	agg := NewLNRAggregator(svc, LNROptions{Seed: 4})
	b.ResetTimer()
	ok := 0
	for i := 0; i < b.N; i++ {
		idx := i % db.Len()
		if _, err := agg.Localize(context.Background(), db.Tuple(idx).ID, db.Tuple(idx).Loc); err == nil {
			ok++
		}
	}
	b.ReportMetric(float64(ok)/float64(b.N), "success-rate")
}
