package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// nonBatchOracle hides the batch methods of a service so tests can
// exercise queryLRBatched's sequential fallback path.
type nonBatchOracle struct {
	svc *lbs.Service
}

func (o nonBatchOracle) QueryLR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LRRecord, error) {
	return o.svc.QueryLR(ctx, q, f)
}
func (o nonBatchOracle) QueryLNR(ctx context.Context, q geom.Point, f lbs.Filter) ([]lbs.LNRRecord, error) {
	return o.svc.QueryLNR(ctx, q, f)
}
func (o nonBatchOracle) Bounds() geom.Rect { return o.svc.Bounds() }
func (o nonBatchOracle) K() int            { return o.svc.K() }
func (o nonBatchOracle) QueryCount() int64 { return o.svc.QueryCount() }

// TestNNOBatchRespectsBudget: a parallel NNO run, whose probes batch,
// against a budget-capped service stops gracefully with partial
// results and the counter never exceeds the budget.
func TestNNOBatchRespectsBudget(t *testing.T) {
	db := smallService2(60, 17)
	const budget = 400
	svc := lbs.NewService(db, lbs.Options{K: 1, Budget: budget})
	nno := NewNNOBaseline(svc, NNOOptions{Seed: 3})
	res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()),
		WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples == 0 {
		t.Fatal("no samples completed")
	}
	if n := svc.QueryCount(); n > budget {
		t.Errorf("QueryCount %d exceeds budget %d", n, budget)
	}
}

// TestNNOFallbackOracle: NNO over an Oracle without batch support must
// still work (per-query fallback inside the probe loop).
func TestNNOFallbackOracle(t *testing.T) {
	db := smallService2(40, 23)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	nno := NewNNOBaseline(nonBatchOracle{svc}, NNOOptions{Seed: 9})
	res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(40))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 40 {
		t.Errorf("samples = %d, want 40", res[0].Samples)
	}
}

// snapSampler snaps uniform draws to a coarse grid, making repeated
// sample points common — the workload where client-side caching pays.
type snapSampler struct {
	*sampling.Uniform
	pitch float64
}

func (s snapSampler) Sample(rng *rand.Rand) geom.Point {
	p := s.Uniform.Sample(rng)
	return geom.Pt(
		(math.Floor(p.X/s.pitch)+0.5)*s.pitch,
		(math.Floor(p.Y/s.pitch)+0.5)*s.pitch,
	)
}

// TestCachedRunSameEstimateFewerQueries is the acceptance check for
// the caching layer: on a workload with repeated sample points, an
// estimator over a CachedOracle reaches the *same* estimate as the
// uncached run (the wrapper is transparent) while consuming strictly
// fewer service queries.
func TestCachedRunSameEstimateFewerQueries(t *testing.T) {
	db := smallService2(60, 5)
	const samples = 80
	run := func(cached bool) ([]Result, int64) {
		svc := lbs.NewService(db, lbs.Options{K: 1})
		var oracle Oracle = svc
		if cached {
			oracle = lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 1 << 14})
		}
		smp := snapSampler{Uniform: sampling.NewUniform(db.Bounds()), pitch: 25}
		nno := NewNNOBaseline(oracle, NNOOptions{Seed: 21, Sampler: smp})
		res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()), WithMaxSamples(samples))
		if err != nil {
			t.Fatal(err)
		}
		return res, svc.QueryCount()
	}
	plain, plainQ := run(false)
	cached, cachedQ := run(true)
	if plain[0].Samples != samples || cached[0].Samples != samples {
		t.Fatalf("samples: plain %d cached %d, want %d", plain[0].Samples, cached[0].Samples, samples)
	}
	if plain[0].Estimate != cached[0].Estimate {
		t.Errorf("cached estimate %v != uncached %v (wrapper must be transparent)",
			cached[0].Estimate, plain[0].Estimate)
	}
	if cachedQ >= plainQ {
		t.Errorf("cached run spent %d queries, want strictly fewer than uncached %d", cachedQ, plainQ)
	}
	t.Logf("uncached %d queries, cached %d (%.0f%% saved)", plainQ, cachedQ,
		100*(1-float64(cachedQ)/float64(plainQ)))
}

// TestCachedBatchedParallelRun combines every layer: cache wrapper,
// NNO's batched probes, parallel forks — under -race this exercises
// the concurrent shard locking end to end, and the parallel workers
// must reserve exactly the sample cap between them.
func TestCachedBatchedParallelRun(t *testing.T) {
	db := smallService2(60, 5)
	svc := lbs.NewService(db, lbs.Options{K: 1})
	oracle := lbs.NewCachedOracle(svc, lbs.CacheOptions{Capacity: 4096})
	smp := snapSampler{Uniform: sampling.NewUniform(db.Bounds()), pitch: 20}
	nno := NewNNOBaseline(oracle, NNOOptions{Seed: 2, Sampler: smp})
	res, err := nno.Run(context.Background(), aggsOf(t, CountSpec()),
		WithMaxSamples(120), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Samples != 120 {
		t.Errorf("samples = %d, want 120", res[0].Samples)
	}
	st := oracle.Stats()
	if st.Hits == 0 {
		t.Errorf("expected cache hits on a snapped workload, got %+v", st)
	}
	if st.Misses != svc.QueryCount() {
		t.Errorf("misses %d != inner queries %d", st.Misses, svc.QueryCount())
	}
}
