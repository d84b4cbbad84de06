package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/workload"
)

// TestConcurrentFederatedBatchesShareBudget hammers one federated
// budget from many goroutines issuing batches concurrently (run under
// -race by `make test`): the CAS reservation must hand out exactly
// Budget answered positions across all batches, never more, and the
// logical counter must never overshoot.
func TestConcurrentFederatedBatchesShareBudget(t *testing.T) {
	db := workload.USASchools(300, 61).DB
	const budget = 200
	router, err := FromPartsWrapped(Partition(db, 4), lbs.Options{K: 4, Budget: budget}, DefaultResilience(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := db.Bounds()

	const workers = 8
	const batchesPerWorker = 10
	const batchSize = 7 // workers×batches×size = 560 demanded of 200

	var answered atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < batchesPerWorker; i++ {
				pts := make([]geom.Point, batchSize)
				for j := range pts {
					pts[j] = geom.Pt(b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height())
				}
				out, err := router.QueryLRBatch(ctx, pts, nil)
				if err != nil && !errors.Is(err, lbs.ErrBudgetExhausted) {
					t.Errorf("worker %d: %v", seed, err)
					return
				}
				for _, recs := range out {
					if recs != nil {
						answered.Add(1)
					}
				}
				if c := router.QueryCount(); c > budget {
					t.Errorf("logical count %d overshot budget %d", c, budget)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if got := answered.Load(); got != budget {
		t.Fatalf("answered %d positions across concurrent batches, want exactly %d", got, budget)
	}
	if c := router.QueryCount(); c != budget {
		t.Fatalf("final logical count %d, want %d", c, budget)
	}
}
