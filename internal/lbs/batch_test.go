package lbs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/geom"
)

// TestChargeNeverExceedsBudget hammers a budget-capped service from
// many goroutines while a watcher continuously reads QueryCount. The
// CAS reservation must keep the counter ≤ Budget at every instant
// (the old add-then-rollback let it transiently overshoot, tripping
// the Driver's maxQueries stop check early), and exactly Budget
// queries must succeed.
func TestChargeNeverExceedsBudget(t *testing.T) {
	const budget = 100
	svc := NewService(testDB(t), Options{K: 2, Budget: budget})
	ctx := context.Background()

	stop := make(chan struct{})
	done := make(chan struct{})
	var overshoot atomic.Int64
	go func() {
		defer close(done)
		for {
			if n := svc.QueryCount(); n > budget {
				overshoot.Store(n)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	var ok, exhausted atomic.Int64
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				_, err := svc.QueryLR(ctx, geom.Pt(rng.Float64()*10, rng.Float64()*10), nil)
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, ErrBudgetExhausted):
					exhausted.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-done

	if n := overshoot.Load(); n != 0 {
		t.Errorf("QueryCount transiently read %d > budget %d", n, budget)
	}
	if got := ok.Load(); got != budget {
		t.Errorf("successful queries: %d, want exactly %d", got, budget)
	}
	if got := exhausted.Load(); got != 16*50-budget {
		t.Errorf("exhausted errors: %d, want %d", got, 16*50-budget)
	}
	if got := svc.QueryCount(); got != budget {
		t.Errorf("final QueryCount: %d, want %d", got, budget)
	}
}

// TestBatchMatchesSingle checks a batch answer equals the per-point
// answers and costs the same number of queries.
func TestBatchMatchesSingle(t *testing.T) {
	db := testDB(t)
	single := NewService(db, Options{K: 2})
	batched := NewService(db, Options{K: 2})
	ctx := context.Background()
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9), geom.Pt(5, 5), geom.Pt(0, 10)}

	got, err := batched.QueryLRBatch(ctx, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pts) {
		t.Fatalf("answers: %d, want %d", len(got), len(pts))
	}
	for i, p := range pts {
		want, err := single.QueryLR(ctx, p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got[i]) != len(want) {
			t.Fatalf("point %d: %d results, want %d", i, len(got[i]), len(want))
		}
		for j := range want {
			if got[i][j].ID != want[j].ID || got[i][j].Dist != want[j].Dist {
				t.Errorf("point %d result %d: %+v != %+v", i, j, got[i][j], want[j])
			}
		}
	}
	if bq, sq := batched.QueryCount(), single.QueryCount(); bq != sq {
		t.Errorf("batch cost %d queries, single cost %d", bq, sq)
	}
}

// TestBatchPartialBudget: a batch larger than the remaining budget
// answers the covered prefix, marks the rest nil and reports
// ErrBudgetExhausted without overshooting the counter.
func TestBatchPartialBudget(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 2, Budget: 5})
	pts := make([]geom.Point, 8)
	for i := range pts {
		pts[i] = geom.Pt(float64(i), float64(i))
	}
	got, err := svc.QueryLRBatch(context.Background(), pts, nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	for i := 0; i < 5; i++ {
		if got[i] == nil {
			t.Errorf("answer %d is nil, want served", i)
		}
	}
	for i := 5; i < 8; i++ {
		if got[i] != nil {
			t.Errorf("answer %d served beyond budget", i)
		}
	}
	if n := svc.QueryCount(); n != 5 {
		t.Errorf("QueryCount = %d, want 5", n)
	}
	// A fully exhausted batch answers nothing.
	got, err = svc.QueryLRBatch(context.Background(), pts[:2], nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("exhausted err = %v", err)
	}
	for i, a := range got {
		if a != nil {
			t.Errorf("answer %d served with zero budget", i)
		}
	}
}

// TestBatchLNR exercises the rank-only twin.
func TestBatchLNR(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 3})
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(9, 9)}
	got, err := svc.QueryLNRBatch(context.Background(), pts, CategoryFilter("cafe"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0][0].ID != 1 || got[1][0].ID != 2 {
		t.Errorf("nearest cafés: %+v", got)
	}
	if n := svc.QueryCount(); n != 2 {
		t.Errorf("QueryCount = %d, want 2", n)
	}
}

// TestBatchConcurrentBudgetEdge mixes concurrent batches of varying
// size at the budget edge: granted queries across all callers must
// sum to exactly the budget.
func TestBatchConcurrentBudgetEdge(t *testing.T) {
	const budget = 97
	svc := NewService(testDB(t), Options{K: 1, Budget: budget})
	ctx := context.Background()
	var served atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 10; i++ {
				m := 1 + rng.Intn(7)
				pts := make([]geom.Point, m)
				for j := range pts {
					pts[j] = geom.Pt(rng.Float64()*10, rng.Float64()*10)
				}
				answers, err := svc.QueryLRBatch(ctx, pts, nil)
				if err != nil && !errors.Is(err, ErrBudgetExhausted) {
					t.Errorf("unexpected error: %v", err)
					return
				}
				for _, a := range answers {
					if a != nil {
						served.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := served.Load(); got != budget {
		t.Errorf("served answers: %d, want exactly %d", got, budget)
	}
	if got := svc.QueryCount(); got != budget {
		t.Errorf("QueryCount = %d, want %d", got, budget)
	}
}

// TestOptionsValidation: a prominence service answers from its
// over-fetched candidate pool; nonsensical options are rejected.
func TestOptionsValidation(t *testing.T) {
	svc := NewService(testDB(t), Options{K: 1, Rank: RankByProminence, ProminenceAttr: "rating"})
	recs, err := svc.QueryLR(context.Background(), geom.Pt(5, 5), nil)
	if err != nil || len(recs) == 0 {
		t.Errorf("prominence query returned %d results, err %v", len(recs), err)
	}
	for _, bad := range []Options{
		{K: 0},
		{K: 1, MaxRadius: -1},
		{K: 1, MaxRadius: math.NaN()},
		{K: 1, MaxRadius: math.Inf(1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("options %+v did not panic", bad)
				}
			}()
			NewService(testDB(t), bad)
		}()
	}
}
