package lbs

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/geom"
)

// scopedTestService builds a tiny deterministic service.
func scopedTestService(t *testing.T, budget int64) *Service {
	t.Helper()
	bounds := geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))
	tuples := make([]Tuple, 0, 25)
	for i := 0; i < 25; i++ {
		tuples = append(tuples, Tuple{
			ID:  int64(i + 1),
			Loc: geom.Pt(float64(i%5)*20+5, float64(i/5)*20+5),
		})
	}
	return NewService(NewDatabase(bounds, tuples), Options{K: 3, Budget: budget})
}

func TestScopedQuerierCountsOnlyItsOwnQueries(t *testing.T) {
	svc := scopedTestService(t, 0)
	ctx := context.Background()
	a := NewScopedQuerier(svc, 0)
	b := NewScopedQuerier(svc, 0)
	for i := 0; i < 4; i++ {
		if _, err := a.QueryLR(ctx, geom.Pt(10, 10), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.QueryLNR(ctx, geom.Pt(50, 50), nil); err != nil {
		t.Fatal(err)
	}
	if got := a.QueryCount(); got != 4 {
		t.Errorf("scope a counted %d, want 4", got)
	}
	if got := b.QueryCount(); got != 1 {
		t.Errorf("scope b counted %d, want 1", got)
	}
	if got := svc.QueryCount(); got != 5 {
		t.Errorf("service counted %d, want 5", got)
	}
	if got := a.RemainingBudget(); got != -1 {
		t.Errorf("unlimited scope remaining = %d, want -1", got)
	}
}

func TestScopedQuerierBudgetCap(t *testing.T) {
	svc := scopedTestService(t, 0)
	ctx := context.Background()
	sq := NewScopedQuerier(svc, 3)
	for i := 0; i < 3; i++ {
		if _, err := sq.QueryLR(ctx, geom.Pt(10, 10), nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sq.QueryLR(ctx, geom.Pt(10, 10), nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("over-budget scope query returned %v, want ErrBudgetExhausted", err)
	}
	if got := sq.RemainingBudget(); got != 0 {
		t.Errorf("remaining = %d, want 0", got)
	}
	// The service itself is unlimited: only the scope refused.
	if got := svc.QueryCount(); got != 3 {
		t.Errorf("service counted %d, want 3", got)
	}
}

func TestScopedQuerierPartialBatchGrant(t *testing.T) {
	svc := scopedTestService(t, 0)
	ctx := context.Background()
	sq := NewScopedQuerier(svc, 2)
	pts := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 50}, {X: 90, Y: 90}}
	out, err := sq.QueryLRBatch(ctx, pts, nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("partial batch returned %v, want ErrBudgetExhausted", err)
	}
	if len(out) != 3 {
		t.Fatalf("batch result misaligned: len %d", len(out))
	}
	if out[0] == nil || out[1] == nil || out[2] != nil {
		t.Fatalf("expected two answered positions and one nil hole, got [%v %v %v]",
			out[0] != nil, out[1] != nil, out[2] != nil)
	}
	if got := sq.QueryCount(); got != 2 {
		t.Errorf("scope counted %d, want 2", got)
	}
}

func TestScopedQuerierRefundsInnerShortfall(t *testing.T) {
	// The inner service has budget 1; the scope allows 5. A 3-point
	// batch must charge the scope only for the single answered point.
	svc := scopedTestService(t, 1)
	ctx := context.Background()
	sq := NewScopedQuerier(svc, 5)
	pts := []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 50}, {X: 90, Y: 90}}
	out, err := sq.QueryLRBatch(ctx, pts, nil)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("batch over dead inner budget returned %v, want ErrBudgetExhausted", err)
	}
	if out[0] == nil || out[1] != nil || out[2] != nil {
		t.Fatalf("expected exactly the first position answered")
	}
	if got := sq.QueryCount(); got != 1 {
		t.Errorf("scope counted %d, want 1 (refund of unanswered reservations)", got)
	}
	// A failed point query refunds too.
	if _, err := sq.QueryLNR(ctx, geom.Pt(10, 10), nil); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("query over dead inner budget returned %v", err)
	}
	if got := sq.QueryCount(); got != 1 {
		t.Errorf("scope counted %d after failed query, want 1", got)
	}
	if got := sq.RemainingBudget(); got != 4 {
		t.Errorf("remaining = %d, want 4", got)
	}
}

func TestScopedQuerierConcurrentCap(t *testing.T) {
	svc := scopedTestService(t, 0)
	ctx := context.Background()
	const cap = 40
	sq := NewScopedQuerier(svc, cap)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, _ = sq.QueryLR(ctx, geom.Pt(10, 10), nil)
			}
		}()
	}
	wg.Wait()
	if got := sq.QueryCount(); got != cap {
		t.Errorf("scope counted %d, want exactly %d", got, cap)
	}
	if got := svc.QueryCount(); got != cap {
		t.Errorf("service answered %d, want exactly %d", got, cap)
	}
}

// TestScopedQuerierRefusesCanceledContext: the scope reserves through
// its Meter, which checks the context first, so a canceled query is
// refused before it is charged or forwarded — point and batch alike.
func TestScopedQuerierRefusesCanceledContext(t *testing.T) {
	svc := scopedTestService(t, 0)
	sq := NewScopedQuerier(svc, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sq.QueryLR(ctx, geom.Pt(10, 10), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled point query returned %v, want context.Canceled", err)
	}
	out, err := sq.QueryLNRBatch(ctx, []geom.Point{{X: 10, Y: 10}, {X: 50, Y: 50}}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}
	if len(out) != 2 || out[0] != nil || out[1] != nil {
		t.Fatalf("canceled batch answered %v, want two nil positions", out)
	}
	if sq.QueryCount() != 0 || svc.QueryCount() != 0 || sq.RemainingBudget() != 5 {
		t.Fatalf("canceled queries charged: scope %d, service %d, remaining %d",
			sq.QueryCount(), svc.QueryCount(), sq.RemainingBudget())
	}
}
