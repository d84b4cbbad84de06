package lbs

import (
	"context"

	"repro/internal/geom"
)

// ScopedQuerier wraps a Querier with per-scope accounting: its
// QueryCount counts only the queries issued through this wrapper, and
// an optional scope budget caps them independently of the service's
// own budget. One scope per estimation job gives every concurrent run
// its own cost meter and cap while all of them share the underlying
// service (and any cache layered over it) — without a scope, a run
// measuring its spend through the shared QueryCount would charge
// itself for every other job's queries.
//
// The scope charges its own Meter before forwarding, so a canceled
// context is refused before anything is charged or forwarded. It
// refunds whatever the inner querier did not answer, so transient
// failures and partially answered batches never leak scope budget.
// Like the HTTP client's local counter, the scope counts answered
// queries as seen from this side: an answer replayed by an upstream
// cache still counts here even though it consumed no service budget.
//
// A ScopedQuerier is safe for concurrent use whenever its inner
// querier is.
type ScopedQuerier struct {
	inner Querier
	meter Meter
}

var _ Querier = (*ScopedQuerier)(nil)

// NewScopedQuerier wraps inner with a fresh scope. budget ≤ 0 means
// the scope only counts; a positive budget makes queries beyond it
// fail with ErrBudgetExhausted (batches are granted partially, like
// Service.QueryLRBatch).
func NewScopedQuerier(inner Querier, budget int64) *ScopedQuerier {
	return &ScopedQuerier{inner: inner, meter: Meter{budget: budget}}
}

// Inner returns the wrapped querier.
func (s *ScopedQuerier) Inner() Querier { return s.inner }

// Bounds implements Querier.
func (s *ScopedQuerier) Bounds() geom.Rect { return s.inner.Bounds() }

// K implements Querier.
func (s *ScopedQuerier) K() int { return s.inner.K() }

// QueryCount returns the queries answered through this scope — the
// scope-local cost metric.
func (s *ScopedQuerier) QueryCount() int64 { return s.meter.Count() }

// RemainingBudget returns how many scope queries may still be issued,
// or −1 for an unlimited scope.
func (s *ScopedQuerier) RemainingBudget() int64 { return s.meter.Remaining() }

// QueryLR implements Querier, charging one scope unit per answered
// query.
func (s *ScopedQuerier) QueryLR(ctx context.Context, q geom.Point, filter Filter) ([]LRRecord, error) {
	if err := s.meter.Charge(ctx); err != nil {
		return nil, err
	}
	recs, err := s.inner.QueryLR(ctx, q, filter)
	if err != nil && !IsPartial(err) {
		s.meter.Refund(1)
		return nil, err
	}
	// A degraded answer is still an answer: the scope keeps its charge
	// and forwards the annotation.
	return recs, err
}

// QueryLNR implements Querier: the scope's LR answer, locations
// stripped.
func (s *ScopedQuerier) QueryLNR(ctx context.Context, q geom.Point, filter Filter) ([]LNRRecord, error) {
	return LNROf(s.QueryLR(ctx, q, filter))
}

// QueryLRBatch implements Querier: the scope grants a prefix of the
// batch, forwards it, and keeps only the charge for positions the
// inner querier actually answered (non-nil entries). The result is
// index-aligned with pts; positions beyond either budget are nil
// alongside ErrBudgetExhausted.
func (s *ScopedQuerier) QueryLRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LRRecord, error) {
	out := make([][]LRRecord, len(pts))
	granted, rerr := s.meter.ChargeN(ctx, int64(len(pts)))
	if granted == 0 {
		return out, rerr
	}
	inner, err := s.inner.QueryLRBatch(ctx, pts[:granted], filter)
	var answered int64
	for i := range inner {
		if inner[i] != nil {
			out[i] = inner[i]
			answered++
		}
	}
	s.meter.Refund(granted - answered)
	if err != nil {
		return out, err
	}
	return out, rerr
}

// QueryLNRBatch implements Querier: the scope's LR batch, locations
// stripped.
func (s *ScopedQuerier) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LNRRecord, error) {
	return LNRBatchOf(s.QueryLRBatch(ctx, pts, filter))
}
