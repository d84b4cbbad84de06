package lbs

// partial.go — the degraded-answer contract of composite fronts.
//
// A federation that loses a member mid-query can still answer from the
// survivors: the merged result is correct over the reachable tuples
// but may hide better candidates in the unreachable shard. Such an
// answer is *degraded*, not wrong, and the annotation travels as a
// typed error beside the records — callers that care (HTTP handlers
// marking responses, job views counting contamination) inspect it,
// callers that just want answers absorb it through TolerantQuerier.
//
// The file also defines what retry layers share: the transient-failure
// classification — an error is worth retrying only when some layer
// that understood the failure marked it so (MarkTransient), and
// permanent conditions (a spent budget, a canceled context) never
// are — and the jittered backoff and context-bounded wait between
// attempts.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// PartialError annotates an answer assembled from an incomplete
// federation. It is returned *alongside* usable records: a non-nil
// result with a PartialError is a real answer over the reachable
// members, with the counters describing what was missed.
type PartialError struct {
	// Degraded counts answered queries whose candidate merge was
	// missing at least one relevant member (1 for a single query).
	Degraded int
	// Dropped counts batch positions that got no answer at all
	// because their owning shard was down (0 for a single query —
	// an owner failure fails a single query crisply instead).
	Dropped int
	// Missing counts member subqueries that were skipped (breaker
	// open) or failed after retries.
	Missing int
	// Err is the first underlying member failure, if any call was
	// actually attempted (a breaker-open skip leaves it nil).
	Err error
}

func (e *PartialError) Error() string {
	msg := fmt.Sprintf("lbs: partial answer (degraded=%d dropped=%d missing=%d)",
		e.Degraded, e.Dropped, e.Missing)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

// Unwrap exposes the first member failure to errors.Is/As chains.
func (e *PartialError) Unwrap() error { return e.Err }

// AsPartial extracts the partial-answer annotation from an error
// chain. A nil error returns before errors.As, whose target would
// cost every answered query an allocation.
func AsPartial(err error) (*PartialError, bool) {
	if err == nil {
		return nil, false
	}
	var pe *PartialError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// IsPartial reports whether err is a degraded-answer annotation — an
// answer that is usable but incomplete, as opposed to a failure.
func IsPartial(err error) bool {
	_, ok := AsPartial(err)
	return ok
}

// transientErr marks an error as worth retrying. It preserves the
// wrapped chain so errors.Is/As classifications still apply.
type transientErr struct{ err error }

func (t *transientErr) Error() string   { return t.err.Error() }
func (t *transientErr) Unwrap() error   { return t.err }
func (t *transientErr) Transient() bool { return true }

// MarkTransient wraps err so IsTransient reports it retryable. Layers
// that understand a failure's cause (the fault injector, the HTTP
// client after exhausting its own retries on a 5xx) mark it; layers
// that retry (the federation router) test it. nil stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err was marked retryable by some layer
// that understood it. Permanent conditions dominate: a spent budget
// never un-spends and a canceled context must not be retried against,
// no matter what the chain claims.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, ErrBudgetExhausted) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// TolerantQuerier absorbs degraded-answer annotations: partial
// answers pass through as plain successes while a per-wrapper counter
// records the contamination. It is the adapter between the federation's
// annotated contract and the estimation layers, whose estimators treat
// any error as a failed sample — the jobs layer wraps each job's
// backend in one and surfaces DegradedCount in the job view.
//
// Batch answers with dropped positions (owner down) keep a non-nil
// error — the crisp underlying failure — so the batch contract "nil
// holes come with a non-nil error" still holds for callers.
//
// A TolerantQuerier is safe for concurrent use whenever its inner
// querier is.
type TolerantQuerier struct {
	inner    Querier
	degraded atomic.Int64
}

var _ Querier = (*TolerantQuerier)(nil)

// NewTolerantQuerier wraps inner with partial-answer absorption.
func NewTolerantQuerier(inner Querier) *TolerantQuerier {
	return &TolerantQuerier{inner: inner}
}

// Inner implements Wrapper.
func (t *TolerantQuerier) Inner() Querier { return t.inner }

// Bounds implements Querier.
func (t *TolerantQuerier) Bounds() geom.Rect { return t.inner.Bounds() }

// K implements Querier.
func (t *TolerantQuerier) K() int { return t.inner.K() }

// QueryCount implements Querier.
func (t *TolerantQuerier) QueryCount() int64 { return t.inner.QueryCount() }

// DegradedCount returns how many queries through this wrapper were
// answered from a partial federation — the contamination metric job
// views report as degraded_queries.
func (t *TolerantQuerier) DegradedCount() int64 { return t.degraded.Load() }

// absorb folds a partial annotation into the counters and decides what
// error the caller sees: nil for fully-answered degraded results, the
// crisp underlying failure when positions were dropped.
func (t *TolerantQuerier) absorb(err error) error {
	pe, ok := AsPartial(err)
	if !ok {
		return err
	}
	t.degraded.Add(int64(pe.Degraded))
	if pe.Dropped == 0 {
		return nil
	}
	if pe.Err != nil {
		return pe.Err
	}
	return err
}

// QueryLR implements Querier, absorbing degraded annotations.
func (t *TolerantQuerier) QueryLR(ctx context.Context, q geom.Point, filter Filter) ([]LRRecord, error) {
	recs, err := t.inner.QueryLR(ctx, q, filter)
	return recs, t.absorb(err)
}

// QueryLNR implements Querier, absorbing degraded annotations.
func (t *TolerantQuerier) QueryLNR(ctx context.Context, q geom.Point, filter Filter) ([]LNRRecord, error) {
	recs, err := t.inner.QueryLNR(ctx, q, filter)
	return recs, t.absorb(err)
}

// QueryLRBatch implements Querier, absorbing degraded annotations.
func (t *TolerantQuerier) QueryLRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LRRecord, error) {
	out, err := t.inner.QueryLRBatch(ctx, pts, filter)
	return out, t.absorb(err)
}

// QueryLNRBatch implements Querier, absorbing degraded annotations.
func (t *TolerantQuerier) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter Filter) ([][]LNRRecord, error) {
	out, err := t.inner.QueryLNRBatch(ctx, pts, filter)
	return out, t.absorb(err)
}

// Backoff is the jittered exponential wait before retry attempt a
// (a ≥ 1): base·2^(a−1) capped at max, drawn uniformly from [d/2, d]
// so synchronized callers spread out. int63n is the jitter source
// (rand.Int63n; tests pass fixed draws); base and max must be
// positive, each caller applying its own defaults.
func Backoff(base, max time.Duration, a int, int63n func(int64) int64) time.Duration {
	d := base
	for i := 1; i < a && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d/2 + time.Duration(int63n(int64(d/2)+1))
}

// Sleep waits d or until ctx is done, returning ctx's error then.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
