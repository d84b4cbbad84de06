package store

// Instrumented is the storage engine's layer in a querier stack: it
// decorates a Querier without touching any query (pure pass-through)
// and answers Stats(), so lbs.Walk — which /v1/stats runs over
// the layer tree — finds the engine's counters wherever the wrapper
// sits in the stack.

import (
	"context"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// Instrumented passes queries through while exposing store stats.
type Instrumented struct {
	inner lbs.Querier
	s     *Store
}

var _ lbs.Querier = (*Instrumented)(nil)
var _ lbs.Wrapper = (*Instrumented)(nil)

// Inner implements lbs.Wrapper.
func (i *Instrumented) Inner() lbs.Querier { return i.inner }

// Stats reports the engine counters: the /v1/stats store section.
func (i *Instrumented) Stats() Stats { return i.s.Stats() }

// QueryLR implements lbs.Querier.
func (i *Instrumented) QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	return i.inner.QueryLR(ctx, q, filter)
}

// QueryLNR implements lbs.Querier.
func (i *Instrumented) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	return i.inner.QueryLNR(ctx, q, filter)
}

// QueryLRBatch implements lbs.Querier.
func (i *Instrumented) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	return i.inner.QueryLRBatch(ctx, pts, filter)
}

// QueryLNRBatch implements lbs.Querier.
func (i *Instrumented) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	return i.inner.QueryLNRBatch(ctx, pts, filter)
}

// Bounds implements lbs.Querier.
func (i *Instrumented) Bounds() geom.Rect { return i.inner.Bounds() }

// K implements lbs.Querier.
func (i *Instrumented) K() int { return i.inner.K() }

// QueryCount implements lbs.Querier.
func (i *Instrumented) QueryCount() int64 { return i.inner.QueryCount() }
