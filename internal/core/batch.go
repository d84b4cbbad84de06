package core

import (
	"context"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// BatchOracle is an Oracle with a native multi-point query path:
// m points answered under one budget charge sequence and (for remote
// adapters) one network round-trip. The batch result is index-aligned
// with the points; positions the budget could not cover are nil and
// the error is lbs.ErrBudgetExhausted (a served empty answer is a
// non-nil empty slice). The in-process simulator, the HTTP client
// adapter and the caching wrapper all implement it.
type BatchOracle interface {
	Oracle
	QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error)
	QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error)
}

// The simulator, every Querier wrapper, and the HTTP client all
// satisfy the batch interface.
var _ BatchOracle = (*lbs.Service)(nil)
var _ BatchOracle = (*lbs.CachedOracle)(nil)

// queryLRBatched answers pts through the oracle's batch path when it
// has one, falling back to sequential point queries otherwise. The
// fallback preserves batch semantics: on error it returns the answers
// completed so far (index-aligned, nil from the failed position on)
// together with the error.
func queryLRBatched(ctx context.Context, o Oracle, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	if bo, ok := o.(BatchOracle); ok {
		return bo.QueryLRBatch(ctx, pts, filter)
	}
	out := make([][]lbs.LRRecord, len(pts))
	for i, p := range pts {
		recs, err := o.QueryLR(ctx, p, filter)
		if err != nil {
			return out, err
		}
		if recs == nil {
			recs = []lbs.LRRecord{}
		}
		out[i] = recs
	}
	return out, nil
}
