package core

import (
	"context"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// queryLRBatched answers pts through the oracle's batch path when it
// is an lbs.Querier (the simulator, every Querier wrapper and the HTTP
// client are), falling back to sequential point queries otherwise. The
// fallback preserves batch semantics: on error it returns the answers
// completed so far (index-aligned, nil from the failed position on)
// together with the error.
func queryLRBatched(ctx context.Context, o Oracle, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	if bo, ok := o.(lbs.Querier); ok {
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
