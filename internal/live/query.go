package live

import (
	"context"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// The read path. Every query resolves the snapshot pointer exactly
// once and queries the base, the frozen run and the tail (the last
// two when they hold tuples) as distance-ranked candidate sources —
// tombstones and dead run tuples excluded by filter, which is
// semantically identical to removing the tuples: a kNN prefix over the
// filtered base is the kNN prefix of the base minus the tombstoned
// tuples — and merges with lbs.MergeRanked, the same (dist, ID)
// contract the federation Router is pinned against. An empty overlay
// leaves the base's answer alone in the merge: under distance rank
// MergeRanked returns it as a subslice, without copying.

// answerLR computes one merged LR answer against a fixed snapshot,
// without charging (callers charge the live meter first; the internal
// candidate services are unmetered).
func (d *Database) answerLR(ctx context.Context, s *snapshot, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	baseKeep, runKeep := s.baseKeep, s.runKeep
	if filter != nil {
		baseKeep, runKeep = s.keep(filter)
	}
	var lists [3][]lbs.LRRecord
	recs, err := s.baseCand.QueryLR(ctx, q, baseKeep)
	if err != nil {
		return nil, err
	}
	lists[0] = recs
	n := 1
	if s.run.cand != nil {
		if lists[n], err = s.run.cand.QueryLR(ctx, q, runKeep); err != nil {
			return nil, err
		}
		n++
	}
	if s.tailCand != nil {
		if lists[n], err = s.tailCand.QueryLR(ctx, q, filter); err != nil {
			return nil, err
		}
		n++
	}
	return lbs.MergeRanked(q, d.opts, lists[:n]...), nil
}

var _ lbs.NonBlocking = (*Database)(nil)

// NeverBlocks implements lbs.NonBlocking: a read resolves one atomic
// snapshot and queries in-memory services; it never takes the
// mutation lock.
func (d *Database) NeverBlocks() {}

// QueryLR implements lbs.Querier.
func (d *Database) QueryLR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LRRecord, error) {
	if err := d.meter.Charge(ctx); err != nil {
		return nil, err
	}
	return d.answerLR(ctx, d.snap.Load(), q, filter)
}

// QueryLNR implements lbs.Querier: the merged LR answer with locations
// stripped — exactly how a single service derives LNR from its ranked
// candidates, so rank orders match bit for bit.
func (d *Database) QueryLNR(ctx context.Context, q geom.Point, filter lbs.Filter) ([]lbs.LNRRecord, error) {
	return lbs.LNROf(d.QueryLR(ctx, q, filter))
}

// QueryLRBatch implements lbs.Querier with Service batch semantics:
// one atomic budget reservation, the granted prefix answered (all
// against one snapshot), nil for unanswered positions and
// ErrBudgetExhausted when the budget covered only part of the batch.
func (d *Database) QueryLRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LRRecord, error) {
	out := make([][]lbs.LRRecord, len(pts))
	granted, err := d.meter.ChargeN(ctx, int64(len(pts)))
	if granted > 0 {
		s := d.snap.Load()
		for i := int64(0); i < granted; i++ {
			recs, qerr := d.answerLR(ctx, s, pts[i], filter)
			if qerr != nil {
				d.meter.Refund(granted - i)
				return out, qerr
			}
			out[i] = recs
		}
	}
	return out, err
}

// QueryLNRBatch implements lbs.Querier: the LR batch, locations
// stripped.
func (d *Database) QueryLNRBatch(ctx context.Context, pts []geom.Point, filter lbs.Filter) ([][]lbs.LNRRecord, error) {
	return lbs.LNRBatchOf(d.QueryLRBatch(ctx, pts, filter))
}
