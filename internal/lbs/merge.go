package lbs

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// CandidateCount returns how many distance candidates one logical
// query needs from a candidate source for the receiver's selection to
// be applied exactly over them: K under distance rank, the K×4
// candidate pool under prominence rank. Composite fronts — the
// federation Router, the live overlay — size their member services
// with it.
func (o Options) CandidateCount() int {
	if o.Rank == RankByProminence {
		return o.K * prominenceOverfetch
	}
	return o.K
}

// RankDist is the Euclidean merge key of composite fronts: the
// distance from q to a candidate's effective location, computed
// exactly as the k-d tree computes it (Sqrt of Dist2, not Hypot), so
// a merged ordering reproduces the per-source — and therefore the
// union service's — ordering bit for bit. (LRRecord.Dist is the
// Hypot-computed wire distance; the two can differ in the last ulp,
// which is why it is not the merge key.) Metric-aware fronts use
// Options.RankDist, which degrades to this exact expression under
// geo.Euclidean.
func RankDist(q geom.Point, rec *LRRecord) float64 {
	return math.Sqrt(q.Dist2(rec.Loc))
}

// RankDist is the metric-aware merge key: geo.Metric.Dist evaluates
// the same canonical expression the k-d tree ranks with under either
// metric (Sqrt∘Dist2 for Euclidean, the canonical Haversine for
// geodesic), so merged orderings stay bit-identical to single-service
// orderings in both modes.
func (o Options) RankDist(q geom.Point, rec *LRRecord) float64 {
	return o.Metric.Dist(q, rec.Loc)
}

// MergeRanked merges distance-ranked candidate answers from disjoint
// sources into the exact answer a single Service over the union
// database gives: candidates order by (RankDist, ID) — the service
// ordering contract — the top CandidateCount survive, and the logical
// selection of opts is re-applied (top K by distance, or prominence
// re-scoring by (score, ID) over the candidate pool, exactly the
// selection rawQueryInto applies inside a single service).
//
// Each list must be a (dist, ID)-ranked prefix of its source's
// eligible tuples of length ≥ min(CandidateCount, source size), as
// Service.QueryLR returns when the source's K is the caller's
// CandidateCount; sources must hold pairwise-disjoint tuple sets.
//
// A sole non-nil list under distance rank is already the answer's
// order, so its top K comes back as a capacity-capped subslice of the
// list itself, without a copy; like every query answer, the result is
// shared and must be treated as immutable. A nil list takes the
// general path, which answers a non-nil empty slice, because batch
// callers read a nil answer as unanswered.
func MergeRanked(q geom.Point, opts Options, lists ...[]LRRecord) []LRRecord {
	if len(lists) == 1 && lists[0] != nil && opts.Rank != RankByProminence {
		l := lists[0]
		k := min(len(l), opts.K)
		return l[:k:k]
	}
	// The sort moves small references, not records: a record is about
	// a hundred bytes, and the candidates of a typical merge fit the
	// stack buffer.
	var buf [64]mergeRef
	cands := buf[:0]
	for li, l := range lists {
		for i := range l {
			cands = append(cands, mergeRef{dist: opts.RankDist(q, &l[i]), id: l[i].ID, list: int32(li), pos: int32(i)})
		}
	}
	slices.SortFunc(cands, mergeRef.compare)
	if want := opts.CandidateCount(); len(cands) > want {
		cands = cands[:want]
	}
	if opts.Rank == RankByProminence {
		// Re-score the candidate pool in place: dist becomes the score,
		// and the (score, ID) order is a property of the data alone.
		for i := range cands {
			rec := &lists[cands[i].list][cands[i].pos]
			var attr float64
			if rec.Attrs != nil {
				attr = rec.Attrs[opts.ProminenceAttr]
			}
			cands[i].dist -= opts.ProminenceWeight * attr
		}
		slices.SortFunc(cands, mergeRef.compare)
	}
	out := make([]LRRecord, min(len(cands), opts.K))
	for i := range out {
		out[i] = lists[cands[i].list][cands[i].pos]
	}
	return out
}

// mergeRef is one candidate of a MergeRanked merge: its rank key and
// where its record sits in the merged lists.
type mergeRef struct {
	dist      float64
	id        int64
	list, pos int32
}

// compare orders candidates by (dist, ID): the service ordering
// contract, and under prominence rank (score, ID) once dist holds the
// score.
func (a mergeRef) compare(b mergeRef) int {
	return cmp.Or(cmp.Compare(a.dist, b.dist), cmp.Compare(a.id, b.id))
}

// stripLocations converts an LR answer to its rank-only (LNR) view:
// an LNR interface runs the same ranking as an LR one and withholds
// the locations, so every service-side layer above the leaf Service
// derives its LNR answer this way (through LNROf and LNRBatchOf).
func stripLocations(recs []LRRecord) []LNRRecord {
	out := make([]LNRRecord, len(recs))
	for i, rec := range recs {
		out[i] = LNRRecord{
			ID:       rec.ID,
			Name:     rec.Name,
			Category: rec.Category,
			Attrs:    rec.Attrs,
			Tags:     rec.Tags,
		}
	}
	return out
}

// LNROf answers an LNR query from the LR answer at the same point:
// QueryLNR of a service-side layer is LNROf(its own QueryLR). A
// degraded answer (*PartialError) keeps its annotation; any other
// error drops the answer.
func LNROf(recs []LRRecord, err error) ([]LNRRecord, error) {
	if err != nil && !IsPartial(err) {
		return nil, err
	}
	return stripLocations(recs), err
}

// LNRBatchOf is LNROf for a batch: every answered position is
// stripped, unanswered (nil) positions stay nil, and the error passes
// through unchanged — a batch keeps the positions it answered before
// a budget death or a failure, like the LR batch it came from.
func LNRBatchOf(answers [][]LRRecord, err error) ([][]LNRRecord, error) {
	out := make([][]LNRRecord, len(answers))
	for i, recs := range answers {
		if recs != nil {
			out[i] = stripLocations(recs)
		}
	}
	return out, err
}
