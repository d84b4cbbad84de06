package core

import (
	"context"
	"math"

	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// NNOOptions configures the LR-LBS-NNO baseline — the nearest-neighbor
// oracle sampler of Dalvi et al. (KDD 2011), the closest prior work
// the paper compares against.
//
// NNO uses only the top-1 tuple of each random query and estimates the
// area of its Voronoi cell approximately: an axis-aligned box around
// the tuple is grown by doubling until its corners stop returning the
// tuple, and the cell area is then estimated as the box area times the
// fraction of uniform probe points inside the box whose nearest
// neighbor is the tuple. Both the doubling probes and the area probes
// cost queries, and plugging the Monte-Carlo area estimate into the
// inverse-probability weight makes the estimator biased (Jensen) with
// high variance — the inefficiencies §1.2 attributes to [10].
type NNOOptions struct {
	// Region restricts sampling to a sub-region of the service's
	// coverage (zero = whole bounds). NNO has no cell-clipping
	// machinery, so region estimates carry extra edge bias — one more
	// inefficiency versus LR-LBS-AGG.
	Region geom.Rect
	// Sampler is the query-location distribution (uniform when nil).
	Sampler sampling.Sampler
	// Filter is an optional server-side selection pass-through.
	Filter lbs.Filter
	// Seed drives the randomness.
	Seed int64
}

// Tuning constants of the NNO baseline.
const (
	// nnoAreaProbes is the Monte-Carlo probe count for the area
	// estimate (the best-performing setting we found, as the paper's
	// §6 does for its NNO configuration).
	nnoAreaProbes = 30
	// nnoBoxScale sets the initial box half-width as a multiple of
	// the query-to-tuple distance.
	nnoBoxScale = 2
	// nnoBoxDoublings caps box growth.
	nnoBoxDoublings = 16
)

// NNOBaseline implements LR-LBS-NNO.
type NNOBaseline struct {
	drawSource
	opts NNOOptions
}

// NewNNOBaseline builds the baseline estimator over an LR service.
func NewNNOBaseline(svc Oracle, opts NNOOptions) *NNOBaseline {
	return &NNOBaseline{newDrawSource(svc, opts.Region, opts.Sampler, opts.Seed), opts}
}

func (b *NNOBaseline) query(ctx context.Context, p geom.Point) ([]lbs.LRRecord, error) {
	return b.svc.QueryLR(ctx, p, b.opts.Filter)
}

// isTop1 reports whether the answer's top tuple is id.
func isTop1(recs []lbs.LRRecord, id int64) bool {
	return len(recs) > 0 && recs[0].ID == id
}

// Step draws one random query and weights its nearest tuple by the
// estimated selection probability p; locations come with the answer,
// so needLoc changes nothing.
func (b *NNOBaseline) Step(ctx context.Context, _ bool) (Sample, error) {
	q := b.smp.Sample(b.rng)
	recs, err := b.query(ctx, q)
	if err != nil || len(recs) == 0 {
		return nil, err
	}
	t := recs[0] // NNO uses only the nearest neighbor
	// Phase 1: grow a box around t by doubling while any corner still
	// returns t as the nearest neighbor.
	half := nnoBoxScale * math.Max(q.Dist(t.Loc), b.bound.Diagonal()*1e-6)
	for d := 0; d < nnoBoxDoublings; d++ {
		box := geom.NewRect(
			t.Loc.Sub(geom.Pt(half, half)),
			t.Loc.Add(geom.Pt(half, half)),
		)
		cornerHit := false
		for _, c := range box.Corners() {
			cr, err := b.query(ctx, b.bound.Clamp(c))
			if err != nil {
				return nil, err
			}
			if isTop1(cr, t.ID) {
				cornerHit = true
				break
			}
		}
		if !cornerHit {
			break
		}
		half *= 2
	}
	box := geom.NewRect(
		t.Loc.Sub(geom.Pt(half, half)),
		t.Loc.Add(geom.Pt(half, half)),
	)
	// Clip the probe box to the coverage bounds.
	box, ok := box.Intersect(b.bound)
	if !ok || box.Area() <= 0 {
		return nil, nil
	}
	// Phase 2: Monte-Carlo area estimate. The probes are independent,
	// so they travel through the oracle's batch path when it has one
	// (one round-trip and one budget reservation instead of
	// nnoAreaProbes); the probe points, their order and the query cost
	// are identical to the sequential loop.
	probes := make([]geom.Point, nnoAreaProbes)
	for i := range probes {
		probes[i] = geom.RandomInRect(b.rng, box)
	}
	answers, err := queryLRBatched(ctx, b.svc, probes, b.opts.Filter)
	if err != nil {
		return nil, err
	}
	hits := 0
	for _, pr := range answers {
		if isTop1(pr, t.ID) {
			hits++
		}
	}
	frac := float64(hits) / nnoAreaProbes
	if frac == 0 {
		// The probe box missed the cell entirely (can happen when the
		// cell is a sliver); fall back to the smallest resolvable
		// fraction, a pragmatic choice mirroring [10]'s bias
		// correction needs.
		frac = 0.5 / nnoAreaProbes
	}
	areaEst := frac * box.Area()
	// Approximate the selection probability as sampling-density ×
	// estimated cell area (exact only for uniform sampling over the
	// box; NNO has no exact-cell machinery to do better).
	density := b.smp.Density(t.Loc)
	if density <= 0 {
		return nil, nil
	}
	return Sample{{Record: recordOfLR(t), W: density * areaEst, Div: true}}, nil
}

// Fork returns an independent baseline of the same configuration over
// the same service, at a fork seed (see drawSource.forkSeed), for
// Run's parallel mode.
func (b *NNOBaseline) Fork(seed int64) Estimator {
	opts := b.opts
	opts.Seed = b.forkSeed(seed)
	return NewNNOBaseline(b.svc, opts)
}

// Run draws samples through the package-level Run until one of the
// configured bounds triggers (see RunOption); with no options it runs
// until the service budget is exhausted or ctx is canceled.
func (b *NNOBaseline) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return Run(ctx, b, aggs, opts...)
}
