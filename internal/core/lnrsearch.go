package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/lbs"
)

// lnrProber wraps the rank-only query interface with result caching:
// the hidden database is static, so re-probing an identical location
// is free for any reasonable client. Only *exact* repeat locations hit
// the cache; every distinct location costs a query.
//
// When the oracle has a batch path, the cell search sends the probes
// it is certain to make as one batch per round (prefetch, lockstep)
// and then reads them back as cache hits. A lockstep lane parks on
// the points it needs next, one probe or a whole ring prefetch, and
// a round batches what every parked lane wants. The set of distinct
// points probed, and so the query count, is the same as a serial
// run's; only the number of oracle calls drops.
type lnrProber struct {
	svc    Oracle
	batch  lbs.Querier // nil when the oracle has no batch path
	filter lbs.Filter
	cache  map[geom.Point][]lbs.LNRRecord
	// trips counts oracle calls: single probes plus batch calls.
	trips int64
	// lane is the lockstep lane running now; nil outside lockstep.
	lane *lane
}

func newLNRProber(svc Oracle, filter lbs.Filter) *lnrProber {
	bo, _ := svc.(lbs.Querier)
	return &lnrProber{
		svc:    svc,
		batch:  bo,
		filter: filter,
		cache:  make(map[geom.Point][]lbs.LNRRecord),
	}
}

func (p *lnrProber) probe(ctx context.Context, pt geom.Point) ([]lbs.LNRRecord, error) {
	if recs, ok := p.cache[pt]; ok {
		return recs, nil
	}
	if l := p.lane; l != nil {
		l.park(pt)
		if recs, ok := p.cache[pt]; ok {
			return recs, nil
		}
		// The round's batch left pt unanswered: probe it directly, so
		// this lane meets its own error.
	}
	p.trips++
	recs, err := p.svc.QueryLNR(ctx, pt, p.filter)
	if err != nil {
		return nil, err
	}
	p.cache[pt] = recs
	return recs, nil
}

// prefetch sends the distinct uncached points of pts as one batch call
// and caches the answers. Fewer than two such points are left to probe
// directly. A failed batch caches only its answered prefix and drops
// the error: the probe that needs an unanswered point queries it
// itself and gets the error there. Inside a lockstep lane, prefetch
// parks the lane on those points instead, so they join the round's
// batch.
func (p *lnrProber) prefetch(ctx context.Context, pts []geom.Point) {
	if p.batch == nil {
		return
	}
	var miss []geom.Point
	for _, pt := range pts {
		if _, ok := p.cache[pt]; !ok && !slices.Contains(miss, pt) {
			miss = append(miss, pt)
		}
	}
	if l := p.lane; l != nil {
		if len(miss) > 0 {
			l.park(miss...)
		}
		return
	}
	if len(miss) < 2 {
		return
	}
	p.trips++
	answers, err := p.batch.QueryLNRBatch(ctx, miss, p.filter)
	for i, recs := range answers {
		if i >= len(miss) || (err != nil && recs == nil) {
			break
		}
		p.cache[miss[i]] = recs
	}
}

// lane is one coroutine of lockstep. It parks on a set of points: the
// single probe it needs next, or every point of a prefetch.
type lane struct {
	want  []geom.Point
	wake  chan struct{}
	yield chan bool // true: parked on want; false: finished
}

// park hands control back to lockstep until the round's batch, which
// carries pts, is in.
func (l *lane) park(pts ...geom.Point) {
	l.want = pts
	l.yield <- true
	<-l.wake
}

// lockstep runs lanes run(0), …, run(n−1) — independent probe
// sequences — as coroutines, exactly one running at a time, so they
// share the cell state without locks. Each lane runs until it needs
// points that are not cached; once every lane is parked or finished,
// the points they park on go out as one batch (prefetch) and the
// parked lanes resume to read them as cache hits. A lane's probe
// sequence depends only on its own answers, so the distinct points
// probed are those of running the lanes one after another. Every lane
// has finished when lockstep returns.
//
// lockstep runs nothing when there is nothing to batch: the oracle has
// no batch path, there are fewer than two lanes, or it is called from
// inside a lane. The caller then runs its serial code for every lane
// result lockstep did not produce.
func (p *lnrProber) lockstep(ctx context.Context, n int, run func(i int)) {
	if p.batch == nil || n < 2 || p.lane != nil {
		return
	}
	yield := make(chan bool)
	var parked []*lane
	// step lets l run until it parks or finishes.
	step := func(l *lane, resume func()) {
		p.lane = l
		resume()
		if <-yield {
			parked = append(parked, l)
		}
		p.lane = nil
	}
	for i := 0; i < n; i++ {
		l := &lane{wake: make(chan struct{}), yield: yield}
		step(l, func() {
			go func() {
				run(i)
				yield <- false
			}()
		})
	}
	for len(parked) > 0 {
		round := parked
		parked = nil
		var wants []geom.Point
		for _, l := range round {
			wants = append(wants, l.want...)
		}
		p.prefetch(ctx, wants)
		for _, l := range round {
			step(l, func() { l.wake <- struct{}{} })
		}
	}
}

// rankIn returns the 0-based rank of id, or −1 when absent.
func rankIn(recs []lbs.LNRRecord, id int64) int {
	for i, r := range recs {
		if r.ID == id {
			return i
		}
	}
	return -1
}

// relOrder compares the distances of tuples a and b at a probe result:
// +1 when a is provably closer, −1 when b is provably closer, 0 when
// undecidable (both absent from the top-k). Presence alone decides the
// order when only one appears: a tuple inside the top-k is closer than
// every tuple outside it.
func relOrder(recs []lbs.LNRRecord, a, b int64) int {
	ra, rb := rankIn(recs, a), rankIn(recs, b)
	switch {
	case ra >= 0 && rb >= 0:
		if ra < rb {
			return +1
		}
		return -1
	case ra >= 0:
		return +1
	case rb >= 0:
		return -1
	default:
		return 0
	}
}

// predicateSearch performs the δ-bracketing binary search shared by
// all LNR edge discovery (Appendix A): given pred(a) = true and
// pred(b) = false (treating "unknown" as false), it returns points
// c3, c4 with |c3−c4| ≤ delta, pred(c3) = true, pred(c4) = false.
// Each evaluation is one probe.
func predicateSearch(a, b geom.Point, delta float64, pred func(geom.Point) (bool, error)) (c3, c4 geom.Point, err error) {
	lo, hi := a, b
	for lo.Dist(hi) > delta {
		mid := lo.Mid(hi)
		ok, err := pred(mid)
		if err != nil {
			return geom.Point{}, geom.Point{}, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi, nil
}

// edgeSearchParams holds the Appendix-A precision parameters derived
// from the target maximum edge error ε. The bracketing is two-phase:
// the primary search stops at the coarse width δ_c = ε/2 (positional
// error ≤ ε/4 along the ray), after which the bracket distance r from
// the anchor is known and the search continues to the fine width
// δ_f(r) = ε²/(32·r), which keeps the *angular* error of the two-point
// line construction below ε/(2L) for edges of length L ≲ 4r. Compared
// to the paper's fixed δ over the whole bounding box this saves
// log₂(box/cell) probes per search on small cells without weakening
// the local precision guarantee.
type edgeSearchParams struct {
	epsilon     float64
	deltaCoarse float64
	deltaPrime  float64
	deltaFloor  float64 // numerical floor for δ_f
}

func newEdgeSearchParams(eps float64, bounds geom.Rect) edgeSearchParams {
	return edgeSearchParams{
		epsilon:     eps,
		deltaCoarse: eps / 2,
		deltaPrime:  eps / 2,
		deltaFloor:  math.Max(eps*eps/(32*bounds.Diagonal()), bounds.Diagonal()*1e-12),
	}
}

// fineDelta returns the bracket width required at anchor distance r.
func (p edgeSearchParams) fineDelta(r float64) float64 {
	if r < p.epsilon {
		r = p.epsilon
	}
	d := p.epsilon * p.epsilon / (32 * r)
	if d < p.deltaFloor {
		d = p.deltaFloor
	}
	if d > p.deltaCoarse {
		d = p.deltaCoarse
	}
	return d
}

// delta is kept for call sites needing a generic small width (vertex
// coincidence checks, third-bisector searches).
func (p edgeSearchParams) delta() float64 { return p.fineDelta(p.epsilon * 8) }
