package core

import (
	"cmp"
	"context"
	"maps"
	"math"
	"slices"
	"sync"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// LROptions configures Algorithm LR-LBS-AGG. The zero value enables no
// error-reduction device (the §3.1 baseline, "LR-LBS-AGG-0"); the
// DefaultLROptions constructor enables all four of §3.2 but weights
// every tuple by its top-1 cell (FixedH = 1). The paper's full
// "LR-LBS-AGG" is DefaultLROptions with FixedH = 0.
type LROptions struct {
	// FixedH forces every selected tuple to be weighted by its
	// top-FixedH Voronoi cell (capped at the service's k). 0 enables
	// the adaptive per-tuple choice of §3.2.3 (which requires
	// UseHistory to have any effect; without history the choice
	// degenerates to h=1).
	// DefaultLROptions sets 1: at a fixed query budget the adaptive
	// choice loses to h = 1, because a top-h cell with h > 1 costs
	// many more queries than its smaller variance saves
	// (TestDefaultLRAtFixedBudget).
	FixedH int
	// Lambda0Frac is the λ0 threshold of the adaptive choice expressed
	// as a fraction of the bounding-region area: the largest h whose
	// history-derived upper bound λ_h(t) stays below λ0 is used.
	// Default 0.001 (h grows only for tuples whose top-h cells stay
	// tiny, where the extra cells are nearly free under history).
	// Because λ_h is non-decreasing in h, the rule reads λ_1, λ_2, …
	// only until the first one above λ0, so it builds the history
	// complex only up to the level it reads: the top-1 cell first, then
	// the top-2, top-4, top-8, … complexes (capped at k). A top-m
	// complex is bit for bit the faces below level m of the top-k
	// complex (see the cell package's Levels section), so the choice
	// and the seeded refinement are the ones the full top-k build gives.
	Lambda0Frac float64
	// FastInit enables the fake-tuple initialization of §3.2.1.
	FastInit bool
	// UseHistory enables reuse of previously observed tuples (§3.2.2).
	UseHistory bool
	// MonteCarlo enables the unbiased early-finish of §3.2.4: once a
	// vertex round shrinks the tentative cell by less than mcAreaRatio
	// (relatively), the exact computation stops and the remaining
	// uncertainty is resolved by geometric trials.
	MonteCarlo bool
	// UseLowerBound enables the lower-bound region of §3.2.4, skipping
	// confirmation queries at points provably inside the cell.
	UseLowerBound bool
	// Region restricts the estimation to a sub-region of the service's
	// coverage (e.g. "Austin, TX"): query locations are sampled from it
	// and Voronoi cells are clipped against it. The zero value means
	// the whole service bounds. Estimates then cover every tuple whose
	// cell intersects the region; combine with a location condition in
	// the aggregate to count region residents exactly.
	Region geom.Rect
	// Sampler is the query-location distribution (uniform over the
	// estimation region when nil). Weighted samplers implement the
	// external-knowledge optimization of §5.2.
	Sampler sampling.Sampler
	// Filter is an optional server-side selection pass-through (§5.1):
	// it restricts the hidden database the estimate refers to.
	Filter lbs.Filter
	// Seed drives the aggregator's randomness.
	Seed int64
}

// Tuning constants of the error-reduction devices.
const (
	// fastInitFactor scales the fake-tuple box of §3.2.1: half-width =
	// factor × (distance from the tuple to the farthest tuple of the
	// answer that discovered it), conservatively large as the paper
	// advises.
	fastInitFactor = 8
	// mcAreaRatio, mcMinRounds and mcMaxTrials tune the Monte-Carlo
	// early finish: it starts once a round from mcMinRounds on shrinks
	// the cell by less than mcAreaRatio, and its trials stop at the
	// mcMaxTrials safety cap.
	mcAreaRatio = 0.05
	mcMinRounds = 2
	mcMaxTrials = 100000
	// lowerBoundSamples is the boundary sampling resolution of the
	// lower bound's disk-union coverage test.
	lowerBoundSamples = 48
	// maxRounds caps vertex-test rounds per cell as a numerical-
	// robustness guard.
	maxRounds = 200
)

// DefaultLROptions returns the LR-LBS-AGG configuration with all four
// error-reduction devices enabled and h fixed at 1 (see FixedH); set
// FixedH = 0 for the paper's adaptive choice of h.
func DefaultLROptions(seed int64) LROptions {
	return LROptions{
		FixedH:        1,
		FastInit:      true,
		UseHistory:    true,
		MonteCarlo:    true,
		UseLowerBound: true,
		Seed:          seed,
	}
}

// LRStats counts the internal events of a run, for the efficiency
// analyses of §3.2.
type LRStats struct {
	Samples          int
	Cells            int   // Voronoi cells computed
	VertexQueries    int64 // queries spent on vertex tests
	SkippedByLower   int64 // vertex/trial queries avoided by the lower bound
	MCFinishes       int   // cells finished by Monte-Carlo trials
	MCTrials         int64 // total Monte-Carlo trials
	FastInitQueries  int64 // queries spent during fake-tuple initialization
	EmptyAnswers     int   // sampled queries with empty answers (dmax)
	DegenerateCells  int   // cells whose region mass was ~0 (skipped)
	AdaptiveHChosen  map[int]int
	MaxRoundsTripped int
}

// LRAggregator implements Algorithm LR-LBS-AGG (Algorithm 5).
//
// A sample's working set (the history ordering and level complexes of
// chooseH, the seed and region complexes of computeWeight and fastInit,
// and the site, vertex, answer and confirmation buffers) is an
// lrScratch that Step takes from a package pool and gives back when it
// returns, so it lives on across samples, aggregators and jobs: in
// steady state a sample allocates little beyond the oracle's answers
// and the history's growth.
type LRAggregator struct {
	drawSource
	opts LROptions
	hist *History
	// boundPoly is bound.Polygon(), cached because building it
	// allocates; complexes built over it copy it.
	boundPoly geom.Polygon
	stats     LRStats
	vtol      float64 // vertex quantization tolerance
	// s is the scratch set held from its first use in a Step (or a
	// direct chooseH call) until Step returns; nil in between.
	s *lrScratch
}

// lrScratch is the LR sample loop's reusable working set. Its
// complexes are built over bound; a scratch set taken by an aggregator
// with another bound polygon drops them (see fit).
type lrScratch struct {
	bound geom.Polygon
	// order is the history sites in distance order around chooseH's
	// current tuple, shared by that tuple's level builds (and reset by
	// fastInit for its own builds); levels[m] is the reusable top-m
	// history complex (nil until first used; levels[0] stays nil).
	order  cell.Order
	levels []*cell.Complex
	// spares are complexes free to become a seed (built in place, or
	// copied in with WithKInto) or a region (ResetK); seeds[i] is the
	// seed chooseH handed over for rank i, and hs[i] its h.
	spares []*cell.Complex
	seeds  []*cell.Complex
	hs     []int
	// answer holds the sampled query's answer and probe the latest
	// vertex or trial answer, when the oracle's order had to be copied
	// to be re-sorted (see query).
	answer, probe []lbs.LRRecord
	sites         []cell.Site
	verts         []geom.Point
	disks         []geom.Circle
	confirmed     map[vkey]bool
}

var lrScratchPool = sync.Pool{New: func() any {
	return &lrScratch{confirmed: make(map[vkey]bool)}
}}

// fit readies s for an aggregator over bound with k-tuple answers.
func (s *lrScratch) fit(bound geom.Polygon, k int) {
	if !slices.Equal(s.bound, bound) {
		s.bound = append(s.bound[:0], bound...)
		s.levels, s.spares = nil, nil
	}
	if n := k + 1 - len(s.levels); n > 0 {
		s.levels = append(s.levels, make([]*cell.Complex, n)...)
	}
}

// region returns a spare complex reset to a cut-free top-h region, as
// cell.New(s.bound, h) builds it.
func (s *lrScratch) region(h int) *cell.Complex {
	c := s.spare()
	c.ResetK(h)
	return c
}

// spare pops a spare complex, building one when none is left.
func (s *lrScratch) spare() *cell.Complex {
	n := len(s.spares)
	if n == 0 {
		return cell.New(s.bound, 1)
	}
	c := s.spares[n-1]
	s.spares = s.spares[:n-1]
	return c
}

// free returns a complex to the spares; nil is ignored.
func (s *lrScratch) free(c *cell.Complex) {
	if c != nil {
		s.spares = append(s.spares, c)
	}
}

// sitesOf fills the site buffer with an answer's tuples other than the
// excluded one and returns it.
func (s *lrScratch) sitesOf(recs []lbs.LRRecord, excludeID int64) []cell.Site {
	s.sites = s.sites[:0]
	for _, r := range recs {
		if r.ID != excludeID {
			s.sites = append(s.sites, cell.Site{Key: r.ID, Loc: r.Loc})
		}
	}
	return s.sites
}

// NewLRAggregator builds an aggregator over an LR service view.
func NewLRAggregator(svc Oracle, opts LROptions) *LRAggregator {
	if opts.Lambda0Frac <= 0 {
		opts.Lambda0Frac = 0.001
	}
	d := newDrawSource(svc, opts.Region, opts.Sampler, opts.Seed)
	return &LRAggregator{
		drawSource: d,
		opts:       opts,
		hist:       NewHistory(),
		boundPoly:  d.bound.Polygon(),
		stats:      LRStats{AdaptiveHChosen: make(map[int]int)},
		vtol:       d.bound.Diagonal() * 1e-9,
	}
}

// scratch returns the scratch set the aggregator holds, taking one from
// the pool when it holds none.
func (a *LRAggregator) scratch() *lrScratch {
	if a.s == nil {
		a.s = lrScratchPool.Get().(*lrScratch)
		a.s.fit(a.boundPoly, a.svc.K())
	}
	return a.s
}

// release gives the held scratch set back to the pool.
func (a *LRAggregator) release() {
	lrScratchPool.Put(a.s)
	a.s = nil
}

// Stats returns a snapshot of the run statistics accumulated so far;
// its AdaptiveHChosen map is a copy the caller owns.
func (a *LRAggregator) Stats() LRStats {
	st := a.stats
	st.AdaptiveHChosen = maps.Clone(a.stats.AdaptiveHChosen)
	return st
}

// History exposes the observed-tuple history (read-only use).
func (a *LRAggregator) History() *History { return a.hist }

// query issues one LR query through the configured filter. Answers
// are re-sorted by distance from the query point: for distance-ranked
// services they already are, while for "prominence"-style rankings
// (and geodesic metrics) this implements the §5.3 post-processing that
// recovers planar nearest-neighbor semantics from the richer answer
// (locations are returned, so the client can always re-rank). The
// oracle's answer is never reordered in place (a caching oracle hands
// out its stored slices): an unsorted one is copied into *buf, which
// stays valid until the next query into the same buffer.
func (a *LRAggregator) query(ctx context.Context, p geom.Point, buf *[]lbs.LRRecord) ([]lbs.LRRecord, error) {
	recs, err := a.svc.QueryLR(ctx, p, a.opts.Filter)
	if err != nil {
		return nil, err
	}
	byDist := func(x, y lbs.LRRecord) int {
		return cmp.Compare(p.Dist2(x.Loc), p.Dist2(y.Loc))
	}
	if slices.IsSortedFunc(recs, byDist) {
		return recs, nil
	}
	*buf = append((*buf)[:0], recs...)
	slices.SortStableFunc(*buf, byDist)
	return *buf, nil
}

// observe folds an answer into the history.
func (a *LRAggregator) observe(recs []lbs.LRRecord, local *History) {
	for _, r := range recs {
		if a.opts.UseHistory {
			a.hist.Observe(r.ID, r.Loc)
		}
		if local != nil {
			local.Observe(r.ID, r.Loc)
		}
	}
}

type vkey struct{ x, y int64 }

func (a *LRAggregator) keyOf(p geom.Point) vkey {
	return vkey{int64(math.Round(p.X / a.vtol)), int64(math.Round(p.Y / a.vtol))}
}

// rankOfID returns the 0-based rank of id in an answer, or −1.
func rankOfID(recs []lbs.LRRecord, id int64) int {
	for i, r := range recs {
		if r.ID == id {
			return i
		}
	}
	return -1
}

// chooseH implements the variance-reduction rule of §3.2.3 for the
// returned tuple at 0-based rank: the largest h ∈ [2, k] whose
// history-derived upper bound λ_h(t) is below λ0, else 1; or FixedH
// (capped at k) when that is set. When the tuple can contribute
// (rank < h) it also returns the history-seeded top-h complex the
// caller continues refinement from: a spare of the scratch set, which
// the caller gives back to the spares when done; otherwise none.
//
// Every build draws the history sites from one cell.Order over the
// history's grid index: sites in increasing distance from the tuple,
// equidistant ones in observation order, found by searching grid cells
// in rings outward from it, so a build costs what the tuple's
// neighbourhood holds rather than a pass over the whole history.
//
// Under FixedH the seed is the top-h complex, built straight into the
// spare. The adaptive rule builds only the levels it reads, each into
// a scratch-set complex reused across calls. It first builds the top-1
// cell, an order of magnitude cheaper than the top-k complex: when its
// area λ_1(t) exceeds λ0 the answer is h = 1, since λ_h is
// non-decreasing in h. Otherwise it grows the level m of the history
// complex by doubling (m = 2, 4, 8, …, capped at k) until it meets a
// λ_cand > λ0 or reaches k. A top-m complex gives λ_cand for every
// cand ≤ m as the in-order sum of its face areas at count ≤ cand−1
// (FaceAreaAtMost); λ_k is the top-k complex's Area(), as AreaAtMost(k)
// reads it. The seed is then copied out of the level with WithKInto.
//
// The levels change no result. Every build consumes the sites in one
// distance order, a top-m build consumes a prefix of the top-k build's
// sites, and the cuts beyond that prefix lie past the top-m pruning
// radius, so they never touch a face below level m: the top-m faces
// are bit for bit the top-k faces at count < m (the cell package's
// Levels section; TestTopMMatchesTopKLevels pins it). Hence every λ
// the rule reads, and WithK(h) of a level m > h (or m = h = k), equal
// what the full top-k build gives; so does the fixed-h seed, whose
// area is re-summed over its faces (SumArea) for h < k, as WithK(h)
// sums it (TestFixedHSeedMatchesLevelCopy). A seed registers fewer
// cuts than the top-k build would, but the missing ones are sites
// beyond twice the seed's reach, which the refinement's InsertSites
// never consumes.
func (a *LRAggregator) chooseH(tLoc geom.Point, rank int) (int, *cell.Complex) {
	k := a.svc.K()
	h := min(a.opts.FixedH, k)
	if !a.opts.UseHistory || a.hist.Len() <= 1 {
		return max(h, 1), nil
	}
	s := a.scratch()
	if h > 0 || k < 2 {
		h = max(h, 1)
		if rank >= h {
			return h, nil
		}
		a.hist.Order(&s.order, tLoc)
		seed := s.region(h)
		s.order.Insert(seed)
		if h < k {
			seed.SumArea()
		}
		return h, seed
	}
	lambda0 := a.opts.Lambda0Frac * a.bound.Area()
	h = 1
	a.hist.Order(&s.order, tLoc)
	seed := s.level(1)
	if seed.Area() <= lambda0 {
		// Grow while every λ_cand the level gave was ≤ λ0 (h == m).
		for m := 1; h == m && m < k; {
			m = min(2*m, k)
			seed = s.level(m)
			for h < m {
				lambda := seed.FaceAreaAtMost(h + 1)
				if h+1 == k {
					lambda = seed.Area()
				}
				if lambda > lambda0 {
					break // λ_h is non-decreasing in h
				}
				h++
			}
		}
	}
	a.stats.AdaptiveHChosen[h]++
	if rank >= h {
		return h, nil
	}
	return h, seed.WithKInto(s.spare(), h)
}

// level rebuilds chooseH's reusable top-m complex from the history
// sites in s.order.
func (s *lrScratch) level(m int) *cell.Complex {
	c := s.levels[m]
	if c == nil {
		c = cell.New(s.bound, m)
		s.levels[m] = c
	} else {
		c.Reset()
	}
	s.order.Insert(c)
	return c
}

// cellContext carries the confirmation state of one cell computation.
type cellContext struct {
	tID  int64
	tLoc geom.Point
	h    int
	hint []lbs.LRRecord // the answer that discovered the target
	// local is the per-cell history, kept only without UseHistory.
	local  *History
	disks  []geom.Circle // disks C(v, |v−t|) at confirmed points v
	region *cell.Complex
}

// known returns the tuples observed for a cell: the global history if
// enabled, else the cell-local one.
func (a *LRAggregator) known(cc *cellContext) *History {
	if a.opts.UseHistory {
		return a.hist
	}
	return cc.local
}

// canSkip reports whether p provably lies inside the top-h cell
// without a query (§3.2.4 lower bound): the circle C(p, |p−t|) must be
// covered by the union of confirmed disks — guaranteeing every tuple
// closer to p than t has been observed — and the observed
// closer-than-t count must stay below h.
func (a *LRAggregator) canSkip(cc *cellContext, p geom.Point) bool {
	if len(cc.disks) == 0 {
		return false
	}
	r := p.Dist(cc.tLoc)
	if r < geom.Eps {
		return true // p is the tuple location itself
	}
	margin := r * 1e-9
	if !geom.DiskUnionCoversCircle(cc.disks, geom.Circle{Center: p, R: r},
		lowerBoundSamples, margin) {
		return false
	}
	return a.known(cc).CountCloser(p, cc.tLoc, cc.tID) <= cc.h-1
}

// computeWeight computes 1/p̂(t) for tuple t using its top-h Voronoi
// cell, by the Theorem-1 loop plus the enabled devices. hint is the
// answer that discovered t (used by fast initialization); seed is the
// history-derived top-h complex from chooseH, which the call takes
// over (may be nil) and gives back to the scratch set's spares with
// every other region it builds.
func (a *LRAggregator) computeWeight(ctx context.Context, tID int64, tLoc geom.Point, h int, hint []lbs.LRRecord, seed *cell.Complex) (float64, error) {
	a.stats.Cells++
	s := a.scratch()
	cc := cellContext{
		tID:   tID,
		tLoc:  tLoc,
		h:     h,
		hint:  hint,
		disks: s.disks[:0],
	}
	defer func() {
		s.free(cc.region)
		s.disks = cc.disks
	}()
	if !a.opts.UseHistory {
		// Seed the local history from the discovering answer.
		cc.local = NewHistory()
		for _, r := range hint {
			cc.local.Observe(r.ID, r.Loc)
		}
	}
	if seed != nil {
		cc.region = seed
	} else {
		cc.region = s.region(h)
		cell.InsertSites(cc.region, tLoc, s.sitesOf(hint, tID))
	}

	// Faster initialization (§3.2.1) when the region is still huge.
	if a.opts.FastInit && cc.region.Area() > 0.25*a.bound.Area() {
		if err := a.fastInit(ctx, &cc); err != nil {
			return 0, err
		}
	}

	confirmed := s.confirmed
	clear(confirmed)
	prevArea := cc.region.Area()
	for round := 1; ; round++ {
		if round > maxRounds {
			a.stats.MaxRoundsTripped++
			break
		}
		changed := false
		s.verts = cc.region.AppendVertices(s.verts[:0])
		for _, v := range s.verts {
			key := a.keyOf(v)
			if confirmed[key] {
				continue
			}
			if a.opts.UseLowerBound && a.canSkip(&cc, v) {
				confirmed[key] = true
				a.stats.SkippedByLower++
				continue
			}
			recs, err := a.query(ctx, v, &s.probe)
			if err != nil {
				return 0, err
			}
			a.stats.VertexQueries++
			a.observe(recs, cc.local)
			if r := rankOfID(recs, tID); r >= 0 {
				cc.disks = append(cc.disks, geom.Circle{Center: v, R: v.Dist(tLoc)})
				if r < h {
					confirmed[key] = true
				}
			}
			if cell.InsertSites(cc.region, tLoc, s.sitesOf(recs, tID)) > 0 {
				changed = true
			}
		}
		if !changed {
			break // Theorem 1: the region is the exact top-h cell
		}
		area := cc.region.Area()
		if a.opts.MonteCarlo && round >= mcMinRounds &&
			prevArea-area < mcAreaRatio*math.Max(area, geom.Eps) {
			return a.mcFinish(ctx, &cc)
		}
		prevArea = area
	}
	p := a.massOfRegion(cc.region)
	if p <= 0 {
		a.stats.DegenerateCells++
		return 0, nil
	}
	return 1 / p, nil
}

// fastInit implements Algorithm 2: four fake tuples bound the target,
// the tentative (fake) cell's vertices are queried once, and the
// region is rebuilt from the real tuples discovered. If the fake box
// was too small (no real tuple discovered), the region reverts to the
// full bounding box — at a waste of at most the initialization
// queries, exactly as the paper argues.
func (a *LRAggregator) fastInit(ctx context.Context, cc *cellContext) error {
	s := a.scratch()
	r := a.fastInitRadius(cc)
	fake := [4]geom.Point{
		cc.tLoc.Add(geom.Pt(2*r, 0)),
		cc.tLoc.Add(geom.Pt(-2*r, 0)),
		cc.tLoc.Add(geom.Pt(0, 2*r)),
		cc.tLoc.Add(geom.Pt(0, -2*r)),
	}
	tmp := s.region(cc.h)
	defer s.free(tmp)
	// Real cuts already known (history / hint) keep the fake region
	// honest; then the fake cuts shrink it to a box around t. Both
	// builds here draw the known sites from the history's grid index.
	// The target's own site, if recorded, is dropped as coincident.
	a.known(cc).Order(&s.order, cc.tLoc)
	s.order.Insert(tmp)
	for i, f := range fake {
		tmp.AddCut(cell.Cut{Line: geom.Bisector(cc.tLoc, f), Key: int64(-1 - i)})
	}
	s.verts = tmp.AppendVertices(s.verts[:0])
	for _, v := range s.verts {
		recs, err := a.query(ctx, v, &s.probe)
		if err != nil {
			return err
		}
		a.stats.FastInitQueries++
		a.observe(recs, cc.local)
		if rank := rankOfID(recs, cc.tID); rank >= 0 {
			cc.disks = append(cc.disks, geom.Circle{Center: v, R: v.Dist(cc.tLoc)})
		}
	}
	// Rebuild from real tuples only, into the old region's storage.
	cc.region.ResetK(cc.h)
	a.known(cc).Order(&s.order, cc.tLoc)
	s.order.Insert(cc.region)
	return nil
}

// fastInitRadius chooses the fake-box scale from the discovering
// answer: fastInitFactor × the spread of the answer around the target,
// falling back to a twentieth of the bounding diagonal.
func (a *LRAggregator) fastInitRadius(cc *cellContext) float64 {
	var m float64
	for _, r := range cc.hint {
		if d := r.Loc.Dist(cc.tLoc); d > m {
			m = d
		}
	}
	if m < geom.Eps {
		return a.bound.Diagonal() / 20
	}
	return fastInitFactor * m
}

// mcFinish implements the Monte-Carlo device of §3.2.4: with the
// region V′ ⊇ V_h(t) frozen, sample points from the query distribution
// restricted to V′ until one falls inside the true cell; the trial
// count r is an unbiased estimate of mass(V′)/mass(V_h), so r/mass(V′)
// is an unbiased estimate of 1/p(t). Points proven inside by the lower
// bound count as successes without a query.
func (a *LRAggregator) mcFinish(ctx context.Context, cc *cellContext) (float64, error) {
	a.stats.MCFinishes++
	pPrime := a.massOfRegion(cc.region)
	if pPrime <= 0 {
		a.stats.DegenerateCells++
		return 0, nil
	}
	for r := 1; r <= mcMaxTrials; r++ {
		a.stats.MCTrials++
		x, ok := a.sampleFromRegion(cc.region)
		if !ok {
			a.stats.DegenerateCells++
			return 0, nil
		}
		if a.opts.UseLowerBound && a.canSkip(cc, x) {
			a.stats.SkippedByLower++
			return float64(r) / pPrime, nil
		}
		recs, err := a.query(ctx, x, &a.scratch().probe)
		if err != nil {
			return 0, err
		}
		a.observe(recs, cc.local)
		if rank := rankOfID(recs, cc.tID); rank >= 0 {
			cc.disks = append(cc.disks, geom.Circle{Center: x, R: x.Dist(cc.tLoc)})
			if rank < cc.h {
				return float64(r) / pPrime, nil
			}
		}
	}
	// Trial cap reached (pathological); accept the capped count.
	return float64(mcMaxTrials) / pPrime, nil
}

// sampleFromRegion draws a point distributed as the sampler's density
// restricted to the region, by rejection from the area-uniform
// distribution over the region's faces.
func (a *LRAggregator) sampleFromRegion(region *cell.Complex) (geom.Point, bool) {
	var bb geom.Rect
	first := true
	for _, f := range region.Faces() {
		r := f.Poly.BoundingRect()
		if first {
			bb = r
			first = false
		} else {
			bb = geom.BoundingRect([]geom.Point{bb.Min, bb.Max, r.Min, r.Max})
		}
	}
	if first {
		return geom.Point{}, false
	}
	fmax := a.smp.MaxDensityInRect(bb)
	if fmax <= 0 {
		return geom.Point{}, false
	}
	for tries := 0; tries < 100000; tries++ {
		p, ok := region.RandomPoint(a.rng)
		if !ok {
			return geom.Point{}, false
		}
		if a.rng.Float64()*fmax <= a.smp.Density(p) {
			return p, true
		}
	}
	// The sampler assigns (essentially) no mass to the region; treat
	// as degenerate.
	return geom.Point{}, false
}

// Step draws one random query location and weights each returned
// tuple that contributes by an unbiased estimate of its 1/p: 1/p̂, or
// r/mass(V′) after a Monte-Carlo finish (Algorithm 5 body). Locations
// come with every answer, so needLoc changes nothing.
func (a *LRAggregator) Step(ctx context.Context, _ bool) (Sample, error) {
	s := a.scratch()
	defer a.release()
	q := a.smp.Sample(a.rng)
	recs, err := a.query(ctx, q, &s.answer)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		// Empty answer under the coverage cap: the estimate for this
		// sample is 0, which keeps the estimator unbiased (§5.3).
		a.stats.EmptyAnswers++
		a.stats.Samples++
		return nil, nil
	}
	kUse := a.svc.K()
	if kUse > len(recs) {
		kUse = len(recs)
	}
	// The adaptive h(t) must be a function of *past* observations only:
	// folding the current answer into the history before choosing h
	// would correlate h(t) with the sampled point and break the
	// unbiasedness argument of estimator (2). So choose h for all
	// returned tuples first, then observe the answer.
	s.hs, s.seeds = s.hs[:0], s.seeds[:0]
	for i := 0; i < kUse; i++ {
		h, seed := a.chooseH(recs[i].Loc, i)
		s.hs, s.seeds = append(s.hs, h), append(s.seeds, seed)
	}
	a.observe(recs, nil)
	var out Sample
	for i := 0; i < kUse; i++ {
		t := recs[i]
		h, seedRegion := s.hs[i], s.seeds[i]
		// A tuple at rank i+1 contributes only when the sampled point
		// lies inside the top-h cell used for weighting, i.e. i+1 ≤ h
		// (chooseH returns a seed only then).
		if i+1 > h {
			continue
		}
		w, err := a.computeWeight(ctx, t.ID, t.Loc, h, recs, seedRegion)
		if err != nil {
			return nil, err
		}
		if w != 0 {
			out = append(out, WeightedRecord{Record: recordOfLR(t), W: w})
		}
	}
	a.stats.Samples++
	return out, nil
}

// Fork returns an independent LR aggregator of the same configuration
// over the same service, at a fork seed (see drawSource.forkSeed), for
// Run's parallel mode. Forks start with an empty observation history;
// history is a variance-reduction device only, so the forked samples
// remain unbiased.
func (a *LRAggregator) Fork(seed int64) Estimator {
	opts := a.opts
	opts.Seed = a.forkSeed(seed)
	return NewLRAggregator(a.svc, opts)
}

// Run draws samples through the package-level Run until one of the
// configured bounds triggers (see RunOption); with no options it runs
// until the service budget is exhausted or ctx is canceled.
func (a *LRAggregator) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return Run(ctx, a, aggs, opts...)
}
