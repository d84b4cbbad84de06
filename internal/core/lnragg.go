package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/lbs"
	"repro/internal/sampling"
)

// LNROptions configures Algorithm LNR-LBS-AGG (§4): aggregate
// estimation over interfaces that return only a ranked list of tuple
// IDs.
type LNROptions struct {
	// H is the top-h cell used for weighting (≤ the service's k).
	// Default 1. Values > 1 exercise the concavity handling of §4.2.
	H int
	// EdgeEps is the target maximum edge error ε of the binary-search
	// edge inference; the estimation bias shrinks with ε (Theorem 2)
	// while the per-edge query cost grows as log(1/ε). Default:
	// bounds diagonal × 1e-3.
	EdgeEps float64
	// Region restricts the estimation to a sub-region of the service's
	// coverage; zero means the whole service bounds (see
	// LROptions.Region).
	Region geom.Rect
	// Sampler is the query-location distribution (uniform when nil).
	Sampler sampling.Sampler
	// Filter is an optional server-side selection pass-through.
	Filter lbs.Filter
	// Seed drives randomness.
	Seed int64
}

// maxCutsPerCell and maxRoundsPerCell are the cell search's robustness
// guards: a tripped guard finishes the cell with its current region
// (counted in LNRStats.GuardTrips).
const (
	maxCutsPerCell   = 64
	maxRoundsPerCell = 50
)

// LNRStats counts internal events of an LNR run.
type LNRStats struct {
	Samples        int
	Cells          int
	EdgeSearches   int64
	VertexProbes   int64
	BisectorRepair int64 // Lemma-1 completeness searches (k>1)
	Localizations  int
	GuardTrips     int
	EmptyAnswers   int
	// RoundTrips counts oracle calls: single probes plus batch calls
	// (see lnrProber). Queries ÷ RoundTrips is the batching payoff.
	RoundTrips int64
	// UnresolvedCells counts cells returned as converged while a
	// vertex outside the cell stayed unconfirmed because no second
	// point of its bisector could be found (registerFlip failed).
	UnresolvedCells int
}

// LNRAggregator implements Algorithm LNR-LBS-AGG (Algorithm 6 plus the
// §4.2 concavity extension and the §4.3 position inference).
type LNRAggregator struct {
	drawSource
	opts   LNROptions
	prober *lnrProber
	params edgeSearchParams
	stats  LNRStats
	vtol   float64
}

// NewLNRAggregator builds an aggregator over a rank-only service view.
func NewLNRAggregator(svc Oracle, opts LNROptions) *LNRAggregator {
	if opts.H <= 0 {
		opts.H = 1
	}
	if opts.H > svc.K() {
		opts.H = svc.K()
	}
	if opts.EdgeEps <= 0 {
		opts.EdgeEps = svc.Bounds().Diagonal() * 1e-3
	}
	d := newDrawSource(svc, opts.Region, opts.Sampler, opts.Seed)
	return &LNRAggregator{
		drawSource: d,
		opts:       opts,
		prober:     newLNRProber(svc, opts.Filter),
		params:     newEdgeSearchParams(opts.EdgeEps, d.bound),
		vtol:       d.bound.Diagonal() * 1e-9,
	}
}

// Stats returns run statistics accumulated so far.
func (a *LNRAggregator) Stats() LNRStats {
	s := a.stats
	s.RoundTrips = a.prober.trips
	return s
}

// lnrCell is the per-target state of one Voronoi-cell inference.
type lnrCell struct {
	tID    int64
	h      int
	c1     geom.Point // interior anchor: t ∈ top-h here
	region *cell.Complex
	coApp  map[int64]bool // tuples co-appearing with t (Lemma 1 candidates)
	// flipPts accumulates observed boundary points per opposing tuple;
	// every bracket search lands one more point on B(t, t′), and two
	// well-separated points pin the bisector line far more cheaply than
	// the per-edge angled re-search of Algorithm 7 (see registerFlip).
	flipPts map[int64][]geom.Point
	// refines counts per-key cut replacements, bounding repair loops.
	refines map[int64]int
}

// member reports whether t is within the top-h at p.
func (a *LNRAggregator) member(ctx context.Context, c *lnrCell, p geom.Point) (bool, error) {
	recs, err := a.prober.probe(ctx, p)
	if err != nil {
		return false, err
	}
	a.recordCoApp(c, recs)
	r := rankIn(recs, c.tID)
	return r >= 0 && r < c.h, nil
}

// edgeBracket is the outcome of one member bracket search from the
// anchor: (c3, c4) straddle the top-h boundary with the displacing
// tuple other just outside. ok is false when no valid displacer was
// found; err is the probe error that ended the search, if any.
type edgeBracket struct {
	c3, c4 geom.Point
	other  int64
	ok     bool
	err    error
}

// validatedMemberBracket brackets the top-h boundary of t along
// [from, to] (member(from) must be true, member(to) false) and
// verifies the bracket sits on a genuine single-edge crossing: just
// outside, t must occupy rank h (0-based) with the displacing tuple at
// rank h−1. Brackets that jumped past a corner (t's rank beyond h) are
// refined up to three times; ok is false when no valid displacer can
// be identified (e.g. the crossing is the coverage/visibility
// boundary, where weighting must treat the region edge as a wall).
func (a *LNRAggregator) validatedMemberBracket(ctx context.Context, c *lnrCell, from, to geom.Point) edgeBracket {
	memberPred := func(p geom.Point) (bool, error) { return a.member(ctx, c, p) }
	c3, c4, err := predicateSearch(from, to, a.params.deltaCoarse, memberPred)
	if err != nil {
		return edgeBracket{err: err}
	}
	for attempt := 0; ; attempt++ {
		recs, err := a.prober.probe(ctx, c4)
		if err != nil {
			return edgeBracket{err: err}
		}
		a.recordCoApp(c, recs)
		r := rankIn(recs, c.tID)
		if r == c.h && len(recs) >= c.h {
			// The crossing must be a clean adjacent swap: just inside,
			// t sits at rank h−1 with the candidate displacer directly
			// below it at rank h. Otherwise the bracket straddles more
			// than one rank event and the midpoint would not lie on
			// B(t, displacer).
			cand := recs[c.h-1].ID
			recs3, err := a.prober.probe(ctx, c3)
			if err != nil {
				return edgeBracket{err: err}
			}
			if rankIn(recs3, c.tID) == c.h-1 && rankIn(recs3, cand) == c.h {
				return edgeBracket{c3: c3, c4: c4, other: cand, ok: true}
			}
		}
		if attempt >= 4 || c3.Dist(c4) <= a.params.deltaFloor*2 {
			// Strict rejection: a bracket whose outside endpoint does
			// not show t at exactly rank h crossed something other
			// than a single top-h boundary edge (a corner, or the edge
			// of t's visibility). Using it would register a flip point
			// off the bisector and silently corrupt the cell; the
			// vertex is left unconfirmed instead.
			return edgeBracket{}
		}
		width := c3.Dist(c4) / 8
		if width < a.params.deltaFloor {
			width = a.params.deltaFloor
		}
		c3, c4, err = predicateSearch(c3, c4, width, memberPred)
		if err != nil {
			return edgeBracket{err: err}
		}
	}
}

// recordCoApp extends the co-appearance set from a probe answer that
// contains t.
func (a *LNRAggregator) recordCoApp(c *lnrCell, recs []lbs.LNRRecord) {
	if rankIn(recs, c.tID) < 0 {
		return
	}
	for _, r := range recs {
		if r.ID != c.tID {
			c.coApp[r.ID] = true
		}
	}
}

// validIndicatorBracket reports whether an indicator bracket (c3, c4)
// for (t, other) is a genuine B(t, other) crossing: both tuples must be
// visible at both endpoints with t first inside and other first
// outside. Brackets that silently jumped a zone where one tuple left
// the top-k would otherwise register points on visibility boundaries
// instead of the bisector.
func (a *LNRAggregator) validIndicatorBracket(ctx context.Context, c *lnrCell, other int64, c3, c4 geom.Point) (bool, error) {
	recs3, err := a.prober.probe(ctx, c3)
	if err != nil {
		return false, err
	}
	recs4, err := a.prober.probe(ctx, c4)
	if err != nil {
		return false, err
	}
	r3t, r3o := rankIn(recs3, c.tID), rankIn(recs3, other)
	r4t, r4o := rankIn(recs4, c.tID), rankIn(recs4, other)
	return r3t >= 0 && r3o >= 0 && r4t >= 0 && r4o >= 0 &&
		r3t < r3o && r4o < r4t, nil
}

// orderPred builds the indicator predicate "t provably closer than t′"
// for bisector searches; unknown order counts as false, which biases
// the bracket toward the t side and is corrected by later vertex
// tests.
func (a *LNRAggregator) orderPred(ctx context.Context, c *lnrCell, other int64) func(geom.Point) (bool, error) {
	return func(p geom.Point) (bool, error) {
		recs, err := a.prober.probe(ctx, p)
		if err != nil {
			return false, err
		}
		a.recordCoApp(c, recs)
		return relOrder(recs, c.tID, other) > 0, nil
	}
}

// bracketAlong brackets the boundary of the top-h cell along the ray
// from the anchor c1 in direction dir. ok is false when the cell
// reaches the bounding box along the ray.
func (a *LNRAggregator) bracketAlong(ctx context.Context, c *lnrCell, dir geom.Point) edgeBracket {
	exit, ok := geom.RayRectExit(c.c1, dir, a.bound)
	if !ok || exit.Dist(c.c1) < a.params.deltaCoarse {
		return edgeBracket{}
	}
	mExit, err := a.member(ctx, c, exit)
	if err != nil || mExit {
		return edgeBracket{err: err} // a member exit: the cell touches the boundary here
	}
	return a.validatedMemberBracket(ctx, c, c.c1, exit)
}

// registerFlip records one observed boundary point of B(t, t′) and
// derives the current best cut line for that bisector from the two
// farthest-apart observed points. Each point costs one coarse bracket
// search (positional error ≤ ε/4), so with separation s the angular
// error is ≤ ε/(2s) — with s of cell scale this beats Algorithm 7's
// δ′-offset construction at a fraction of the probes. When only one
// point is known, a second one is actively acquired by indicator
// bracket searches along wide-angle rays (secondFlipPoint); the
// indicator (t before t′) flips exactly on B(t, t′) no matter which
// cell edges lie between, so the second point may legitimately be far
// from the first. Only if every angled ray fails does the cut fall
// back to a perpendicular placeholder through the single point.
func (a *LNRAggregator) registerFlip(ctx context.Context, c *lnrCell, other int64, m geom.Point, anchor geom.Point) (cell.Cut, bool, error) {
	c.flipPts[other] = append(c.flipPts[other], m)
	minSep := math.Max(a.params.deltaPrime, anchor.Dist(m)/8)
	if _, _, d := farthestPair(c.flipPts[other]); d < minSep {
		p2, ok, err := a.secondFlipPoint(ctx, c, other, anchor, m)
		if err != nil {
			return cell.Cut{}, false, err
		}
		if ok {
			c.flipPts[other] = append(c.flipPts[other], p2)
		}
	}
	pa, pb, bestD := farthestPair(c.flipPts[other])
	if bestD <= a.params.deltaPrime {
		// No second point could be confirmed on B(t, t′); rather than
		// cut with a guessed line (which could silently slice the true
		// cell), report failure — the vertex loop keeps the region
		// conservatively large there and may succeed from another
		// direction later.
		return cell.Cut{}, false, nil
	}
	line := geom.LineThrough(pa, pb)
	// Orient: the anchor (closer to t) must lie on the negative side.
	if line.Eval(c.c1) > 0 {
		line = line.Flip()
	}
	return cell.Cut{Line: line, Key: other}, true, nil
}

// farthestPair returns the two points of pts with maximum separation.
func farthestPair(pts []geom.Point) (geom.Point, geom.Point, float64) {
	var pa, pb geom.Point
	best := 0.0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d > best {
				best = d
				pa, pb = pts[i], pts[j]
			}
		}
	}
	return pa, pb, best
}

// secondFlipPoint finds another point on B(t, t′) by bracket-searching
// the (t, t′) order indicator along rays rotated away from the first
// crossing. The far endpoint must provably order t′ before t; rays
// where neither tuple is visible are skipped (shortened once before
// giving up), preventing brackets from landing on mere visibility
// boundaries.
func (a *LNRAggregator) secondFlipPoint(ctx context.Context, c *lnrCell, other int64, anchor, m geom.Point) (geom.Point, bool, error) {
	dir := m.Sub(anchor)
	r := dir.Norm()
	if r < geom.Eps {
		return geom.Point{}, false, nil
	}
	pred := a.orderPred(ctx, c, other)
	// Strategy 1: ring search around the first flip point. Probe a
	// circle of radius s centred on m (which lies on B(t, t′)); the
	// bisector crosses the circle at two points, so some adjacent pair
	// of ring probes shows opposite (t, t′) orders with both tuples
	// visible, and a bracket along that chord lands a second bisector
	// point at separation ≈ s regardless of the bisector's orientation.
	for _, frac := range []float64{0.5, 0.25, 1.0} {
		radius := frac * r
		type probePt struct {
			p    geom.Point
			ord  int
			both bool
		}
		ringPts := a.ringPoints(m, radius)
		// Every in-bounds ring point is probed: send them as one batch.
		a.prober.prefetch(ctx, ringPts)
		pts := make([]probePt, 0, len(ringPts))
		for _, p := range ringPts {
			recs, err := a.prober.probe(ctx, p)
			if err != nil {
				return geom.Point{}, false, err
			}
			a.recordCoApp(c, recs)
			pts = append(pts, probePt{
				p:    p,
				ord:  relOrder(recs, c.tID, other),
				both: rankIn(recs, c.tID) >= 0 && rankIn(recs, other) >= 0,
			})
		}
		for i := 0; i < len(pts); i++ {
			pi, pj := pts[i], pts[(i+1)%len(pts)]
			// Only the order flip matters here; both-visible is enforced
			// on the final bracket, where the co-visibility lens around
			// the bisector applies.
			if pi.ord*pj.ord != -1 {
				continue
			}
			pos, neg := pi.p, pj.p
			if pi.ord == -1 {
				pos, neg = pj.p, pi.p
			}
			c3, c4, err := predicateSearch(pos, neg, a.params.deltaCoarse, pred)
			if err != nil {
				return geom.Point{}, false, err
			}
			valid, err := a.validIndicatorBracket(ctx, c, other, c3, c4)
			if err != nil {
				return geom.Point{}, false, err
			}
			if !valid {
				continue
			}
			p2 := c3.Mid(c4)
			if p2.Dist(m) > a.params.deltaPrime {
				return p2, true, nil
			}
		}
	}
	// Strategy 2: wide-angle rays from the anchor.
	dirU := dir.Unit()
	_ = dirU
	for _, ang := range []float64{+0.5, -0.5, +0.9, -0.9, +0.25, -0.25} {
		dir2 := dirU.Rotate(ang)
		for _, scale := range []float64{1.5, 1.0} {
			far := anchor.Add(dir2.Scale(scale * r))
			if !a.bound.Contains(far) {
				exit, ok := geom.RayRectExit(anchor, dir2, a.bound)
				if !ok {
					break
				}
				far = exit
				if far.Dist(anchor) > scale*r {
					far = anchor.Add(dir2.Scale(scale * r))
				}
			}
			recs, err := a.prober.probe(ctx, far)
			if err != nil {
				return geom.Point{}, false, err
			}
			a.recordCoApp(c, recs)
			switch relOrder(recs, c.tID, other) {
			case +1:
				// Still on the t side: the bisector is farther out
				// along this ray than we reached; try the next angle.
				continue
			case 0:
				// Neither visible: shorten the ray and retry.
				continue
			}
			c3, c4, err := predicateSearch(anchor, far, a.params.deltaCoarse, pred)
			if err != nil {
				return geom.Point{}, false, err
			}
			valid, err := a.validIndicatorBracket(ctx, c, other, c3, c4)
			if err != nil {
				return geom.Point{}, false, err
			}
			if !valid {
				continue
			}
			p2 := c3.Mid(c4)
			if p2.Dist(m) > a.params.deltaPrime {
				return p2, true, nil
			}
		}
	}
	return geom.Point{}, false, nil
}

// ringPoints returns the in-bounds points of the 12-point ring of the
// given radius around m, in angle order.
func (a *LNRAggregator) ringPoints(m geom.Point, radius float64) []geom.Point {
	const ring = 12
	pts := make([]geom.Point, 0, ring)
	for i := 0; i < ring; i++ {
		ang := 2 * math.Pi * float64(i) / ring
		p := m.Add(geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(radius))
		if a.bound.Contains(p) {
			pts = append(pts, p)
		}
	}
	return pts
}

// flipResult is one registerFlip outcome.
type flipResult struct {
	cut cell.Cut
	ok  bool
	err error
}

// lockstepFlips runs ahead, in lockstep, the registerFlip calls that a
// serial loop over brackets pre[visit[0]], pre[visit[1]], … will make
// (one per bracket that is ok), and returns their outcomes indexed
// like pre; the loop reads an outcome where there is one and calls
// registerFlip itself where there is none. A flip reads and extends
// only its own key's flipPts, so flips of distinct keys are
// independent lanes. Running ahead stops at the first bracket that is
// not known yet (nil: a vertex twin, whose search depends on the loop),
// that failed, or whose key repeats: from there on the loop runs
// serially, so every flipPts[key] gets the same appends in the same
// order as in a serial run.
func (a *LNRAggregator) lockstepFlips(ctx context.Context, c *lnrCell, pre []*edgeBracket, visit []int) []*flipResult {
	var lanes []int
	keys := make(map[int64]bool)
	for _, i := range visit {
		b := pre[i]
		if b == nil || b.err != nil {
			break
		}
		if !b.ok || b.other == c.tID {
			continue
		}
		if keys[b.other] {
			break
		}
		keys[b.other] = true
		lanes = append(lanes, i)
	}
	out := make([]*flipResult, len(pre))
	a.prober.lockstep(ctx, len(lanes), func(j int) {
		b := pre[lanes[j]]
		var f flipResult
		f.cut, f.ok, f.err = a.registerFlip(ctx, c, b.other, b.c3.Mid(b.c4), c.c1)
		out[lanes[j]] = &f
	})
	return out
}

// flip returns the outcome lockstepFlips produced for b, or runs
// registerFlip for it.
func (a *LNRAggregator) flip(ctx context.Context, c *lnrCell, pre *flipResult, b edgeBracket) (cell.Cut, bool, error) {
	if pre != nil {
		return pre.cut, pre.ok, pre.err
	}
	return a.registerFlip(ctx, c, b.other, b.c3.Mid(b.c4), c.c1)
}

// buildCell infers the top-h Voronoi cell of tuple t from rank
// information alone. c1 must be a location where t ranks within the
// top h. The returned complex approximates V_h(t) with edge precision
// EdgeEps.
func (a *LNRAggregator) buildCell(ctx context.Context, tID int64, h int, c1 geom.Point) (*cell.Complex, *lnrCell, error) {
	a.stats.Cells++
	c := a.newCell(tID, h, c1)
	if err := a.axisCuts(ctx, c); err != nil {
		return nil, nil, err
	}
	confirmed := make(map[vkey]bool)
	for round := 0; round < maxRoundsPerCell; round++ {
		changed, unresolved, err := a.vertexRound(ctx, c, confirmed)
		if err != nil {
			return nil, nil, err
		}
		if h > 1 {
			repaired, err := a.repairConcavity(ctx, c)
			if err != nil {
				return nil, nil, err
			}
			changed = changed || repaired
		}
		if !changed {
			if unresolved {
				a.stats.UnresolvedCells++
			}
			return c.region, c, nil
		}
		if c.region.NumCuts() >= maxCutsPerCell {
			break
		}
	}
	a.stats.GuardTrips++
	return c.region, c, nil
}

// newCell starts the search for t's top-h cell from anchor c1 with the
// whole region.
func (a *LNRAggregator) newCell(tID int64, h int, c1 geom.Point) *lnrCell {
	return &lnrCell{
		tID:     tID,
		h:       h,
		c1:      c1,
		region:  cell.NewFromRect(a.bound, h),
		coApp:   make(map[int64]bool),
		flipPts: make(map[int64][]geom.Point),
		refines: make(map[int64]int),
	}
}

// axisCuts runs the four axis-aligned edge searches from the anchor
// (Algorithm 6 lines 3–5) and cuts the region by the bisectors they
// find. The four brackets depend only on their own probes, so with a
// batch path they run in lockstep, and so do the flips of their
// distinct keys; cuts then follow in direction order.
func (a *LNRAggregator) axisCuts(ctx context.Context, c *lnrCell) error {
	dirs := [...]geom.Point{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}
	pre := make([]*edgeBracket, len(dirs))
	a.prober.lockstep(ctx, len(dirs), func(i int) {
		b := a.bracketAlong(ctx, c, dirs[i])
		pre[i] = &b
	})
	flips := a.lockstepFlips(ctx, c, pre, []int{0, 1, 2, 3})
	for i, dir := range dirs {
		a.stats.EdgeSearches++
		var b edgeBracket
		if pre[i] != nil {
			b = *pre[i]
		} else {
			b = a.bracketAlong(ctx, c, dir)
		}
		if b.err != nil {
			return b.err
		}
		if !b.ok {
			continue
		}
		cut, found, err := a.flip(ctx, c, flips[i], b)
		if err != nil {
			return err
		}
		if found && !c.region.HasCut(cut.Key) {
			c.region.AddCut(cut)
		}
	}
	return nil
}

// vertexRound runs one pass of Theorem-1 vertex confirmation, probing
// unconfirmed vertices and searching for the missing edge behind every
// failing vertex. unresolved reports a vertex left unconfirmed because
// its edge could not be pinned (registerFlip failed).
func (a *LNRAggregator) vertexRound(ctx context.Context, c *lnrCell, confirmed map[vkey]bool) (changed, unresolved bool, err error) {
	verts := c.region.Vertices()
	// Each unconfirmed vertex whose key first appears in this snapshot
	// is certain to be probed (and bracketed when outside), and its
	// probes do not depend on this round's cuts: with a batch path they
	// run in lockstep, and then so do the flips their brackets start
	// (lockstepFlips). A vertex repeating a key depends on its twin's
	// outcome and stays serial.
	var open, lanes []int
	seen := make(map[vkey]bool, len(verts))
	for i, v := range verts {
		key := a.vkeyOf(v)
		if confirmed[key] {
			continue
		}
		open = append(open, i)
		if !seen[key] {
			lanes = append(lanes, i)
		}
		seen[key] = true
	}
	pre := make([]*edgeBracket, len(verts))
	a.prober.lockstep(ctx, len(lanes), func(j int) {
		b := a.probeVertex(ctx, c, verts[lanes[j]])
		pre[lanes[j]] = &b
	})
	flips := a.lockstepFlips(ctx, c, pre, open)
	for i, v := range verts {
		key := a.vkeyOf(v)
		if confirmed[key] {
			continue
		}
		a.stats.VertexProbes++
		var b edgeBracket
		if pre[i] != nil {
			b = *pre[i]
		} else {
			b = a.probeVertex(ctx, c, v)
		}
		if b.err != nil {
			return false, false, b.err
		}
		if !b.ok || b.other == c.tID {
			confirmed[key] = true
			continue
		}
		cut, cutOK, err := a.flip(ctx, c, flips[i], b)
		if err != nil {
			return false, false, err
		}
		if !cutOK {
			unresolved = true
			continue // keep the vertex unconfirmed; retry next round
		}
		if !c.region.HasCut(cut.Key) {
			c.region.AddCut(cut)
			changed = true
		} else if c.refines[cut.Key] < 6 {
			// The edge was known but its line was off enough to leave
			// this vertex outside (a placeholder or an early two-point
			// estimate): replace with the refined line.
			c.refines[cut.Key]++
			c.region.ReplaceCut(cut)
			changed = true
		} else {
			confirmed[key] = true // accept ε-level boundary imprecision
		}
	}
	return changed, unresolved, nil
}

// probeVertex tests whether region vertex v lies in t's cell and, when
// it does not, brackets the missing edge between the anchor and v. ok
// is false when the vertex is settled without a cut: it is inside the
// cell, within δ_c of the anchor, or no valid displacer was found.
func (a *LNRAggregator) probeVertex(ctx context.Context, c *lnrCell, v geom.Point) edgeBracket {
	in, err := a.member(ctx, c, v)
	if err != nil || in {
		return edgeBracket{err: err}
	}
	if v.Dist(c.c1) < a.params.deltaCoarse {
		return edgeBracket{}
	}
	return a.validatedMemberBracket(ctx, c, c.c1, v)
}

// repairConcavity implements the §4.2 extension: for every tuple t′
// that co-appeared with t but has no registered bisector, look for a
// pair of probed region vertices whose (t, t′) order differs; the
// bisector B(t, t′) then crosses the segment between them and a
// bracket search pins it down, potentially restoring a missed inward
// vertex of the concave top-k cell.
func (a *LNRAggregator) repairConcavity(ctx context.Context, c *lnrCell) (bool, error) {
	verts := c.region.Vertices()
	if len(verts) < 2 {
		return false, nil
	}
	// Classify each vertex by probing (cached — vertices were probed
	// during the vertex round).
	// Repairs run in ID order: each one probes and may add a cut, so
	// map order would make the run irreproducible at a fixed seed.
	others := make([]int64, 0, len(c.coApp))
	for other := range c.coApp {
		others = append(others, other)
	}
	slices.Sort(others)
	changed := false
	for _, other := range others {
		if c.region.HasCut(other) {
			continue
		}
		var pos, neg *geom.Point
		for i := range verts {
			recs, err := a.prober.probe(ctx, verts[i])
			if err != nil {
				return false, err
			}
			switch relOrder(recs, c.tID, other) {
			case +1:
				pos = &verts[i]
			case -1:
				neg = &verts[i]
			}
			if pos != nil && neg != nil {
				break
			}
		}
		if pos == nil || neg == nil {
			continue // no witnessed flip: bisector cannot cut the region yet
		}
		a.stats.BisectorRepair++
		pred := a.orderPred(ctx, c, other)
		c3, c4, err := predicateSearch(*pos, *neg, a.params.deltaCoarse, pred)
		if err != nil {
			return false, err
		}
		valid, err := a.validIndicatorBracket(ctx, c, other, c3, c4)
		if err != nil {
			return false, err
		}
		if !valid {
			continue // visibility boundary, not B(t, t′)
		}
		cut, cutOK, err := a.registerFlip(ctx, c, other, c3.Mid(c4), *pos)
		if err != nil {
			return false, err
		}
		if !cutOK {
			continue
		}
		c.region.AddCut(cut)
		changed = true
	}
	return changed, nil
}

func (a *LNRAggregator) vkeyOf(p geom.Point) vkey {
	return vkey{int64(p.X / a.vtol), int64(p.Y / a.vtol)}
}

// Step draws one random query location and weights each contributing
// tuple by its inferred cell mass p (Algorithm 6 body). Only the
// top-ranked returned tuple is exploited when H = 1; with H > 1, each
// tuple at rank ≤ H is weighted by its top-H cell. With needLoc every
// record carries its inferred location (§4.3; a failed localization
// leaves the record without one).
func (a *LNRAggregator) Step(ctx context.Context, needLoc bool) (Sample, error) {
	q := a.smp.Sample(a.rng)
	recs, err := a.prober.probe(ctx, q)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		a.stats.EmptyAnswers++
		a.stats.Samples++
		return nil, nil
	}
	h := a.opts.H
	limit := h
	if limit > len(recs) {
		limit = len(recs)
	}
	var out Sample
	for i := 0; i < limit; i++ {
		t := recs[i]
		region, cctx, err := a.buildCell(ctx, t.ID, h, q)
		if err != nil {
			return nil, err
		}
		p := a.massOfRegion(region)
		if p <= 0 {
			continue
		}
		rec := recordOfLNR(t)
		if needLoc {
			if loc, err := a.localizeWith(ctx, cctx); err == nil {
				rec.HasLoc = true
				rec.Loc = loc
			}
		}
		out = append(out, WeightedRecord{Record: rec, W: p, Div: true})
	}
	a.stats.Samples++
	return out, nil
}

// Fork returns an independent LNR aggregator of the same
// configuration over the same service, at a fork seed (see
// drawSource.forkSeed), for Run's parallel mode; forks start with an
// empty probe cache.
func (a *LNRAggregator) Fork(seed int64) Estimator {
	opts := a.opts
	opts.Seed = a.forkSeed(seed)
	return NewLNRAggregator(a.svc, opts)
}

// Run draws samples through the package-level Run until one of the
// configured bounds triggers (see RunOption); with no options it runs
// until the service budget is exhausted or ctx is canceled.
func (a *LNRAggregator) Run(ctx context.Context, aggs []Aggregate, opts ...RunOption) ([]Result, error) {
	return Run(ctx, a, aggs, opts...)
}
