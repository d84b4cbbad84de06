// Package cell implements top-k Voronoi cell regions as convex
// subdivisions ("cell complexes").
//
// Given a target tuple t and a set of "cuts" — perpendicular bisectors
// between t and other tuples, each oriented so that one side is closer
// to t — the top-k Voronoi cell of t with respect to those tuples is
//
//	V_k(t) = { q : |{cuts whose far side contains q}| ≤ k−1 },
//
// because crossing a bisector between two tuples other than t never
// changes how many tuples are closer to q than t. For k = 1 the region
// is the classical (convex) Voronoi cell; for k > 1 it may be concave
// (Figure 1 of the paper), which is why the region is represented as a
// set of disjoint convex faces, each annotated with its "closer count".
//
// The complex supports the operations both estimation algorithms need:
// exact area, the vertex set (for the Theorem-1 confirmation loop),
// membership tests, per-h sub-areas (λ_h upper bounds for the variance
// reduction of §3.2.3), and uniform random sampling (for the
// Monte-Carlo device of §3.2.4).
//
// # Levels
//
// A complex built for k keeps every face whose count is below k, so
// the top-m complex (m < k) built from the same sites is the top-k
// complex's "level-m prefix": its faces are, bit for bit and in order,
// the top-k build's faces with count < m. Both builds consume the sites
// in one distance order (see BuildFromSites); the top-m build consumes
// a prefix of the top-k build's sites, because its region, and so its
// pruning radius, is smaller; and every cut the top-k build makes
// beyond that prefix lies past the top-m pruning radius, where it
// cannot touch a face below level m. Splitting preserves face order and
// the pieces at count ≥ m are exactly the ones the top-m build drops.
// So FaceAreaAtMost(h) and WithK(h) of a top-m complex equal the top-k
// build's AreaAtMost(h) (h ≤ m) and WithK(h) (h < m) bit for bit. Only
// Area(), which is maintained incrementally, carries different rounding
// at h = m, which is why WithK(h) needs m > h: WithK(h) below the
// source's k sums the copied face areas in order, while a top-h build
// carries its incremental sum. SumArea replaces the latter by the
// former, so a top-h build re-summed is WithK(h) of any top-m build
// (m > h) from the same sites, bit for bit. The LR estimator relies on
// this to build only the levels it reads, all from one Order so the
// levels share one distance ordering: the adaptive-h rule grows levels
// by doubling, and a fixed h seeds its refinement with the top-h build
// itself, re-summed for h < k, instead of a copy out of level h+1.
//
// # Allocation discipline
//
// Cut insertion is the innermost loop of every estimator sample, so the
// complex recycles its own storage: face polygons are drawn from a
// per-complex free list, faces are double-buffered across AddCut
// passes, and each face caches its bounding box and area so cuts that
// cannot touch a face are rejected in O(1) without splitting. Steady-
// state insertion (and Reset or ResetK + re-insertion) performs no heap
// allocation. A complex is also recycled whole: WithKInto copies the
// top-h faces of one complex into another complex's face buffers, free
// list and cut map (WithK is WithKInto into a new complex), so a caller
// that keeps spare complexes copies seeds without allocating; and
// AppendVertices writes the vertex set into the caller's buffer,
// deduplicating in place through a pooled grid index. The flip side of
// recycling is aliasing: slices returned by Faces() — including the
// face polygons themselves — are valid only until the next mutating
// call (AddCut, ReplaceCut, InsertSites, Reset, ResetK, or WithKInto
// into the complex); callers that need longer-lived views must copy.
package cell

import (
	"maps"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/geom"
)

// Face is one convex piece of the subdivision. Count is the number of
// registered cuts whose far side (closer to the cut's other tuple than
// to the target) contains the face. The bounding box and area of Poly
// are cached at construction for the fast-reject test and incremental
// area maintenance.
type Face struct {
	Poly  geom.Polygon
	Count int
	bbox  geom.Rect
	area  float64
}

// newFace builds a face with its cached bounding box and area.
func newFace(poly geom.Polygon, count int) Face {
	return Face{Poly: poly, Count: count, bbox: poly.BoundingRect(), area: poly.Area()}
}

// Area returns the face's cached polygon area.
func (f *Face) Area() float64 { return f.area }

// Bounds returns the face's cached bounding rectangle.
func (f *Face) Bounds() geom.Rect { return f.bbox }

// Cut is one oriented bisector: the negative side of Line is the side
// closer to the target tuple t. Key identifies the other tuple (an ID
// or index) so callers can deduplicate; Source records provenance for
// diagnostics.
type Cut struct {
	Line geom.Line
	// Key identifies the opposing tuple. Cuts with a Key already
	// registered are ignored by AddCut.
	Key int64
}

// Complex is a top-k Voronoi cell region under construction. The zero
// value is not usable; construct with New.
type Complex struct {
	k     int
	bound geom.Polygon
	faces []Face
	cuts  map[int64]geom.Line
	// cachedArea is maintained incrementally: faces entering or leaving
	// the region add or subtract their cached polygon area.
	cachedArea float64

	// Recycled storage (see the package comment): facesBuf is the
	// double buffer AddCut writes into, polyPool the free list of
	// polygon backing arrays.
	facesBuf []Face
	polyPool []geom.Polygon
}

// New returns a complex over the given convex bounding polygon for the
// top-k cell of a target. k must be ≥ 1 and bound non-degenerate.
func New(bound geom.Polygon, k int) *Complex {
	if k < 1 {
		panic("cell: k must be ≥ 1")
	}
	if bound.Area() < geom.Eps {
		panic("cell: degenerate bounding polygon")
	}
	c := &Complex{
		k:     k,
		bound: bound.Clone(),
		cuts:  make(map[int64]geom.Line),
	}
	f := newFace(bound.Clone(), 0)
	c.faces = []Face{f}
	c.cachedArea = f.area
	return c
}

// NewFromRect is a convenience wrapper building the complex over a
// rectangular bounding box.
func NewFromRect(bound geom.Rect, k int) *Complex {
	return New(bound.Polygon(), k)
}

// K returns the k this complex was built for.
func (c *Complex) K() int { return c.k }

// Bound returns the bounding polygon the complex started from.
func (c *Complex) Bound() geom.Polygon { return c.bound }

// NumCuts returns the number of distinct registered cuts.
func (c *Complex) NumCuts() int { return len(c.cuts) }

// NumFaces returns the number of convex faces currently in the region.
func (c *Complex) NumFaces() int { return len(c.faces) }

// HasCut reports whether a cut with the given key is registered.
func (c *Complex) HasCut(key int64) bool {
	_, ok := c.cuts[key]
	return ok
}

// CutLine returns the registered line for key.
func (c *Complex) CutLine(key int64) (geom.Line, bool) {
	l, ok := c.cuts[key]
	return l, ok
}

// CutKeys returns the keys of all registered cuts in ascending order.
func (c *Complex) CutKeys() []int64 {
	keys := make([]int64, 0, len(c.cuts))
	for k := range c.cuts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// allocPoly pops a recycled polygon backing array from the free list
// (nil when the list is empty — append then allocates once and the
// grown array joins the list on release).
func (c *Complex) allocPoly() geom.Polygon {
	if n := len(c.polyPool); n > 0 {
		p := c.polyPool[n-1]
		c.polyPool = c.polyPool[:n-1]
		return p
	}
	return nil
}

// freePoly returns a polygon backing array to the free list.
func (c *Complex) freePoly(p geom.Polygon) {
	if cap(p) == 0 {
		return
	}
	c.polyPool = append(c.polyPool, p[:0])
}

// Reset returns the complex to its initial cut-free state while
// retaining all allocated capacity (cut map buckets, face buffers,
// polygon free list, site scratch), so repeated build/reset cycles on
// one complex are allocation-free in steady state.
func (c *Complex) Reset() { c.ResetK(c.k) }

// ResetK is Reset that also makes the complex a top-k one: the result
// is New(c.Bound(), k) in c's recycled storage.
func (c *Complex) ResetK(k int) {
	if k < 1 {
		panic("cell: k must be ≥ 1")
	}
	for i := range c.faces {
		c.freePoly(c.faces[i].Poly)
	}
	c.k = k
	clear(c.cuts)
	p := append(c.allocPoly()[:0], c.bound...)
	f := newFace(p, 0)
	c.faces = append(c.faces[:0], f)
	c.cachedArea = f.area
}

// AddCut registers a new oriented bisector and refines the subdivision:
// every face is split by the cut; the piece on the far (positive) side
// has its count incremented and is dropped once the count reaches k.
// It returns true if the cut changed the region (was new and clipped at
// least one face).
func (c *Complex) AddCut(cut Cut) bool {
	if _, dup := c.cuts[cut.Key]; dup {
		return false
	}
	c.cuts[cut.Key] = cut.Line
	return c.applyCut(cut.Line)
}

// applyCut refines every face by an already-registered line. Faces
// whose cached bounding box lies entirely on one side of the line are
// classified in O(1); only genuinely crossed faces are split, into
// pooled buffers.
func (c *Complex) applyCut(line geom.Line) bool {
	changed := false
	out := c.facesBuf[:0]
	for _, f := range c.faces {
		lo, hi := line.EvalRange(f.bbox)
		if hi <= geom.Eps {
			// Entire face on the near side: unchanged.
			out = append(out, f)
			continue
		}
		if lo >= -geom.Eps {
			// Entire face on the far side.
			changed = true
			if f.Count+1 <= c.k-1 {
				f.Count++
				out = append(out, f)
			} else {
				c.cachedArea -= f.area
				c.freePoly(f.Poly)
			}
			continue
		}
		negDst, posDst := c.allocPoly(), c.allocPoly()
		neg, pos, crossed := f.Poly.SplitInto(line, negDst, posDst)
		if !crossed {
			// The bounding box straddles the line but the polygon does
			// not: same one-sided handling as above.
			c.freePoly(negDst)
			c.freePoly(posDst)
			if pos == nil {
				out = append(out, f)
				continue
			}
			changed = true
			if f.Count+1 <= c.k-1 {
				f.Count++
				out = append(out, f)
			} else {
				c.cachedArea -= f.area
				c.freePoly(f.Poly)
			}
			continue
		}
		if pos == nil {
			// The far piece was a sub-Eps sliver: the face is
			// effectively untouched (legacy Split semantics).
			c.freePoly(negDst)
			c.freePoly(posDst)
			out = append(out, f)
			continue
		}
		changed = true
		c.cachedArea -= f.area
		c.freePoly(f.Poly)
		if neg != nil {
			nf := newFace(neg, f.Count)
			c.cachedArea += nf.area
			out = append(out, nf)
		} else {
			c.freePoly(negDst)
		}
		if f.Count+1 <= c.k-1 {
			pf := newFace(pos, f.Count+1)
			c.cachedArea += pf.area
			out = append(out, pf)
		} else {
			c.freePoly(pos)
		}
	}
	c.facesBuf = c.faces[:0]
	c.faces = out
	return changed
}

// ReplaceCut removes the cut with the given key (if any) and re-adds it
// with a refined line. Used by the LNR algorithm when a binary search
// produces a more precise estimate of an edge already discovered.
//
// The replacement is incremental: only the wedge of the bound where the
// old and new lines disagree about sidedness is re-derived. Face pieces
// outside the wedge keep their counts verbatim; the (thin) wedge pieces
// are rebuilt from scratch against the full cut set, which also
// restores any region the refined line hands back — no full-complex
// rebuild, whose cost LNR's per-refinement calls cannot afford.
func (c *Complex) ReplaceCut(cut Cut) {
	old, had := c.cuts[cut.Key]
	c.cuts[cut.Key] = cut.Line
	if !had {
		c.applyCut(cut.Line)
		return
	}
	if old == cut.Line {
		return
	}
	// The disagreement wedge, as two convex pieces of the bound:
	// retreat {old far, new near} (counts decrease there) and advance
	// {old near, new far} (counts increase there).
	retreat := c.bound.Clip(old.Flip().HalfPlane()).Clip(cut.Line.HalfPlane())
	advance := c.bound.Clip(old.HalfPlane()).Clip(cut.Line.Flip().HalfPlane())
	if retreat == nil && advance == nil {
		return // indistinguishable within the bound
	}
	// Drop every face piece inside the wedge, keeping outside pieces
	// (whose counts are unaffected by the replacement) verbatim.
	out := c.facesBuf[:0]
	for _, f := range c.faces {
		out = c.keepOutsideWedge(out, f, old, cut.Line)
	}
	c.facesBuf = c.faces[:0]
	c.faces = out
	// Re-derive the wedge interior against the full (updated) cut set.
	c.rebuildWedge(retreat)
	c.rebuildWedge(advance)
}

// keepOutsideWedge appends to out the pieces of face f on which the old
// and new lines agree, discarding (and recycling) the wedge pieces.
// Faces are wholly on one side of every registered line by
// construction, so the common case is a single O(1) classification
// against the old line followed by one split against the new one.
func (c *Complex) keepOutsideWedge(out []Face, f Face, old, refined geom.Line) []Face {
	lo, hi := old.EvalRange(f.bbox)
	var farOld bool
	switch {
	case hi <= geom.Eps:
		farOld = false
	case lo >= -geom.Eps:
		farOld = true
	default:
		// Sliver-level ambiguity: resolve by majority of vertex evals.
		var s float64
		for _, p := range f.Poly {
			s += old.Eval(p)
		}
		farOld = s > 0
	}
	negDst, posDst := c.allocPoly(), c.allocPoly()
	neg, pos, crossed := f.Poly.SplitInto(refined, negDst, posDst)
	if !crossed {
		c.freePoly(negDst)
		c.freePoly(posDst)
		if (pos != nil) == farOld {
			return append(out, f) // sides agree: outside the wedge
		}
		c.cachedArea -= f.area
		c.freePoly(f.Poly)
		return out
	}
	keep, keepDst, dropDst := neg, negDst, posDst
	if farOld {
		keep, keepDst, dropDst = pos, posDst, negDst
	}
	c.cachedArea -= f.area
	c.freePoly(f.Poly)
	c.freePoly(dropDst)
	if keep != nil {
		kf := newFace(keep, f.Count)
		c.cachedArea += kf.area
		out = append(out, kf)
	} else {
		c.freePoly(keepDst)
	}
	return out
}

// rebuildWedge reconstructs the subdivision inside one convex wedge
// piece from the full registered cut set and splices the resulting
// region faces into the complex.
func (c *Complex) rebuildWedge(w geom.Polygon) {
	if len(w) < 3 || w.Area() < geom.Eps {
		return
	}
	// Clip can return the receiver unchanged; the sub-complex takes
	// ownership of its bound, so detach from c.bound in that case.
	if &w[0] == &c.bound[0] {
		w = w.Clone()
	}
	sub := &Complex{
		k:          c.k,
		bound:      w,
		cuts:       make(map[int64]geom.Line, len(c.cuts)),
		cachedArea: w.Area(),
	}
	sub.faces = []Face{newFace(w, 0)}
	for _, key := range c.CutKeys() {
		sub.AddCut(Cut{Line: c.cuts[key], Key: key})
	}
	for _, f := range sub.faces {
		c.faces = append(c.faces, f)
		c.cachedArea += f.area
	}
}

// Area returns the exact area of the region (faces with count ≤ k−1),
// maintained incrementally across cut operations.
func (c *Complex) Area() float64 {
	if c.cachedArea < 0 {
		return 0 // guard against accumulated float drift near empty
	}
	return c.cachedArea
}

// AreaAtMost returns the area of the sub-region with count ≤ h−1, i.e.
// the (tentative) top-h Voronoi cell for any h ≤ k. With cuts derived
// from a subset of the database this is exactly the λ_h upper bound of
// §3.2.3. AreaAtMost(k) == Area().
func (c *Complex) AreaAtMost(h int) float64 {
	if h >= c.k {
		return c.Area()
	}
	return c.FaceAreaAtMost(h)
}

// FaceAreaAtMost returns the in-order sum of the cached areas of the
// faces with count ≤ h−1, for any h (for h ≥ k every face counts). It
// is the face sum AreaAtMost(h) computes below k, so a top-m complex
// reads, bit for bit, the AreaAtMost(h) of a top-k build from the same
// sites for every h ≤ m < k (see the package comment on levels).
func (c *Complex) FaceAreaAtMost(h int) float64 {
	var a float64
	for i := range c.faces {
		if c.faces[i].Count <= h-1 {
			a += c.faces[i].area
		}
	}
	return a
}

// SumArea sets Area() to the in-order sum of the face areas,
// FaceAreaAtMost(k), in place of the incrementally maintained sum: the
// area WithK(h) gives a copy taken below the source's k. A top-h build
// re-summed is so, bit for bit, WithK(h) of a top-m build (m > h) from
// the same sites (see the package comment on levels).
func (c *Complex) SumArea() { c.cachedArea = c.FaceAreaAtMost(c.k) }

// Contains reports whether p lies in the region. Points exactly on
// internal subdivision edges are resolved by direct counting against
// the cuts, which is unambiguous.
func (c *Complex) Contains(p geom.Point) bool {
	if !c.bound.Contains(p) {
		return false
	}
	count := 0
	for _, l := range c.cuts {
		if l.Eval(p) > geom.Eps {
			count++
			if count > c.k-1 {
				return false
			}
		}
	}
	return true
}

// CloserCount returns the number of cuts whose far side strictly
// contains p — i.e. how many of the registered opposing tuples are
// closer to p than the target is.
func (c *Complex) CloserCount(p geom.Point) int {
	count := 0
	for _, l := range c.cuts {
		if l.Eval(p) > geom.Eps {
			count++
		}
	}
	return count
}

// Faces returns the current faces. The returned slice and the face
// polygons share the complex's recycled storage: treat them as
// read-only and only valid until the next mutating call (AddCut,
// ReplaceCut, InsertSites, Reset).
func (c *Complex) Faces() []Face { return c.faces }

// Vertices returns the deduplicated vertex set of all faces of the
// region. This is a superset of the vertices of the region's outer
// boundary: internal subdivision vertices are included. For the
// Theorem-1 confirmation loop a superset is harmless — querying an
// interior vertex either confirms known tuples or reveals an unseen
// tuple, both of which keep the loop sound — it only costs extra
// queries (and is exactly what makes k>1 concavity handling uniform).
func (c *Complex) Vertices() []geom.Point { return c.AppendVertices(nil) }

// AppendVertices appends the vertex set Vertices returns to dst and
// returns the extended slice. A caller that passes the same buffer back
// each round (dst[:0]) reaches a steady state with no allocation.
func (c *Complex) AppendVertices(dst []geom.Point) []geom.Point {
	start := len(dst)
	for _, f := range c.faces {
		dst = append(dst, f.Poly...)
	}
	return dst[:start+len(dedupePoints(dst[start:], 1e-7))]
}

// RandomPoint returns a point uniformly distributed over the region:
// a face is chosen with probability proportional to its area and a
// point sampled uniformly inside it. It returns false when the region
// is empty.
func (c *Complex) RandomPoint(rng *rand.Rand) (geom.Point, bool) {
	total := c.Area()
	if total < geom.Eps {
		return geom.Point{}, false
	}
	target := rng.Float64() * total
	for i := range c.faces {
		f := &c.faces[i]
		if target < f.area {
			return geom.RandomInPolygon(rng, f.Poly), true
		}
		target -= f.area
	}
	// Floating point slack: fall back to the last face.
	last := c.faces[len(c.faces)-1]
	return geom.RandomInPolygon(rng, last.Poly), true
}

// MaxDistFrom returns the maximum distance from p to the region
// (attained at a face vertex).
func (c *Complex) MaxDistFrom(p geom.Point) float64 {
	var m float64
	for _, f := range c.faces {
		if d := f.Poly.MaxDistFrom(p); d > m {
			m = d
		}
	}
	return m
}

// WithK returns a new complex over the same cuts restricted to top-h
// membership (h ≤ the receiver's k): the faces with count ≤ h−1. Used
// by the adaptive variance-reduction device (§3.2.3), which evaluates
// all candidate top-h cells from one history-derived top-k subdivision
// and then continues refinement at the chosen h. For h ≥ k it is Clone.
func (c *Complex) WithK(h int) *Complex { return c.WithKInto(new(Complex), h) }

// WithKInto is WithK written into dst, which it returns: dst's previous
// contents are discarded, and its face buffers, polygon free list and
// cut map are reused, so a dst recycled across calls makes the copy
// without allocation in steady state. dst must not be c.
func (c *Complex) WithKInto(dst *Complex, h int) *Complex {
	if h < 1 {
		panic("cell: WithK h must be ≥ 1")
	}
	if dst == c {
		panic("cell: WithKInto into its own receiver")
	}
	for i := range dst.faces {
		dst.freePoly(dst.faces[i].Poly)
	}
	dst.k = min(h, c.k)
	dst.bound = append(dst.bound[:0], c.bound...)
	if dst.cuts == nil {
		dst.cuts = make(map[int64]geom.Line, len(c.cuts))
	} else {
		clear(dst.cuts)
	}
	maps.Copy(dst.cuts, c.cuts)
	dst.faces = dst.faces[:0]
	dst.cachedArea = 0
	for _, f := range c.faces {
		if f.Count <= dst.k-1 {
			f.Poly = append(dst.allocPoly()[:0], f.Poly...)
			dst.faces = append(dst.faces, f)
			dst.cachedArea += f.area
		}
	}
	if h >= c.k {
		dst.cachedArea = c.cachedArea // a clone keeps the incremental sum
	}
	return dst
}

// Clone returns a deep copy of the complex (recycled-storage pools are
// not shared; the clone starts with empty ones).
func (c *Complex) Clone() *Complex { return c.WithK(c.k) }

// gridKey is a rounding bucket of dedupePoints' grid.
type gridKey struct{ x, y int64 }

// dedupeIndex is dedupePoints' reusable grid: head maps a bucket to the
// last point kept in it, next links each kept point to the one kept in
// its bucket before it (−1 ends the chain).
type dedupeIndex struct {
	head map[gridKey]int32
	next []int32
}

// dedupePool holds dedupePoints' grids, package-wide like orderPool, so
// complexes built once (LNR cells, one-shot callers) reuse them too.
var dedupePool = sync.Pool{New: func() any { return &dedupeIndex{head: make(map[gridKey]int32)} }}

// dedupePoints removes near-duplicate points in place, keeping first
// occurrences in order, and returns the kept prefix of pts. A point is
// dropped when a kept point in the 3×3 neighborhood of its rounding
// bucket (so points straddling a bucket boundary still match) lies
// within tol of it.
func dedupePoints(pts []geom.Point, tol float64) []geom.Point {
	ix := dedupePool.Get().(*dedupeIndex)
	clear(ix.head)
	ix.next = ix.next[:0]
	n := 0
	for _, p := range pts {
		kx := int64(math.Floor(p.X / tol))
		ky := int64(math.Floor(p.Y / tol))
		dup := false
	outer:
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				j, ok := ix.head[gridKey{kx + dx, ky + dy}]
				for ; ok && j >= 0; j = ix.next[j] {
					if p.ApproxEq(pts[j], tol) {
						dup = true
						break outer
					}
				}
			}
		}
		if !dup {
			key := gridKey{kx, ky}
			prev, ok := ix.head[key]
			if !ok {
				prev = -1
			}
			ix.head[key] = int32(n)
			ix.next = append(ix.next, prev)
			pts[n] = p
			n++
		}
	}
	dedupePool.Put(ix)
	return pts[:n]
}
