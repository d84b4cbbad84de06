package cell

import (
	"math"
	"sync"

	"repro/internal/geom"
)

// Site pairs a tuple identifier with its known location. Used when
// locations are available (LR-LBS interfaces and ground-truth
// computation).
type Site struct {
	Key int64
	Loc geom.Point
}

// BuildFromSites constructs the top-k cell of a target located at
// target with respect to the given sites (which must not include the
// target itself), over the given bounding polygon.
//
// Sites are processed in order of increasing distance from the target
// so that the standard pruning rule applies: a site s can affect the
// region only if some region point p is closer to s than to the target,
// which requires d(target, s) < 2·max_p d(target, p); once the sorted
// distance exceeds twice the current maximum region distance, no later
// site can cut the region and insertion stops. The rule is valid for
// any k because it bounds where the bisector B(target, s) can reach.
func BuildFromSites(bound geom.Polygon, k int, target geom.Point, sites []Site) *Complex {
	c := New(bound, k)
	InsertSites(c, target, sites)
	return c
}

// siteDist is one filtered batch entry with its precomputed squared
// distance, so the heap comparator does no arithmetic, and its index in
// the site sequence, the tie-break among equidistant sites.
type siteDist struct {
	site Site
	d2   float64
	idx  int32
}

// before reports whether a comes out of an Order before b.
func (a *siteDist) before(b *siteDist) bool {
	return a.d2 < b.d2 || (a.d2 == b.d2 && a.idx < b.idx)
}

// Order is a target's sites in the order InsertSites consumes them:
// increasing squared distance from the target, equidistant sites in
// the order of the site sequence, drawn lazily. Several builds from
// one site set share the draws: each Insert walks the sites drawn so
// far and draws more only past their end. The LR estimator's
// adaptive-h rule builds the top-1, top-2, top-4, … complexes of one
// target from one Order. The zero value is an empty order; Reset and
// ResetGrid reuse its storage.
//
// Reset draws from a slice through one binary heap over all of it.
// ResetGrid draws from a SiteGrid: it searches the grid's cells in
// rings outward from the target and heaps only the sites of the rings
// searched so far, so a draw costs what the target's neighbourhood
// holds, not the whole sequence.
type Order struct {
	target geom.Point
	heap   []siteDist // undrawn candidates, a min-heap on (d2, idx)
	drawn  []siteDist // drawn sites, in consumption order

	// The ring search of ResetGrid (grid nil after Reset): n is the
	// grid's length at ResetGrid (later sites are not in the order),
	// gen the grid generation the ring state refers to, (cx, cy) the
	// start cell and ring the next ring to search. Every site not yet
	// searched has d2 > lo2; done means every cell has been searched.
	grid       *SiteGrid
	n          int32
	gen        int
	cx, cy     int
	ring       int
	lo2, slack float64
	done       bool
}

// Reset makes o the order of sites around target, dropping sites that
// coincide with the target within Eps.
func (o *Order) Reset(target geom.Point, sites []Site) { o.reset(target, sites, nil) }

// reset is Reset that also drops the sites whose Key c has registered.
func (o *Order) reset(target geom.Point, sites []Site, c *Complex) {
	o.target, o.grid = target, nil
	o.heap, o.drawn = o.heap[:0], o.drawn[:0]
	for i, s := range sites {
		d2 := s.Loc.Dist2(target)
		if d2 < geom.Eps*geom.Eps || (c != nil && c.HasCut(s.Key)) {
			continue
		}
		o.heap = append(o.heap, siteDist{site: s, d2: d2, idx: int32(i)})
	}
	// Lazy distance ordering: the pruning rule usually stops after the
	// nearest handful of sites, so a heapify + pop loop beats a full
	// sort of the batch (O(n + m log n) for m consumed sites).
	heapifySites(o.heap)
}

// ResetGrid makes o the order of g's current sites around target,
// dropping sites that coincide with the target within Eps: the order
// Reset(target, g.Sites()) gives, drawn from the grid. Sites added to
// g later are not in the order; a rebuild of g's grid between draws
// restarts the search past the sites already drawn.
func (o *Order) ResetGrid(target geom.Point, g *SiteGrid) {
	o.target, o.grid, o.n = target, g, int32(g.Len())
	o.heap, o.drawn = o.heap[:0], o.drawn[:0]
	o.restart()
}

// restart starts the ring search over the grid's current cells.
func (o *Order) restart() {
	g := o.grid
	o.gen = g.gen
	o.cx, o.cy = g.cellOf(o.target)
	o.ring, o.lo2, o.done = 0, -1, g.head == nil
	o.slack = g.slack(o.target)
}

// searchRing heaps the sites of the next ring of cells around the
// start cell and raises lo2 past it.
func (o *Order) searchRing() {
	g := o.grid
	r := o.ring
	o.ring++
	x0, x1, y0, y1 := o.cx-r, o.cx+r, o.cy-r, o.cy+r
	for iy := max(y0, 0); iy <= min(y1, g.ny-1); iy++ {
		if iy == y0 || iy == y1 {
			for ix := max(x0, 0); ix <= min(x1, g.nx-1); ix++ {
				o.searchCell(iy*g.nx + ix)
			}
			continue
		}
		if x0 >= 0 {
			o.searchCell(iy*g.nx + x0)
		}
		if x1 < g.nx {
			o.searchCell(iy*g.nx + x1)
		}
	}
	gap := g.ringBound(o.target, x0, x1, y0, y1)
	if math.IsInf(gap, 1) {
		o.done = true
	} else if lo := gap - o.slack; lo > 0 {
		o.lo2 = lo * lo * (1 - 1e-12)
	}
}

// searchCell heaps the order's sites in grid cell c. A site that comes
// before the last drawn one was drawn already (only a rebuild between
// draws makes a search meet one).
func (o *Order) searchCell(c int) {
	g := o.grid
	for j := g.head[c]; j >= 0; j = g.next[j] {
		if j >= o.n {
			continue
		}
		s := g.sites[j]
		sd := siteDist{site: s, d2: s.Loc.Dist2(o.target), idx: j}
		if sd.d2 < geom.Eps*geom.Eps {
			continue
		}
		if n := len(o.drawn); n > 0 && !o.drawn[n-1].before(&sd) {
			continue
		}
		o.heap = append(o.heap, sd)
		siftUpSite(o.heap, len(o.heap)-1)
	}
}

// Insert adds bisector cuts between the target and the order's sites
// into c, using the distance-ordered pruning rule described at
// BuildFromSites, and returns the number of cuts that changed the
// region. Into a complex with no cut registered it is, bit for bit,
// InsertSites(c, target, sites) for the sites o was Reset with (or,
// after ResetGrid, the grid's sites at that call).
//
// In-batch duplicate keys are skipped in O(1) when identical
// duplicates come out back-to-back (equal distance, equal key); any
// exotic same-key stragglers are absorbed by AddCut's own key registry.
func (o *Order) Insert(c *Complex) int {
	changed := 0
	maxDist := c.MaxDistFrom(o.target)
	lastKey := int64(math.MinInt64)
	for i := 0; ; i++ {
		reach := 2*maxDist + geom.Eps
		if i == len(o.drawn) && !o.draw(reach*reach) {
			break
		}
		sd := o.drawn[i]
		if sd.d2 > reach*reach {
			break
		}
		if sd.site.Key == lastKey {
			continue // in-batch duplicate
		}
		lastKey = sd.site.Key
		if c.AddCut(Cut{Line: geom.Bisector(o.target, sd.site.Loc), Key: sd.site.Key}) {
			changed++
			maxDist = c.MaxDistFrom(o.target)
		}
	}
	return changed
}

// draw moves the next site to the end of the drawn prefix, reporting
// false when none is left within squared distance limit2 (no site
// beyond it is drawn).
func (o *Order) draw(limit2 float64) bool {
	if o.grid != nil {
		if o.gen != o.grid.gen {
			o.heap = o.heap[:0]
			o.restart()
		}
		// Search rings until the nearest candidate is certified (no
		// unsearched site can come before it) or lies past limit2.
		for !o.done && (len(o.heap) == 0 || o.heap[0].d2 > o.lo2) {
			if o.lo2 > limit2 {
				return false
			}
			o.searchRing()
		}
	}
	n := len(o.heap)
	if n == 0 || o.heap[0].d2 > limit2 {
		return false
	}
	o.drawn = append(o.drawn, o.heap[0])
	o.heap[0] = o.heap[n-1]
	o.heap = o.heap[:n-1]
	siftDownSite(o.heap, 0)
	return true
}

// orderPool holds InsertSites' working sets. Pooled package-wide (not
// per complex) so one-shot BuildFromSites callers reach steady state
// too; sync.Pool keeps concurrent estimator workers from contending.
var orderPool = sync.Pool{New: func() any { return new(Order) }}

// InsertSites adds bisector cuts between target and each site into an
// existing complex, using the distance-ordered pruning rule described
// at BuildFromSites. Sites whose Key is already registered or that
// coincide with the target within Eps are filtered out up front;
// duplicate keys within the batch itself are eliminated during the
// distance-ordered consumption (see Order.Insert). No per-batch map is
// built — hashing every site cost more than the duplicates it saved
// (ground-truth ring gathering calls this with thousands of small,
// dup-free batches). The working set comes from a package-level pool
// and is reused across calls. It returns the number of cuts that
// changed the region.
func InsertSites(c *Complex, target geom.Point, sites []Site) int {
	o := orderPool.Get().(*Order)
	o.reset(target, sites, c)
	changed := o.Insert(c)
	orderPool.Put(o)
	return changed
}

// heapifySites arranges s as a binary min-heap on (d2, idx).
func heapifySites(s []siteDist) {
	for i := len(s)/2 - 1; i >= 0; i-- {
		siftDownSite(s, i)
	}
}

// siftDownSite restores the min-heap property below index i.
func siftDownSite(s []siteDist, i int) {
	for {
		l := 2*i + 1
		if l >= len(s) {
			return
		}
		least := l
		if r := l + 1; r < len(s) && s[r].before(&s[l]) {
			least = r
		}
		if !s[least].before(&s[i]) {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// siftUpSite restores the min-heap property above index i.
func siftUpSite(s []siteDist, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(&s[p]) {
			return
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}
