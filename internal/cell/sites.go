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
// distance, so the sort comparator does no arithmetic.
type siteDist struct {
	site Site
	d2   float64
}

// Order is a target's sites in the order InsertSites consumes them:
// increasing distance from the target, drawn lazily from one binary
// heap, so equidistant sites always come out in the same order. Several
// builds from one site set share one filtering pass and one heapify:
// each Insert walks the sites drawn so far and draws more only past
// their end. The LR estimator's adaptive-h rule builds the top-1,
// top-2, top-4, … complexes of one target from one Order. The zero
// value is an empty order; Reset reuses its storage.
type Order struct {
	target geom.Point
	heap   []siteDist      // undrawn sites, a min-heap on d2
	drawn  []siteDist      // drawn sites, in consumption order
	clip   [2]geom.Polygon // square-clip scratch of the area lower bound
}

// Reset makes o the order of sites around target, dropping sites that
// coincide with the target within Eps.
func (o *Order) Reset(target geom.Point, sites []Site) { o.reset(target, sites, nil) }

// reset is Reset that also drops the sites whose Key c has registered.
func (o *Order) reset(target geom.Point, sites []Site, c *Complex) {
	o.target = target
	o.heap, o.drawn = o.heap[:0], o.drawn[:0]
	for _, s := range sites {
		d2 := s.Loc.Dist2(target)
		if d2 < geom.Eps*geom.Eps || (c != nil && c.HasCut(s.Key)) {
			continue
		}
		o.heap = append(o.heap, siteDist{site: s, d2: d2})
	}
	// Lazy distance ordering: the pruning rule usually stops after the
	// nearest handful of sites, so a heapify + pop loop beats a full
	// sort of the batch (O(n + m log n) for m consumed sites).
	heapifySites(o.heap)
}

// Insert adds bisector cuts between the target and the order's sites
// into c, using the distance-ordered pruning rule described at
// BuildFromSites, and returns the number of cuts that changed the
// region. Into a complex with no cut registered it is, bit for bit,
// InsertSites(c, target, sites) for the sites o was Reset with.
//
// In-batch duplicate keys are skipped in O(1) when identical
// duplicates come out back-to-back (equal distance, equal key); any
// exotic same-key stragglers are absorbed by AddCut's own key registry.
func (o *Order) Insert(c *Complex) int {
	changed, _ := o.insert(c, nil)
	return changed
}

// InsertExceeds is Insert into a top-1 complex that stops early,
// reporting true, once it has proved that the finished build's Area()
// exceeds a (see Top-1 area lower bound below). When it reports false
// it has run to completion and c is, bit for bit, what Insert builds.
// After an early stop c holds the cuts of the sites consumed so far,
// and Insert resumes it into, bit for bit, the complete build: the
// resumed walk re-visits those sites, whose keys are all registered,
// and continues from the first unconsumed one.
//
// # Top-1 area lower bound
//
// Sites are consumed in increasing distance. Before a site at distance
// d is consumed, every site still to come is at least d from the
// target, so its bisector stays out of the open disk B(target, d/2):
// the finished top-1 cell contains the current region ∩ B(target, d/2),
// and so the current region ∩ S, S the axis-aligned square of
// half-side d/(2√2) centred on the target. The region is one convex
// face, so area(region ∩ S) is one polygon clip.
//
// The computed build can fall short of that exact area: a cut keeps
// the region up to Eps of its line (a strip of width ≤ 2·Eps, so area
// ≤ 2·Eps·diag(bound) per cut) and drops a sliver piece below Eps, and
// the incremental Area() and the clipped polygons carry float rounding
// of a few ulps of the bound's coordinates squared per operation. The
// test therefore requires area(region ∩ S) > a·(1+1e-9) plus, for each
// of the n sites still to come (each at most one cut) and one more,
// 4·Eps·diag + Eps + 64·ε·r², r the bound's largest coordinate
// magnitude and ε the float64 machine epsilon. A lower bound inside
// that margin decides nothing and the build runs on.
func (o *Order) InsertExceeds(c *Complex, a float64) bool {
	if c.k != 1 {
		panic("cell: InsertExceeds needs a top-1 complex")
	}
	t := newAreaTest(c.bound, a)
	_, exceeds := o.insert(c, &t)
	return exceeds
}

// NearestExceeds reports whether the top-1 cell of target among sites,
// over bound, provably has an area above a by the nearest site alone:
// InsertExceeds' first test (the region is still the whole bound) made
// by one read-only scan of the sites. It leaves o's order untouched and
// uses only its scratch, so a caller can skip Reset when it settles the
// case. Sites that coincide with the target within Eps are ignored, as
// Reset drops them.
func (o *Order) NearestExceeds(bound geom.Polygon, target geom.Point, sites []Site, a float64) bool {
	d2 := math.Inf(1)
	for _, s := range sites {
		if e := s.Loc.Dist2(target); e >= geom.Eps*geom.Eps && e < d2 {
			d2 = e
		}
	}
	t := newAreaTest(bound, a)
	return o.squareExceeds(bound, bound.Area(), target, d2, t.threshold(len(sites)))
}

// insert is Insert that, given an area test, checks the top-1 lower
// bound before each site it consumes and returns exceeds = true as
// soon as the bound clears the test's threshold.
func (o *Order) insert(c *Complex, test *areaTest) (changed int, exceeds bool) {
	maxDist := c.MaxDistFrom(o.target)
	lastKey := int64(math.MinInt64)
	for i := 0; i < len(o.drawn) || o.draw(); i++ {
		sd := o.drawn[i]
		reach := 2*maxDist + geom.Eps
		if sd.d2 > reach*reach {
			break
		}
		if test != nil && len(c.faces) == 1 &&
			o.squareExceeds(c.faces[0].Poly, c.faces[0].area, o.target, sd.d2,
				test.threshold(len(o.drawn)-i+len(o.heap))) {
			return changed, true
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
	return changed, false
}

// areaTest is the threshold of the top-1 lower bound for a target area
// a over one bounding polygon (see InsertExceeds).
type areaTest struct {
	a, perCut float64
}

// newAreaTest returns the test for area a over bound: perCut is the
// margin per cut of InsertExceeds' bound, from bound's bounding box.
func newAreaTest(bound geom.Polygon, a float64) areaTest {
	box := bound.BoundingRect()
	r := max(math.Abs(box.Min.X), math.Abs(box.Max.X), math.Abs(box.Min.Y), math.Abs(box.Max.Y))
	const ulp = 0x1p-52
	return areaTest{a: a, perCut: 4*geom.Eps*box.Diagonal() + geom.Eps + 64*ulp*r*r}
}

// threshold is the area the bound must exceed with n sites to come.
func (t areaTest) threshold(n int) float64 {
	return t.a + 1e-9*t.a + float64(n+1)*t.perCut
}

// squareExceeds reports whether the convex polygon poly (of area
// polyArea) clipped to the square of half-side √d2/(2√2) centred on
// target has an area above threshold. The square's area is d2/2, so
// the clip runs only when both it and the polygon could clear it.
func (o *Order) squareExceeds(poly geom.Polygon, polyArea float64, target geom.Point, d2, threshold float64) bool {
	if polyArea <= threshold || d2/2 <= threshold {
		return false
	}
	h := math.Sqrt(d2) / (2 * math.Sqrt2)
	// Clip in coordinates relative to the target, against x ≤ h, −x ≤ h,
	// y ≤ h, −y ≤ h, ping-ponging between the two scratch buffers.
	in := o.clip[0][:0]
	for _, p := range poly {
		in = append(in, p.Sub(target))
	}
	out := o.clip[1][:0]
	for side := range 4 {
		out = clipSquareSide(out[:0], in, side, h)
		in, out = out, in
	}
	o.clip[0], o.clip[1] = in, out
	return in.Area() > threshold
}

// clipSquareSide appends to dst the part of the convex polygon src on
// the inner side of one side of the square [−h, h]²: side 0..3 keeps
// x ≤ h, −x ≤ h, y ≤ h, −y ≤ h respectively (Sutherland–Hodgman, with
// no tolerance: the bound is exact up to float rounding).
func clipSquareSide(dst, src geom.Polygon, side int, h float64) geom.Polygon {
	eval := func(p geom.Point) float64 {
		switch side {
		case 0:
			return p.X - h
		case 1:
			return -p.X - h
		case 2:
			return p.Y - h
		}
		return -p.Y - h
	}
	n := len(src)
	for i, a := range src {
		b := src[(i+1)%n]
		ea, eb := eval(a), eval(b)
		if ea <= 0 {
			dst = append(dst, a)
		}
		if (ea < 0 && eb > 0) || (ea > 0 && eb < 0) {
			dst = append(dst, a.Lerp(b, ea/(ea-eb)))
		}
	}
	return dst
}

// draw moves the nearest undrawn site to the end of the drawn prefix,
// reporting false when none is left.
func (o *Order) draw() bool {
	n := len(o.heap)
	if n == 0 {
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

// heapifySites arranges s as a binary min-heap on d2.
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
		if r := l + 1; r < len(s) && s[r].d2 < s[l].d2 {
			least = r
		}
		if s[i].d2 <= s[least].d2 {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}
