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
	heap   []siteDist // undrawn sites, a min-heap on d2
	drawn  []siteDist // drawn sites, in consumption order
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
	changed := 0
	maxDist := c.MaxDistFrom(o.target)
	lastKey := int64(math.MinInt64)
	for i := 0; i < len(o.drawn) || o.draw(); i++ {
		sd := o.drawn[i]
		reach := 2*maxDist + geom.Eps
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
