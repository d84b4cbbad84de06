package cell

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// TestTop1MatchesTopKCountZero pins the invariant the LR estimator's
// adaptive-h short-circuit relies on: building the top-1 cell from a
// site set yields, bit for bit, the count-0 face of the top-k build
// from the same sites, and its Area() equals the top-k build's
// AreaAtMost(1). Both builds consume the sites in one distance order;
// the top-1 build merely stops earlier and drops the far pieces the
// top-k build keeps at count ≥ 1. The estimator rebuilds its top-1
// cell in one reused complex, so the test does too (Reset + insert
// must equal a fresh build).
func TestTop1MatchesTopKCountZero(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	top1 := NewFromRect(unitBox, 1)
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(400)
		pts := randomPoints(rng, n)
		ti := rng.Intn(n)
		top1.Reset()
		InsertSites(top1, pts[ti], sitesExcept(pts, ti))
		for _, k := range []int{2, 5, 10} {
			topk := buildFor(pts, ti, k)
			var zero []Face
			for _, f := range topk.Faces() {
				if f.Count == 0 {
					zero = append(zero, f)
				}
			}
			got := top1.Faces()
			if len(got) != len(zero) {
				t.Fatalf("trial %d k=%d: top-1 has %d faces, top-k count-0 has %d", trial, k, len(got), len(zero))
			}
			var sum float64
			for i := range got {
				if !samePoly(got[i].Poly, zero[i].Poly) || got[i].Count != 0 {
					t.Fatalf("trial %d k=%d: face %d differs", trial, k, i)
				}
				sum += got[i].Area()
			}
			if math.Float64bits(sum) != math.Float64bits(topk.AreaAtMost(1)) {
				t.Fatalf("trial %d k=%d: top-1 face sum %v vs top-k AreaAtMost(1) %v", trial, k, sum, topk.AreaAtMost(1))
			}
			if math.Float64bits(top1.Area()) != math.Float64bits(topk.AreaAtMost(1)) {
				t.Fatalf("trial %d k=%d: top-1 Area %v vs top-k AreaAtMost(1) %v", trial, k, top1.Area(), topk.AreaAtMost(1))
			}
		}
	}
}

// sitesExcept returns every point but pts[ti] as sites keyed by index.
func sitesExcept(pts []geom.Point, ti int) []Site {
	sites := make([]Site, 0, len(pts)-1)
	for i, p := range pts {
		if i != ti {
			sites = append(sites, Site{Key: int64(i), Loc: p})
		}
	}
	return sites
}

// samePoly reports bitwise equality of two polygons' vertex lists.
func samePoly(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i].X) != math.Float64bits(b[i].X) ||
			math.Float64bits(a[i].Y) != math.Float64bits(b[i].Y) {
			return false
		}
	}
	return true
}
