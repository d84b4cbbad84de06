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

// TestTopMMatchesTopKLevels generalises TestTop1MatchesTopKCountZero
// to every level, the invariant the LR estimator's level-by-level
// adaptive-h rule relies on: a top-m build from a site set is, bit for
// bit and in order, the faces with count < m of the top-k build from
// the same sites; its FaceAreaAtMost(cand) equals the top-k build's
// AreaAtMost(cand) for every cand ≤ m; and its WithK(h) for h < m
// equals the top-k build's WithK(h) in faces and Area() bits. Every
// level is checked freshly built, rebuilt in a Reset complex, and
// rebuilt in a Reset complex from one Order shared by all levels, as
// the estimator builds them.
func TestTopMMatchesTopKLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	reused := make(map[int]*Complex)
	ordered := make(map[int]*Complex)
	var order Order
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(400)
		pts := randomPoints(rng, n)
		ti := rng.Intn(n)
		sites := sitesExcept(pts, ti)
		order.Reset(pts[ti], sites)
		for _, k := range []int{3, 5, 10} {
			topk := buildFor(pts, ti, k)
			for m := 1; m < k; m++ {
				r, o := resetLevel(reused, m), resetLevel(ordered, m)
				InsertSites(r, pts[ti], sites)
				order.Insert(o)
				for _, topm := range []*Complex{buildFor(pts, ti, m), r, o} {
					checkLevelPrefix(t, trial, k, m, topm, topk)
				}
			}
		}
	}
}

// resetLevel returns levels[m] reset, creating it on first use.
func resetLevel(levels map[int]*Complex, m int) *Complex {
	c := levels[m]
	if c == nil {
		c = NewFromRect(unitBox, m)
		levels[m] = c
	} else {
		c.Reset()
	}
	return c
}

// checkLevelPrefix compares a top-m build with the top-k build from
// the same sites.
func checkLevelPrefix(t *testing.T, trial, k, m int, topm, topk *Complex) {
	t.Helper()
	if !sameFaces(topm.Faces(), topk.Faces(), m) {
		t.Fatalf("trial %d k=%d m=%d: top-m faces differ from the top-k faces below level m", trial, k, m)
	}
	for cand := 1; cand <= m; cand++ {
		got, want := topm.FaceAreaAtMost(cand), topk.AreaAtMost(cand)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d k=%d m=%d: FaceAreaAtMost(%d) %v vs top-k AreaAtMost %v", trial, k, m, cand, got, want)
		}
	}
	for h := 1; h < m; h++ {
		got, want := topm.WithK(h), topk.WithK(h)
		if got.K() != h || !sameFaces(got.Faces(), want.Faces(), h) {
			t.Fatalf("trial %d k=%d m=%d: WithK(%d) faces differ", trial, k, m, h)
		}
		if math.Float64bits(got.Area()) != math.Float64bits(want.Area()) {
			t.Fatalf("trial %d k=%d m=%d: WithK(%d) Area %v vs %v", trial, k, m, h, got.Area(), want.Area())
		}
	}
}

// sameFaces reports whether got is, bit for bit and in order, the
// faces of ref with count < level.
func sameFaces(got, ref []Face, level int) bool {
	i := 0
	for _, f := range ref {
		if f.Count >= level {
			continue
		}
		if i >= len(got) || got[i].Count != f.Count || !samePoly(got[i].Poly, f.Poly) ||
			math.Float64bits(got[i].Area()) != math.Float64bits(f.Area()) {
			return false
		}
		i++
	}
	return i == len(got)
}
