package cell

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// gridTestSites returns n sites keyed by position, mixing uniform
// points, points on a lattice of exact binary fractions (so many pairs
// lie at exactly equal distance from a lattice target), repeats of
// earlier locations, and a few points outside the rest's bounding box.
func gridTestSites(rng *rand.Rand, n int) []Site {
	sites := make([]Site, n)
	for i := range sites {
		var p geom.Point
		switch r := rng.Intn(10); {
		case r < 4:
			p = geom.RandomInRect(rng, unitBox)
		case r < 8:
			p = geom.Pt(float64(rng.Intn(17))/16, float64(rng.Intn(17))/16)
		case r < 9 && i > 0:
			p = sites[rng.Intn(i)].Loc
		default:
			p = geom.Pt(rng.Float64()*6-3, rng.Float64()*6-3)
		}
		sites[i] = Site{Key: int64(i), Loc: p}
	}
	return sites
}

// explicitOrder is the order an Order must draw sites in: increasing
// squared distance from target, ties by position, with the sites that
// coincide with target dropped.
func explicitOrder(target geom.Point, sites []Site) []int32 {
	var idx []int32
	for i, s := range sites {
		if s.Loc.Dist2(target) >= geom.Eps*geom.Eps {
			idx = append(idx, int32(i))
		}
	}
	slices.SortFunc(idx, func(a, b int32) int {
		da, db := sites[a].Loc.Dist2(target), sites[b].Loc.Dist2(target)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		return int(a - b)
	})
	return idx
}

// drawAll draws every remaining site of o and returns the positions of
// all drawn sites, in draw order.
func drawAll(o *Order) []int32 {
	for o.draw(math.Inf(1)) {
	}
	idx := make([]int32, len(o.drawn))
	for i, sd := range o.drawn {
		idx[i] = sd.idx
	}
	return idx
}

// TestSiteGridOrderMatchesExplicitOrder requires an Order over a
// SiteGrid to draw exactly the (d2, insertion index) order of the
// grid's sites at ResetGrid, over histories with duplicated locations
// and exactly equidistant sites, and with sites added (and the grid
// rebuilt) between draws. Reset over the same slice must give the same
// order.
func TestSiteGridOrderMatchesExplicitOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var og, os Order
	ties := 0
	for trial := 0; trial < 300; trial++ {
		all := gridTestSites(rng, 1+rng.Intn(700))
		var g SiteGrid
		n := 1 + rng.Intn(len(all))
		for _, s := range all[:n] {
			g.Add(s)
		}
		var target geom.Point
		switch rng.Intn(4) {
		case 0:
			target = all[rng.Intn(n)].Loc
		case 1:
			target = geom.Pt(float64(rng.Intn(17))/16, float64(rng.Intn(17))/16)
		case 2:
			target = geom.Pt(rng.Float64()*10-5, rng.Float64()*10-5)
		default:
			target = geom.RandomInRect(rng, unitBox)
		}
		want := explicitOrder(target, all[:n])
		for i := 1; i < len(want); i++ {
			if all[want[i]].Loc.Dist2(target) == all[want[i-1]].Loc.Dist2(target) &&
				all[want[i]].Loc != all[want[i-1]].Loc {
				ties++
			}
		}
		og.ResetGrid(target, &g)
		// Draw a prefix, then add the rest of the sites (crossing
		// rebuilds) before drawing on.
		for range rng.Intn(len(want) + 1) {
			og.draw(math.Inf(1))
		}
		for _, s := range all[n:] {
			g.Add(s)
		}
		if got := drawAll(&og); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d of %d sites, target %v): grid order\n%v\nwant\n%v", trial, n, len(all), target, got, want)
		}
		os.Reset(target, all[:n])
		if got := drawAll(&os); !slices.Equal(got, want) {
			t.Fatalf("trial %d: slice order\n%v\nwant\n%v", trial, got, want)
		}
	}
	if ties == 0 {
		t.Fatal("no equidistant pair of distinct locations was drawn")
	}
}

// TestSiteGridInsertMatchesInsertSites requires a build from an Order
// over a SiteGrid to equal, face for face and in Area() bits, the
// InsertSites build from the grid's site slice, at every level the
// LR estimator builds.
func TestSiteGridInsertMatchesInsertSites(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var o Order
	for trial := 0; trial < 200; trial++ {
		var g SiteGrid
		for _, s := range gridTestSites(rng, 2+rng.Intn(500)) {
			g.Add(s)
		}
		target := geom.RandomInRect(rng, unitBox)
		o.ResetGrid(target, &g)
		for _, k := range []int{1, 2, 4, 10} {
			got, want := NewFromRect(unitBox, k), NewFromRect(unitBox, k)
			o.Insert(got)
			InsertSites(want, target, g.Sites())
			if !sameFaces(got.Faces(), want.Faces(), k) ||
				math.Float64bits(got.Area()) != math.Float64bits(want.Area()) {
				t.Fatalf("trial %d k=%d: grid build differs from InsertSites", trial, k)
			}
		}
	}
}

// TestSiteGridCountCloserMatchesScan requires CountCloser through the
// grid to equal the count over every site, for points inside, on and
// far outside the sites' bounding box.
func TestSiteGridCountCloserMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 200; trial++ {
		var g SiteGrid
		for _, s := range gridTestSites(rng, rng.Intn(800)) {
			g.Add(s)
		}
		for q := 0; q < 50; q++ {
			p := geom.Pt(rng.Float64()*8-4, rng.Float64()*8-4)
			if q%3 == 0 {
				p = geom.Pt(float64(rng.Intn(17))/16, float64(rng.Intn(17))/16)
			}
			target := geom.RandomInRect(rng, unitBox)
			if q%5 == 0 && g.Len() > 0 {
				target = g.Sites()[rng.Intn(g.Len())].Loc
			}
			exclude := int64(rng.Intn(g.Len() + 1))
			want := 0
			for _, s := range g.Sites() {
				if s.Key != exclude && p.Dist2(s.Loc) < p.Dist2(target) {
					want++
				}
			}
			if got := g.CountCloser(p, target, exclude); got != want {
				t.Fatalf("trial %d: CountCloser(%v, %v) = %d over %d sites, want %d", trial, p, target, got, g.Len(), want)
			}
		}
	}
}

// TestSumAreaMatchesWithK requires a top-h build whose area is
// re-summed to equal WithK(h) of a top-m build (h < m) from the same
// sites in faces and Area() bits: the LR estimator's fixed-h seed is
// built at level h this way.
func TestSumAreaMatchesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		pts := randomPoints(rng, n)
		ti := rng.Intn(n)
		for h := 1; h < 5; h++ {
			seed := buildFor(pts, ti, h)
			seed.SumArea()
			want := buildFor(pts, ti, h+1+rng.Intn(3)).WithK(h)
			if !sameFaces(seed.Faces(), want.Faces(), h) ||
				math.Float64bits(seed.Area()) != math.Float64bits(want.Area()) {
				t.Fatalf("trial %d h=%d: re-summed top-h build differs from WithK(h): area %v vs %v",
					trial, h, seed.Area(), want.Area())
			}
		}
	}
}
