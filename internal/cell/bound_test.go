package cell

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestInsertExceedsSound checks the top-1 area lower bound behind
// Order.InsertExceeds and Order.NearestExceeds on 10⁴ targets over
// seeded uniform and clustered site sets (with co-located sites under
// distinct keys and the target's own site among them), in a unit box
// and in a continental-scale box far from the origin. A share of the
// targets sit next to the bound's corners, so the square is clipped,
// and a share are ringed by equidistant sites, so the finished cell is
// nearly the disk the square is inscribed in and an overstated square
// shows. Against thresholds spread around each target's true top-1
// area:
//   - a reported "exceeds a" holds for BuildFromSites' Area();
//   - a run that reports false is, bit for bit, Order.Insert's build
//     (faces, cut keys, Area());
//   - Insert resumed after an early stop is, bit for bit, a plain
//     Insert.
func TestInsertExceedsSound(t *testing.T) {
	boxes := []geom.Rect{unitBox, geom.NewRect(geom.Pt(-125, 24), geom.Pt(-66, 50))}
	fracs := []float64{0, 0.05, 0.5, 0.95, 1 - 1e-9, 1, 1.5}
	rng := rand.New(rand.NewSource(41))
	var order Order
	full := make(map[geom.Rect]*Complex)
	bounded := make(map[geom.Rect]*Complex)
	targets, early, nearest := 0, 0, 0
	for set := 0; targets < 10000; set++ {
		box := boxes[set%len(boxes)]
		poly := box.Polygon()
		if full[box] == nil {
			full[box], bounded[box] = New(poly, 1), New(poly, 1)
		}
		sites := testSites(rng, box, 20+rng.Intn(400), set%4 >= 2)
		for range 100 {
			targets++
			target := testTarget(rng, box, sites)
			ts := append(slices.Clip(sites), Site{Key: -1, Loc: target}) // the target's own site
			if rng.Intn(5) == 0 {
				ts = ring(rng, ts, target)
			}
			area := BuildFromSites(poly, 1, target, ts).Area()
			order.Reset(target, ts)
			want := full[box]
			want.Reset()
			order.Insert(want)
			for _, f := range fracs {
				a := f * area
				if order.NearestExceeds(poly, target, ts, a) {
					nearest++
					if area <= a {
						t.Fatalf("set %d target %v: NearestExceeds(%v) but the top-1 area is %v", set, target, a, area)
					}
				}
				// Builds from one Order need no Reset in between.
				c := bounded[box]
				c.Reset()
				if !order.InsertExceeds(c, a) {
					if !sameBuild(c, want) {
						t.Fatalf("set %d target %v a=%v: a complete InsertExceeds differs from Insert", set, target, a)
					}
					continue
				}
				early++
				if area <= a {
					t.Fatalf("set %d target %v: InsertExceeds(%v) but the top-1 area is %v", set, target, a, area)
				}
				order.Insert(c)
				if !sameBuild(c, want) {
					t.Fatalf("set %d target %v a=%v: Insert resumed after an early stop differs from Insert", set, target, a)
				}
			}
		}
	}
	// The bound must actually settle cases: every target clears a = 0
	// and most clear a small share of their area.
	t.Logf("%d targets × %d thresholds: %d settled early, %d by the nearest site", targets, len(fracs), early, nearest)
	if early < 2*targets || nearest < targets {
		t.Errorf("over %d targets × %d thresholds the bound settled %d (nearest-site scan %d)", targets, len(fracs), early, nearest)
	}
}

// ring returns sites plus 8 to 64 sites evenly spaced on a circle
// around target, half as far as its nearest other site, under fresh
// keys.
func ring(rng *rand.Rand, sites []Site, target geom.Point) []Site {
	d2 := math.Inf(1)
	for _, s := range sites {
		if e := s.Loc.Dist2(target); e > 0 && e < d2 {
			d2 = e
		}
	}
	r := math.Sqrt(d2) / 2
	m := 8 + rng.Intn(57)
	phase := rng.Float64() * 2 * math.Pi
	out := slices.Clip(sites)
	for i := range m {
		ang := phase + 2*math.Pi*float64(i)/float64(m)
		out = append(out, Site{Key: int64(1_000_000 + i), Loc: target.Add(geom.Pt(math.Cos(ang), math.Sin(ang)).Scale(r))})
	}
	return out
}

// testSites draws n sites in box, uniform or in a few tight Gaussian
// clusters, and repeats a tenth of their locations under fresh keys.
func testSites(rng *rand.Rand, box geom.Rect, n int, clustered bool) []Site {
	sites := make([]Site, 0, n+n/10)
	var centers []geom.Point
	for range 1 + rng.Intn(5) {
		centers = append(centers, geom.RandomInRect(rng, box))
	}
	sigma := 0.02 * box.Width()
	for i := range n {
		p := geom.RandomInRect(rng, box)
		if clustered {
			c := centers[rng.Intn(len(centers))]
			p = box.Clamp(geom.Pt(c.X+rng.NormFloat64()*sigma, c.Y+rng.NormFloat64()*sigma))
		}
		sites = append(sites, Site{Key: int64(i), Loc: p})
	}
	for i := range n / 10 {
		sites = append(sites, Site{Key: int64(n + i), Loc: sites[rng.Intn(n)].Loc})
	}
	return sites
}

// testTarget returns a target: a fifth next to a corner of box, a fifth
// at a site's location (sharing it with that site), the rest uniform.
func testTarget(rng *rand.Rand, box geom.Rect, sites []Site) geom.Point {
	switch rng.Intn(5) {
	case 0:
		c := box.Corners()[rng.Intn(4)]
		d := geom.Pt(rng.Float64()*box.Width(), rng.Float64()*box.Height()).Scale(1e-3)
		return box.Clamp(c.Add(geom.Pt(math.Copysign(d.X, box.Center().X-c.X), math.Copysign(d.Y, box.Center().Y-c.Y))))
	case 1:
		return sites[rng.Intn(len(sites))].Loc
	}
	return geom.RandomInRect(rng, box)
}

// sameBuild reports whether two top-1 complexes are bit for bit equal:
// faces, cut keys and Area().
func sameBuild(got, want *Complex) bool {
	return sameFaces(got.Faces(), want.Faces(), 1) &&
		slices.Equal(got.CutKeys(), want.CutKeys()) &&
		math.Float64bits(got.Area()) == math.Float64bits(want.Area())
}
