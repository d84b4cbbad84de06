package cell

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

var unitBox = geom.NewRect(geom.Pt(0, 0), geom.Pt(1, 1))

// bruteTopK reports whether target (index ti) is among the k nearest of
// pts to q — the ground-truth membership predicate.
func bruteTopK(q geom.Point, pts []geom.Point, ti, k int) bool {
	closer := 0
	dt := q.Dist2(pts[ti])
	for i, p := range pts {
		if i == ti {
			continue
		}
		if q.Dist2(p) < dt {
			closer++
		}
	}
	return closer <= k-1
}

func randomPoints(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.RandomInRect(rng, unitBox)
	}
	return pts
}

func buildFor(pts []geom.Point, ti, k int) *Complex {
	return BuildFromSites(unitBox.Polygon(), k, pts[ti], sitesExcept(pts, ti))
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New with k=0 did not panic")
		}
	}()
	New(unitBox.Polygon(), 0)
}

func TestSingleSiteFullBox(t *testing.T) {
	c := NewFromRect(unitBox, 1)
	if !almost(c.Area(), 1, 1e-12) {
		t.Errorf("empty complex area: %v", c.Area())
	}
	if c.NumFaces() != 1 || c.NumCuts() != 0 {
		t.Errorf("faces=%d cuts=%d", c.NumFaces(), c.NumCuts())
	}
	if !c.Contains(geom.Pt(0.5, 0.5)) {
		t.Errorf("center not contained")
	}
	if c.Contains(geom.Pt(2, 2)) {
		t.Errorf("outside point contained")
	}
}

func TestTwoSitesHalves(t *testing.T) {
	a := geom.Pt(0.25, 0.5)
	b := geom.Pt(0.75, 0.5)
	c := NewFromRect(unitBox, 1)
	if !c.AddCut(Cut{Line: geom.Bisector(a, b), Key: 1}) {
		t.Fatalf("cut did not change region")
	}
	if !almost(c.Area(), 0.5, 1e-9) {
		t.Errorf("half area: %v", c.Area())
	}
	if !c.Contains(geom.Pt(0.1, 0.5)) || c.Contains(geom.Pt(0.9, 0.5)) {
		t.Errorf("membership wrong after cut")
	}
	// Duplicate key ignored.
	if c.AddCut(Cut{Line: geom.Bisector(a, geom.Pt(0.9, 0.9)), Key: 1}) {
		t.Errorf("duplicate key accepted")
	}
}

func TestTopKTwoSites(t *testing.T) {
	// With k=2 and a single other site, the whole box returns the target
	// within top-2: the cut must not remove anything.
	a := geom.Pt(0.25, 0.5)
	b := geom.Pt(0.75, 0.5)
	c := NewFromRect(unitBox, 2)
	c.AddCut(Cut{Line: geom.Bisector(a, b), Key: 1})
	if !almost(c.Area(), 1, 1e-9) {
		t.Errorf("top-2 with one competitor should keep full box, area=%v", c.Area())
	}
	// But AreaAtMost(1) is the top-1 cell: half the box.
	if !almost(c.AreaAtMost(1), 0.5, 1e-9) {
		t.Errorf("AreaAtMost(1): %v", c.AreaAtMost(1))
	}
}

func TestMembershipMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		pts := randomPoints(rng, 30)
		for _, k := range []int{1, 2, 3, 5} {
			ti := rng.Intn(len(pts))
			c := buildFor(pts, ti, k)
			for probe := 0; probe < 300; probe++ {
				q := geom.RandomInRect(rng, unitBox)
				want := bruteTopK(q, pts, ti, k)
				got := c.Contains(q)
				if got != want {
					// Tolerate only near-boundary discrepancies.
					if math.Abs(kthGap(q, pts, ti, k)) > 1e-7 {
						t.Fatalf("k=%d membership mismatch at %v: got %v want %v",
							k, q, got, want)
					}
				}
			}
		}
	}
}

// kthGap returns d(q, target) − d(q, k-th nearest other point); near
// zero means q is near the cell boundary.
func kthGap(q geom.Point, pts []geom.Point, ti, k int) float64 {
	var ds []float64
	for i, p := range pts {
		if i == ti {
			continue
		}
		ds = append(ds, q.Dist(p))
	}
	sort.Float64s(ds)
	if k-1 >= len(ds) {
		return math.Inf(1)
	}
	return q.Dist(pts[ti]) - ds[k-1]
}

func TestAreaMatchesMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 40)
	for _, k := range []int{1, 2, 4} {
		ti := 7
		c := buildFor(pts, ti, k)
		area := c.Area()
		const n = 40000
		hits := 0
		for i := 0; i < n; i++ {
			q := geom.RandomInRect(rng, unitBox)
			if bruteTopK(q, pts, ti, k) {
				hits++
			}
		}
		mc := float64(hits) / n * unitBox.Area()
		se := math.Sqrt(mc*(1-mc)/n) + 1e-4
		if math.Abs(area-mc) > 5*se+0.01 {
			t.Errorf("k=%d area %v vs MC %v", k, area, mc)
		}
	}
}

func TestTopKCellsPartitionProperty(t *testing.T) {
	// Every location belongs to exactly k top-k cells, so the areas of
	// all tuples' top-k cells must sum to k·|V0|.
	rng := rand.New(rand.NewSource(31))
	pts := randomPoints(rng, 25)
	for _, k := range []int{1, 2, 3} {
		var sum float64
		for ti := range pts {
			c := buildFor(pts, ti, k)
			sum += c.Area()
		}
		want := float64(k) * unitBox.Area()
		if math.Abs(sum-want) > 1e-6 {
			t.Errorf("k=%d: cell areas sum to %v, want %v", k, sum, want)
		}
	}
}

func TestAreaAtMostMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 30)
	c := buildFor(pts, 3, 5)
	prev := 0.0
	for h := 1; h <= 5; h++ {
		a := c.AreaAtMost(h)
		if a < prev-1e-12 {
			t.Errorf("AreaAtMost not monotone at h=%d: %v < %v", h, a, prev)
		}
		prev = a
	}
	if !almost(c.AreaAtMost(5), c.Area(), 1e-12) {
		t.Errorf("AreaAtMost(k) != Area")
	}
	if !almost(c.AreaAtMost(99), c.Area(), 1e-12) {
		t.Errorf("AreaAtMost(>k) != Area")
	}
}

func TestVerticesOnRegionClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randomPoints(rng, 20)
	c := buildFor(pts, 0, 2)
	verts := c.Vertices()
	if len(verts) == 0 {
		t.Fatalf("no vertices")
	}
	for _, v := range verts {
		// Every vertex must lie in the closure of the region: the count
		// of strictly-closer competitors must be ≤ k−1 after nudging v
		// slightly toward the target (the closure's interior direction).
		nudged := v.Add(pts[0].Sub(v).Scale(1e-6))
		if !c.Contains(nudged) {
			t.Errorf("vertex %v not in region closure", v)
		}
	}
}

func TestRandomPointInsideRegion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPoints(rng, 25)
	c := buildFor(pts, 4, 2)
	for i := 0; i < 2000; i++ {
		p, ok := c.RandomPoint(rng)
		if !ok {
			t.Fatalf("sampling failed with non-empty region")
		}
		if !c.Contains(p) && c.CloserCount(p) > 1 {
			t.Fatalf("sample %v outside region (closer count %d)", p, c.CloserCount(p))
		}
	}
}

func TestRandomPointEmptyRegion(t *testing.T) {
	// Surround the target so tightly that the k=1 cell is ~ the whole
	// box minus everything — construct an actually empty region by
	// cutting with two opposing half-planes.
	c := NewFromRect(unitBox, 1)
	c.AddCut(Cut{Line: geom.Line{A: 1, B: 0, C: -1}, Key: 1}) // x ≤ −1: empty
	if c.Area() > geom.Eps {
		t.Fatalf("region should be empty, area=%v", c.Area())
	}
	if _, ok := c.RandomPoint(rand.New(rand.NewSource(1))); ok {
		t.Errorf("sampled from empty region")
	}
}

func TestReplaceCutRefines(t *testing.T) {
	a := geom.Pt(0.3, 0.5)
	c := NewFromRect(unitBox, 1)
	// A deliberately wrong cut.
	c.AddCut(Cut{Line: geom.Bisector(a, geom.Pt(0.5, 0.5)), Key: 7})
	wrong := c.Area()
	// Refine to the true competitor at (0.9, 0.5).
	c.ReplaceCut(Cut{Line: geom.Bisector(a, geom.Pt(0.9, 0.5)), Key: 7})
	if got := c.Area(); !almost(got, 0.6, 1e-9) {
		t.Errorf("after refine area=%v want 0.6 (was %v)", got, wrong)
	}
	if c.NumCuts() != 1 {
		t.Errorf("cut count after replace: %d", c.NumCuts())
	}
}

func TestCloneIndependence(t *testing.T) {
	c := NewFromRect(unitBox, 2)
	c.AddCut(Cut{Line: geom.Bisector(geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.8)), Key: 1})
	d := c.Clone()
	d.AddCut(Cut{Line: geom.Bisector(geom.Pt(0.2, 0.2), geom.Pt(0.8, 0.2)), Key: 2})
	if c.NumCuts() != 1 || d.NumCuts() != 2 {
		t.Errorf("clone not independent: %d, %d", c.NumCuts(), d.NumCuts())
	}
}

func TestConcaveTopKCell(t *testing.T) {
	// Figure-1-style configuration: a ring of sites around a center
	// produces a concave top-2 cell for an off-center site. We verify
	// concavity by finding two region points whose midpoint is outside.
	pts := []geom.Point{
		geom.Pt(0.5, 0.5),  // center site (target competitor)
		geom.Pt(0.5, 0.85), // target: A on the ring
		geom.Pt(0.83, 0.61),
		geom.Pt(0.7, 0.22),
		geom.Pt(0.3, 0.22),
		geom.Pt(0.17, 0.61),
	}
	c := buildFor(pts, 1, 2)
	if c.Area() <= 0 {
		t.Fatalf("empty top-2 cell")
	}
	rng := rand.New(rand.NewSource(9))
	concave := false
	for i := 0; i < 20000 && !concave; i++ {
		p, _ := c.RandomPoint(rng)
		q, _ := c.RandomPoint(rng)
		m := p.Mid(q)
		if !c.Contains(m) && c.CloserCount(m) > 1 {
			concave = true
		}
	}
	if !concave {
		t.Errorf("expected a concave top-2 cell in ring configuration")
	}
	// Despite concavity, the area must still match brute force MC.
	hits, n := 0, 30000
	for i := 0; i < n; i++ {
		q := geom.RandomInRect(rng, unitBox)
		if bruteTopK(q, pts, 1, 2) {
			hits++
		}
	}
	mc := float64(hits) / float64(n)
	if math.Abs(c.Area()-mc) > 0.02 {
		t.Errorf("concave cell area %v vs MC %v", c.Area(), mc)
	}
}

func TestInsertSitesPruning(t *testing.T) {
	// A distant site whose bisector cannot reach the region must be
	// pruned (not registered).
	rng := rand.New(rand.NewSource(77))
	pts := randomPoints(rng, 100)
	// Dense cluster guarantees a small cell for index 0; the pruning
	// should register far fewer than 99 cuts.
	c := buildFor(pts, 0, 1)
	if c.NumCuts() >= 99 {
		t.Errorf("no pruning occurred: %d cuts", c.NumCuts())
	}
	// Pruning must not change the region vs the unpruned construction.
	full := NewFromRect(unitBox, 1)
	for i := 1; i < len(pts); i++ {
		if pts[i].Dist(pts[0]) < geom.Eps {
			continue
		}
		full.AddCut(Cut{Line: geom.Bisector(pts[0], pts[i]), Key: int64(i)})
	}
	if math.Abs(full.Area()-c.Area()) > 1e-9 {
		t.Errorf("pruned area %v != full area %v", c.Area(), full.Area())
	}
}

func TestInsertSitesSkipsCoincident(t *testing.T) {
	target := geom.Pt(0.5, 0.5)
	c := NewFromRect(unitBox, 1)
	n := InsertSites(c, target, []Site{{Key: 1, Loc: target}})
	if n != 0 || c.NumCuts() != 0 {
		t.Errorf("coincident site not skipped: changed=%d cuts=%d", n, c.NumCuts())
	}
}

func TestCutKeysSorted(t *testing.T) {
	c := NewFromRect(unitBox, 1)
	c.AddCut(Cut{Line: geom.Bisector(geom.Pt(0.5, 0.5), geom.Pt(0.9, 0.5)), Key: 5})
	c.AddCut(Cut{Line: geom.Bisector(geom.Pt(0.5, 0.5), geom.Pt(0.1, 0.5)), Key: 2})
	keys := c.CutKeys()
	if len(keys) != 2 || keys[0] != 2 || keys[1] != 5 {
		t.Errorf("cut keys: %v", keys)
	}
	if !c.HasCut(5) || c.HasCut(99) {
		t.Errorf("HasCut broken")
	}
	if _, ok := c.CutLine(2); !ok {
		t.Errorf("CutLine(2) missing")
	}
}

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }
