package cell

import (
	"maps"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// withKReference is WithK as a plain copy into fresh storage: the faces
// with count ≤ h−1 and their in-order area sum, or for h ≥ k every face
// and the receiver's own incrementally maintained area.
func withKReference(c *Complex, h int) *Complex {
	out := &Complex{k: min(h, c.k), bound: c.bound.Clone(), cuts: maps.Clone(c.cuts)}
	for _, f := range c.faces {
		if f.Count <= out.k-1 {
			f.Poly = f.Poly.Clone()
			out.faces = append(out.faces, f)
			out.cachedArea += f.area
		}
	}
	if h >= c.k {
		out.cachedArea = c.cachedArea
	}
	return out
}

// sameComplex reports bitwise equality of two complexes: k, bound,
// faces in order, area and cut set.
func sameComplex(got, want *Complex) bool {
	return got.K() == want.K() && samePoly(got.Bound(), want.Bound()) &&
		sameFaces(got.Faces(), want.Faces(), want.K()) &&
		math.Float64bits(got.Area()) == math.Float64bits(want.Area()) &&
		maps.Equal(got.cuts, want.cuts)
}

// TestWithKIntoRecycled requires WithKInto into a recycled complex —
// last used at another k, with other cuts and faces — to equal a plain
// copy of the receiver's top-h faces bit for bit, for every h below,
// at and above the receiver's k; and ResetK on a recycled complex
// followed by InsertSites to equal a fresh build. The copy into a
// warmed destination allocates nothing.
func TestWithKIntoRecycled(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	dst := NewFromRect(unitBox, 1)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		pts := randomPoints(rng, n)
		ti := rng.Intn(n)
		for _, k := range []int{1, 3, 10} {
			src := buildFor(pts, ti, k)
			for h := 1; h <= k+1; h++ {
				if got := src.WithKInto(dst, h); got != dst || !sameComplex(dst, withKReference(src, h)) {
					t.Fatalf("trial %d k=%d: WithKInto(h=%d) differs from a plain copy", trial, k, h)
				}
			}
			dst.ResetK(k)
			InsertSites(dst, pts[ti], sitesExcept(pts, ti))
			if !sameComplex(dst, src) {
				t.Fatalf("trial %d k=%d: ResetK + InsertSites differs from a fresh build", trial, k)
			}
		}
	}
	src := buildFor(randomPoints(rng, 200), 0, 5)
	src.WithKInto(dst, 3)
	if allocs := testing.AllocsPerRun(20, func() { src.WithKInto(dst, 3) }); allocs != 0 {
		t.Errorf("WithKInto into a warmed complex allocated %v times, want 0", allocs)
	}
}

// dedupeReference is the vertex dedupe as a fresh map of bucket lists:
// a point is dropped when a kept point in the 3×3 bucket neighborhood
// lies within tol.
func dedupeReference(pts []geom.Point, tol float64) []geom.Point {
	type key struct{ x, y int64 }
	seen := make(map[key][]geom.Point)
	var out []geom.Point
	for _, p := range pts {
		kx, ky := int64(math.Floor(p.X/tol)), int64(math.Floor(p.Y/tol))
		dup := false
		for dx := int64(-1); dx <= 1 && !dup; dx++ {
			for dy := int64(-1); dy <= 1 && !dup; dy++ {
				for _, q := range seen[key{kx + dx, ky + dy}] {
					if p.ApproxEq(q, tol) {
						dup = true
						break
					}
				}
			}
		}
		if !dup {
			seen[key{kx, ky}] = append(seen[key{kx, ky}], p)
			out = append(out, p)
		}
	}
	return out
}

// TestAppendVerticesMatchesReference requires the pooled in-place
// vertex dedupe to keep exactly the points, in order, that the
// reference keeps: over random top-k complexes, appended after a
// non-empty prefix, and over point clouds packed with near-duplicates
// straddling bucket boundaries and chains of points each within tol of
// the last. A reused buffer reaches a steady state with no allocation.
func TestAppendVerticesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var buf []geom.Point
	prefix := []geom.Point{geom.Pt(-1, -1), geom.Pt(-2, -2)}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(300)
		pts := randomPoints(rng, n)
		c := buildFor(pts, rng.Intn(n), []int{1, 3, 10}[trial%3])
		var all []geom.Point
		for _, f := range c.Faces() {
			all = append(all, f.Poly...)
		}
		want := dedupeReference(all, 1e-7)
		buf = c.AppendVertices(append(buf[:0], prefix...))
		if !samePoly(buf[:len(prefix)], prefix) || !samePoly(buf[len(prefix):], want) {
			t.Fatalf("trial %d: AppendVertices kept %d points, the reference %d (or they differ)", trial, len(buf)-len(prefix), len(want))
		}
	}
	const tol = 1e-3
	for trial := 0; trial < 200; trial++ {
		pts := make([]geom.Point, 1+rng.Intn(400))
		for i := range pts {
			switch {
			case i > 0 && rng.Intn(3) == 0: // near a previous point
				q := pts[rng.Intn(i)]
				pts[i] = geom.Pt(q.X+(rng.Float64()*2-1)*1.2*tol, q.Y+(rng.Float64()*2-1)*1.2*tol)
			case i > 0 && rng.Intn(2) == 0: // chained off the last point
				pts[i] = geom.Pt(pts[i-1].X+0.9*tol, pts[i-1].Y)
			default: // on or near a bucket boundary
				pts[i] = geom.Pt(float64(rng.Intn(20))*tol+(rng.Float64()-0.5)*1e-9, float64(rng.Intn(20))*tol)
			}
		}
		want := dedupeReference(pts, tol)
		if got := dedupePoints(append([]geom.Point(nil), pts...), tol); !samePoly(got, want) {
			t.Fatalf("trial %d: dedupe kept %d of %d points, the reference %d (or they differ)", trial, len(got), len(pts), len(want))
		}
	}
	if raceEnabled {
		return // the race detector's instrumentation allocates in sync.Pool
	}
	c := buildFor(randomPoints(rng, 200), 0, 3)
	buf = c.AppendVertices(buf[:0])
	if allocs := testing.AllocsPerRun(20, func() { buf = c.AppendVertices(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendVertices into a reused buffer allocated %v times, want 0", allocs)
	}
}
