package geom

import (
	"math"
	"math/rand"
	"testing"
)

// isConvexCCW reports whether poly is convex with counter-clockwise
// orientation, within Eps slack for collinear runs.
func isConvexCCW(poly Polygon) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		a, b, c := poly[i], poly[(i+1)%n], poly[(i+2)%n]
		if b.Sub(a).Cross(c.Sub(b)) < -Eps*(1+a.Dist(b)+b.Dist(c)) {
			return false
		}
	}
	return true
}

// randomConvex returns a random convex CCW polygon inside the unit box
// with up to maxV vertices (via convex hull of random points).
func randomConvex(rng *rand.Rand, maxV int) Polygon {
	for {
		pts := make([]Point, 3+rng.Intn(maxV))
		for i := range pts {
			pts[i] = Pt(rng.Float64(), rng.Float64())
		}
		if h := convexHull(pts); h != nil && h.Area() > 1e-4 {
			return h
		}
	}
}

// checkSplitInvariants asserts the Split contract: both pieces convex
// CCW, areas non-trivial, and area(neg)+area(pos) == area(input) up to
// the documented sliver loss (at most Eps per discarded piece plus
// float roundoff).
func checkSplitInvariants(t *testing.T, poly Polygon, l Line, label string) {
	t.Helper()
	neg, pos := poly.Split(l)
	total := poly.Area()
	var got float64
	for _, piece := range []Polygon{neg, pos} {
		if piece == nil {
			continue
		}
		got += piece.Area()
		if !isConvexCCW(piece) {
			t.Fatalf("%s: non-convex piece %v", label, piece)
		}
	}
	// Discarded slivers lose at most Eps of area each.
	tol := 2*Eps + 1e-9*total
	if math.Abs(got-total) > tol {
		t.Fatalf("%s: area not conserved: %.15f vs %.15f (diff %g)", label, got, total, got-total)
	}
	// Side correctness: every vertex of neg on the non-positive side,
	// of pos on the non-negative side (with interpolation slack).
	for _, p := range neg {
		if l.Eval(p) > 1e-7 {
			t.Fatalf("%s: neg vertex %v on positive side (eval %g)", label, p, l.Eval(p))
		}
	}
	for _, p := range pos {
		if l.Eval(p) < -1e-7 {
			t.Fatalf("%s: pos vertex %v on negative side (eval %g)", label, p, l.Eval(p))
		}
	}
}

// TestSplitPropertyRandom fuzzes Split with random polygons and lines.
func TestSplitPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		poly := randomConvex(rng, 9)
		a, b := Pt(rng.Float64(), rng.Float64()), Pt(rng.Float64(), rng.Float64())
		if a.Dist(b) < 1e-6 {
			continue
		}
		checkSplitInvariants(t, poly, LineThrough(a, b), "random")
	}
}

// TestSplitThroughVertex cuts exactly through one or two vertices.
func TestSplitThroughVertex(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 1000; i++ {
		poly := randomConvex(rng, 8)
		v := poly[rng.Intn(len(poly))]
		// A line through vertex v in a random direction.
		dir := Pt(rng.NormFloat64(), rng.NormFloat64())
		if dir.Norm() < 1e-6 {
			continue
		}
		checkSplitInvariants(t, poly, LineThrough(v, v.Add(dir)), "through-vertex")
		// A line through two distinct vertices (a diagonal): both
		// pieces must still partition the area exactly.
		w := poly[rng.Intn(len(poly))]
		if v.Dist(w) > 1e-6 {
			checkSplitInvariants(t, poly, LineThrough(v, w), "diagonal")
		}
	}
}

// TestSplitCollinearEdge cuts along an edge of the polygon: everything
// lies on one closed side, so the polygon must come back whole.
func TestSplitCollinearEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 1000; i++ {
		poly := randomConvex(rng, 8)
		j := rng.Intn(len(poly))
		a, b := poly[j], poly[(j+1)%len(poly)]
		if a.Dist(b) < 1e-6 {
			continue
		}
		l := LineThrough(a, b)
		neg, pos := poly.Split(l)
		one, other := neg, pos
		if one == nil {
			one, other = pos, neg
		}
		if one == nil || other != nil {
			t.Fatalf("edge-collinear cut split the polygon: neg=%v pos=%v", neg, pos)
		}
		if !almostEq(one.Area(), poly.Area(), 1e-12) {
			t.Fatalf("edge-collinear cut changed area: %g vs %g", one.Area(), poly.Area())
		}
	}
}

// TestSplitSliver cuts a distance ~Eps inside an edge: the sliver side
// must be discarded (nil), the other side keeps (almost) all the area.
func TestSplitSliver(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for i := 0; i < 500; i++ {
		poly := randomConvex(rng, 8)
		j := rng.Intn(len(poly))
		a, b := poly[j], poly[(j+1)%len(poly)]
		if a.Dist(b) < 1e-3 {
			continue
		}
		l := LineThrough(a, b)
		// Shift the cut just inside the polygon: the strip between the
		// edge and the cut has area ≈ |ab|·δ — far below Eps.
		delta := 1e-12
		shifted := Line{A: l.A, B: l.B, C: l.C + delta}
		neg, pos := poly.Split(shifted)
		pieces := 0
		var area float64
		for _, p := range []Polygon{neg, pos} {
			if p != nil {
				pieces++
				area += p.Area()
			}
		}
		if pieces != 1 {
			t.Fatalf("sliver cut produced %d pieces", pieces)
		}
		if math.Abs(area-poly.Area()) > 1e-6 {
			t.Fatalf("sliver cut lost area: %g vs %g", area, poly.Area())
		}
	}
}

// TestSplitIntoBufferReuse checks the scratch-buffer contract: results
// alias the buffers, repeated reuse stays correct and allocation-free.
func TestSplitIntoBufferReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	poly := randomConvex(rng, 8)
	l := LineThrough(Pt(0.5, 0), Pt(0.4, 1))
	var negBuf, posBuf Polygon
	neg, pos, crossed := poly.SplitInto(l, negBuf, posBuf)
	if !crossed {
		t.Skip("cut missed the polygon")
	}
	wantNeg, wantPos := neg.Clone(), pos.Clone()
	negBuf, posBuf = neg, pos
	allocs := testing.AllocsPerRun(100, func() {
		n2, p2, _ := poly.SplitInto(l, negBuf, posBuf)
		negBuf, posBuf = n2, p2
	})
	if allocs != 0 {
		t.Fatalf("SplitInto with warm buffers allocates %.1f/run, want 0", allocs)
	}
	n2, p2, _ := poly.SplitInto(l, negBuf, posBuf)
	if len(n2) != len(wantNeg) || len(p2) != len(wantPos) {
		t.Fatalf("reused-buffer result differs: %v / %v", n2, p2)
	}
	for i := range n2 {
		if !n2[i].ApproxEq(wantNeg[i], 1e-12) {
			t.Fatalf("neg vertex %d drifted", i)
		}
	}
	// One-sided cut: polygon returned unchanged, buffers untouched.
	farLine := LineThrough(Pt(-10, 0), Pt(-10, 1))
	n3, p3, crossed3 := poly.SplitInto(farLine, negBuf, posBuf)
	if crossed3 {
		t.Fatal("far line reported as crossing")
	}
	if (n3 == nil) == (p3 == nil) {
		t.Fatalf("one-sided cut returned neg=%v pos=%v", n3, p3)
	}
}

// TestSplitEvalRangeConsistency cross-checks the bbox fast-reject
// primitive against exact vertex evals.
func TestSplitEvalRangeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 2000; i++ {
		poly := randomConvex(rng, 8)
		a, b := Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5), Pt(rng.Float64()*2-0.5, rng.Float64()*2-0.5)
		if a.Dist(b) < 1e-6 {
			continue
		}
		l := LineThrough(a, b)
		lo, hi := l.EvalRange(poly.BoundingRect())
		for _, p := range poly {
			e := l.Eval(p)
			if e < lo-1e-12 || e > hi+1e-12 {
				t.Fatalf("vertex eval %g outside EvalRange [%g, %g]", e, lo, hi)
			}
		}
	}
}
