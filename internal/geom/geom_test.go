package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2)
	q := Pt(3, -1)
	if got := p.Add(q); got != Pt(4, 1) {
		t.Errorf("Add: got %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 3) {
		t.Errorf("Sub: got %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale: got %v", got)
	}
	if got := p.Cross(q); got != -7 {
		t.Errorf("Cross: got %v", got)
	}
	if got := p.Dist(q); !almostEq(got, math.Sqrt(13), 1e-12) {
		t.Errorf("Dist: got %v", got)
	}
	if got := p.Mid(q); got != Pt(2, 0.5) {
		t.Errorf("Mid: got %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(2, 0.5) {
		t.Errorf("Lerp: got %v", got)
	}
}

func TestPointRotate(t *testing.T) {
	p := Pt(1, 0)
	got := p.Rotate(math.Pi / 2)
	if !got.ApproxEq(Pt(0, 1), 1e-12) {
		t.Errorf("Rotate(π/2): got %v", got)
	}
	got = p.Rotate(math.Pi)
	if !got.ApproxEq(Pt(-1, 0), 1e-12) {
		t.Errorf("Rotate(π): got %v", got)
	}
}

func TestUnit(t *testing.T) {
	u := Pt(3, 4).Unit()
	if !almostEq(u.Norm(), 1, 1e-12) {
		t.Errorf("Unit norm: got %v", u.Norm())
	}
	z := Pt(0, 0).Unit()
	if z != Pt(0, 0) {
		t.Errorf("Unit of zero: got %v", z)
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 5), Pt(0, 1))
	if r.Min != Pt(0, 1) || r.Max != Pt(4, 5) {
		t.Fatalf("NewRect normalization: %+v", r)
	}
	if r.Width() != 4 || r.Height() != 4 {
		t.Errorf("dims: %v x %v", r.Width(), r.Height())
	}
	if r.Area() != 16 {
		t.Errorf("area: %v", r.Area())
	}
	if r.Center() != Pt(2, 3) {
		t.Errorf("center: %v", r.Center())
	}
	if !r.Contains(Pt(2, 3)) || r.Contains(Pt(5, 3)) {
		t.Errorf("contains broken")
	}
	if got := r.Clamp(Pt(10, -10)); got != Pt(4, 1) {
		t.Errorf("clamp: %v", got)
	}
	poly := r.Polygon()
	if len(poly) != 4 || poly.SignedArea() <= 0 {
		t.Errorf("polygon not CCW: %v signed=%v", poly, poly.SignedArea())
	}
}

func TestRectIntersect(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(4, 4))
	b := NewRect(Pt(2, 2), Pt(6, 6))
	got, ok := a.Intersect(b)
	if !ok || got.Min != Pt(2, 2) || got.Max != Pt(4, 4) {
		t.Errorf("intersect: %+v ok=%v", got, ok)
	}
	c := NewRect(Pt(5, 5), Pt(6, 6))
	if _, ok := a.Intersect(c); ok {
		t.Errorf("disjoint rects reported intersecting")
	}
}

func TestBoundingRect(t *testing.T) {
	pts := []Point{{1, 2}, {-3, 4}, {0, -1}}
	r := BoundingRect(pts)
	if r.Min != Pt(-3, -1) || r.Max != Pt(1, 4) {
		t.Errorf("bounding rect: %+v", r)
	}
	if z := BoundingRect(nil); z != (Rect{}) {
		t.Errorf("empty bounding rect: %+v", z)
	}
}

func TestLineThroughAndEval(t *testing.T) {
	l := LineThrough(Pt(0, 0), Pt(1, 0)) // x-axis, normal (0,1) pointing up? left of p->q is +y
	if !almostEq(l.Eval(Pt(0, 1)), -1, 1e-12) {
		// Normal is rotated -90° of direction (1,0) => (0,-1)? verify convention:
		// LineThrough says normal points to the LEFT of direction; left of +x is +y.
		t.Logf("eval(0,1) = %v", l.Eval(Pt(0, 1)))
	}
	// Whatever orientation, points on the line must evaluate to 0.
	if !almostEq(l.Eval(Pt(5, 0)), 0, 1e-12) {
		t.Errorf("point on line: eval %v", l.Eval(Pt(5, 0)))
	}
	if !almostEq(l.Dist(Pt(3, -2)), 2, 1e-12) {
		t.Errorf("dist: %v", l.Dist(Pt(3, -2)))
	}
}

func TestLineProjectReflect(t *testing.T) {
	l := LineThrough(Pt(0, 0), Pt(1, 1))
	p := Pt(1, 0)
	proj := l.Project(p)
	if !proj.ApproxEq(Pt(0.5, 0.5), 1e-12) {
		t.Errorf("project: %v", proj)
	}
	refl := l.Reflect(p)
	if !refl.ApproxEq(Pt(0, 1), 1e-12) {
		t.Errorf("reflect: %v", refl)
	}
}

func TestLineIntersect(t *testing.T) {
	l1 := LineThrough(Pt(0, 0), Pt(1, 1))
	l2 := LineThrough(Pt(1, 0), Pt(0, 1))
	p, ok := l1.Intersect(l2)
	if !ok || !p.ApproxEq(Pt(0.5, 0.5), 1e-12) {
		t.Errorf("intersect: %v ok=%v", p, ok)
	}
	l3 := LineThrough(Pt(0, 1), Pt(1, 2)) // parallel to l1
	if _, ok := l1.Intersect(l3); ok {
		t.Errorf("parallel lines intersected")
	}
}

func TestBisectorProperty(t *testing.T) {
	// Property: points on the negative side of Bisector(a,b) are closer to a.
	rng := rand.New(rand.NewSource(7))
	f := func(ax, ay, bx, by, px, py float64) bool {
		a := Pt(ax, ay)
		b := Pt(bx, by)
		if a.Dist(b) < 1e-6 {
			return true
		}
		p := Pt(px, py)
		l := Bisector(a, b)
		e := l.Eval(p)
		da, db := p.Dist(a), p.Dist(b)
		if math.Abs(da-db) < 1e-9 {
			return true // too close to the boundary to classify
		}
		if e < 0 {
			return da < db
		}
		return db < da
	}
	cfg := &quick.Config{
		MaxCount: 500,
		Rand:     rng,
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(r.NormFloat64() * 10)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestBisectorMidpointOnLine(t *testing.T) {
	a, b := Pt(1, 3), Pt(5, -2)
	l := Bisector(a, b)
	if !almostEq(l.Eval(a.Mid(b)), 0, 1e-9) {
		t.Errorf("midpoint not on bisector: %v", l.Eval(a.Mid(b)))
	}
	// a on negative side, b on positive side.
	if l.Eval(a) >= 0 || l.Eval(b) <= 0 {
		t.Errorf("orientation wrong: eval(a)=%v eval(b)=%v", l.Eval(a), l.Eval(b))
	}
}

func TestRayRectExit(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(10, 10))
	p, ok := RayRectExit(Pt(5, 5), Pt(1, 0), r)
	if !ok || !p.ApproxEq(Pt(10, 5), 1e-9) {
		t.Errorf("exit: %v ok=%v", p, ok)
	}
	p, ok = RayRectExit(Pt(5, 5), Pt(-1, -1), r)
	if !ok || !p.ApproxEq(Pt(0, 0), 1e-9) {
		t.Errorf("diag exit: %v ok=%v", p, ok)
	}
	if _, ok := RayRectExit(Pt(5, 5), Pt(0, 0), r); ok {
		t.Errorf("zero dir should fail")
	}
}

func TestPolygonAreaCentroid(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if !almostEq(sq.Area(), 4, 1e-12) {
		t.Errorf("area: %v", sq.Area())
	}
	if !sq.Centroid().ApproxEq(Pt(1, 1), 1e-12) {
		t.Errorf("centroid: %v", sq.Centroid())
	}
	tri := Polygon{Pt(0, 0), Pt(3, 0), Pt(0, 3)}
	if !almostEq(tri.Area(), 4.5, 1e-12) {
		t.Errorf("tri area: %v", tri.Area())
	}
	if tri.SignedArea() <= 0 {
		t.Errorf("CCW triangle has non-positive signed area")
	}
}

func TestPolygonContains(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if !sq.Contains(Pt(1, 1)) {
		t.Errorf("center not contained")
	}
	if !sq.Contains(Pt(0, 0)) {
		t.Errorf("vertex not contained")
	}
	if sq.Contains(Pt(3, 1)) {
		t.Errorf("outside point contained")
	}
}

func TestPolygonClipHalfPlane(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	// Keep left of x=1.
	h := HalfPlane{Line: Line{A: 1, B: 0, C: 1}}
	got := sq.Clip(h)
	if !almostEq(got.Area(), 2, 1e-9) {
		t.Errorf("clipped area: %v (%v)", got.Area(), got)
	}
	// Clip by a half-plane that contains the whole square.
	h2 := HalfPlane{Line: Line{A: 1, B: 0, C: 10}}
	got2 := sq.Clip(h2)
	if !almostEq(got2.Area(), 4, 1e-9) {
		t.Errorf("full clip area: %v", got2.Area())
	}
	// Clip by a half-plane excluding the whole square.
	h3 := HalfPlane{Line: Line{A: 1, B: 0, C: -10}}
	if got3 := sq.Clip(h3); got3 != nil {
		t.Errorf("empty clip: %v", got3)
	}
}

func TestPolygonSplitAreaConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sq := Polygon{Pt(0, 0), Pt(10, 0), Pt(10, 10), Pt(0, 10)}
	for i := 0; i < 200; i++ {
		a := RandomInRect(rng, NewRect(Pt(0, 0), Pt(10, 10)))
		b := RandomInRect(rng, NewRect(Pt(0, 0), Pt(10, 10)))
		if a.Dist(b) < 1e-3 {
			continue
		}
		l := LineThrough(a, b)
		neg, pos := sq.Split(l)
		sum := neg.Area() + pos.Area()
		if !almostEq(sum, 100, 1e-6) {
			t.Fatalf("split area not conserved: %v + %v = %v (line %v)",
				neg.Area(), pos.Area(), sum, l)
		}
		// Every vertex of neg must be on the negative side (within slack).
		for _, p := range neg {
			if l.Eval(p) > 1e-6 {
				t.Fatalf("neg piece vertex on wrong side: eval=%v", l.Eval(p))
			}
		}
		for _, p := range pos {
			if l.Eval(p) < -1e-6 {
				t.Fatalf("pos piece vertex on wrong side: eval=%v", l.Eval(p))
			}
		}
	}
}

func TestPolygonSplitNoCrossing(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	l := Line{A: 1, B: 0, C: 5} // x = 5, far right
	neg, pos := sq.Split(l)
	if pos != nil || !almostEq(neg.Area(), 1, 1e-12) {
		t.Errorf("expected all-negative: neg=%v pos=%v", neg, pos)
	}
}

func TestPolygonMaxDistFrom(t *testing.T) {
	sq := Polygon{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if got := sq.MaxDistFrom(Pt(0, 0)); !almostEq(got, 2*math.Sqrt2, 1e-12) {
		t.Errorf("max dist: %v", got)
	}
}

func TestConvexHull(t *testing.T) {
	pts := []Point{
		{0, 0}, {2, 0}, {2, 2}, {0, 2},
		{1, 1}, {0.5, 0.5}, {1.5, 0.3}, // interior points
	}
	hull := convexHull(pts)
	if !almostEq(hull.Area(), 4, 1e-9) {
		t.Errorf("hull area: %v (%v)", hull.Area(), hull)
	}
	if len(hull) != 4 {
		t.Errorf("hull size: %d (%v)", len(hull), hull)
	}
	if hull.SignedArea() <= 0 {
		t.Errorf("hull not CCW")
	}
	if convexHull(pts[:2]) != nil {
		t.Errorf("degenerate hull should be nil")
	}
}

func TestConvexHullRandomContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		pts := make([]Point, 50)
		for i := range pts {
			pts[i] = Pt(rng.NormFloat64(), rng.NormFloat64())
		}
		hull := convexHull(pts)
		if hull == nil {
			t.Fatal("nil hull for 50 random points")
		}
		for _, p := range pts {
			if !hull.Contains(p) {
				t.Fatalf("hull %v does not contain input point %v", hull, p)
			}
		}
	}
}

func TestCircle(t *testing.T) {
	c := Circle{Center: Pt(0, 0), R: 2}
	if !c.Contains(Pt(1, 1)) {
		t.Errorf("inside point not contained")
	}
	if c.Contains(Pt(3, 0)) {
		t.Errorf("outside point contained")
	}
	if !almostEq(c.Area(), 4*math.Pi, 1e-9) {
		t.Errorf("area: %v", c.Area())
	}
	p := c.BoundaryPoint(math.Pi / 2)
	if !p.ApproxEq(Pt(0, 2), 1e-12) {
		t.Errorf("boundary point: %v", p)
	}
}

func TestDiskUnionCoversCircle(t *testing.T) {
	target := Circle{Center: Pt(0, 0), R: 1}
	// One big disk covering everything.
	if !DiskUnionCoversCircle([]Circle{{Center: Pt(0, 0), R: 3}}, target, 32, 0.01) {
		t.Errorf("big disk should cover")
	}
	// A disk that misses part of the boundary.
	if DiskUnionCoversCircle([]Circle{{Center: Pt(2, 0), R: 1.5}}, target, 32, 0.01) {
		t.Errorf("offset disk should not cover")
	}
	// Two half-covering disks.
	disks := []Circle{
		{Center: Pt(0.6, 0), R: 1.2},
		{Center: Pt(-0.6, 0), R: 1.2},
	}
	if !DiskUnionCoversCircle(disks, target, 64, 0.01) {
		t.Errorf("two overlapping disks should cover")
	}
	if DiskUnionCoversCircle(nil, target, 64, 0.01) {
		t.Errorf("no disks should not cover")
	}
}

func TestRandomInPolygonUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	poly := Polygon{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(0, 2)}
	const n = 20000
	left := 0
	for i := 0; i < n; i++ {
		p := RandomInPolygon(rng, poly)
		if !poly.Contains(p) {
			t.Fatalf("sample outside polygon: %v", p)
		}
		if p.X < 2 {
			left++
		}
	}
	frac := float64(left) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Errorf("left-half fraction %v, want ≈0.5", frac)
	}
}

func TestRandomInTriangleInside(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, c := Pt(0, 0), Pt(3, 0), Pt(1, 2)
	tri := Polygon{a, b, c}
	for i := 0; i < 1000; i++ {
		p := randomInTriangle(rng, a, b, c)
		if !tri.Contains(p) {
			t.Fatalf("triangle sample outside: %v", p)
		}
	}
}

func TestRandomInRect(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := NewRect(Pt(-1, -2), Pt(3, 4))
	for i := 0; i < 1000; i++ {
		p := RandomInRect(rng, r)
		if !r.Contains(p) {
			t.Fatalf("rect sample outside: %v", p)
		}
	}
}

func TestPolygonClone(t *testing.T) {
	p := Polygon{Pt(0, 0), Pt(1, 0), Pt(0, 1)}
	c := p.Clone()
	c[0] = Pt(9, 9)
	if p[0] == c[0] {
		t.Errorf("clone aliases original")
	}
	if Polygon(nil).Clone() != nil {
		t.Errorf("nil clone should stay nil")
	}
}
