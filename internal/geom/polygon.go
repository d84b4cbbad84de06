package geom

import "math"

// Polygon is a convex polygon stored as its vertices in counter-clockwise
// order. The zero value (nil) represents the empty region.
//
// All polygon code in this package assumes convexity; the cell package
// composes convex pieces into possibly-concave top-k Voronoi cells.
type Polygon []Point

// Area returns the (non-negative) area via the shoelace formula.
func (poly Polygon) Area() float64 {
	if len(poly) < 3 {
		return 0
	}
	var s float64
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		s += p.Cross(q)
	}
	return math.Abs(s) / 2
}

// SignedArea returns the shoelace area, positive for counter-clockwise
// orientation.
func (poly Polygon) SignedArea() float64 {
	if len(poly) < 3 {
		return 0
	}
	var s float64
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		s += p.Cross(q)
	}
	return s / 2
}

// Centroid returns the area centroid of the polygon. For degenerate
// polygons (< 3 vertices or ~zero area) it returns the vertex average.
func (poly Polygon) Centroid() Point {
	if len(poly) == 0 {
		return Point{}
	}
	a := poly.SignedArea()
	if math.Abs(a) < Eps {
		var c Point
		for _, p := range poly {
			c = c.Add(p)
		}
		return c.Scale(1 / float64(len(poly)))
	}
	var cx, cy float64
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		w := p.Cross(q)
		cx += (p.X + q.X) * w
		cy += (p.Y + q.Y) * w
	}
	return Point{cx / (6 * a), cy / (6 * a)}
}

// Contains reports whether p lies inside the convex polygon (closed,
// with Eps slack). Vertices must be in CCW order.
func (poly Polygon) Contains(p Point) bool {
	if len(poly) < 3 {
		return false
	}
	for i, a := range poly {
		b := poly[(i+1)%len(poly)]
		if b.Sub(a).Cross(p.Sub(a)) < -Eps*(1+a.Dist(b)) {
			return false
		}
	}
	return true
}

// Clip returns the part of the polygon inside half-plane h
// (Sutherland–Hodgman against a single edge). The result is nil when the
// intersection is empty or degenerate (area below Eps).
func (poly Polygon) Clip(h HalfPlane) Polygon {
	inside, _ := poly.Split(h.Line)
	return inside
}

// Split cuts the polygon by line l and returns the two convex pieces:
// neg = part on the negative side of l (l.Eval ≤ 0) and pos = part on
// the positive side. Either piece may be nil when (nearly) empty.
// Degenerate slivers with area < Eps are discarded; their area is at
// most Eps and is irrecoverably attributed to neither side, which the
// estimation algorithms tolerate (the bounding regions involved have
// areas many orders of magnitude above Eps).
func (poly Polygon) Split(l Line) (neg, pos Polygon) {
	neg, pos, _ = poly.SplitInto(l, nil, nil)
	return neg, pos
}

// SplitInto is Split with caller-provided storage: when the cut crosses
// the polygon, the two pieces are appended into negBuf[:0] and
// posBuf[:0] (whose capacity is reused; nil buffers degrade to fresh
// allocations) and crossed is true. When the polygon lies entirely on
// one side of the line (within Eps), the polygon itself is returned on
// that side with the buffers untouched and crossed = false, so callers
// can keep the original without copying.
//
// The returned pieces alias the buffers; they remain valid only until
// the buffers' next reuse. Steady-state cut insertion in internal/cell
// draws the buffers from a per-complex pool, making refinement
// allocation-free.
func (poly Polygon) SplitInto(l Line, negBuf, posBuf Polygon) (neg, pos Polygon, crossed bool) {
	n := len(poly)
	if n < 3 {
		return nil, nil, false
	}
	anyNeg, anyPos := false, false
	for _, p := range poly {
		e := l.Eval(p)
		if e < -Eps {
			anyNeg = true
		} else if e > Eps {
			anyPos = true
		}
		if anyNeg && anyPos {
			break
		}
	}
	if !anyPos {
		return poly, nil, false
	}
	if !anyNeg {
		return nil, poly, false
	}
	neg = negBuf[:0]
	pos = posBuf[:0]
	ea := l.Eval(poly[0])
	for i := 0; i < n; i++ {
		a := poly[i]
		b := poly[(i+1)%n]
		eb := l.Eval(b)
		switch {
		case ea <= Eps && ea >= -Eps: // a on line: belongs to both
			neg = append(neg, a)
			pos = append(pos, a)
		case ea < 0:
			neg = append(neg, a)
		default:
			pos = append(pos, a)
		}
		// Crossing edge (strictly opposite signs)?
		if (ea < -Eps && eb > Eps) || (ea > Eps && eb < -Eps) {
			t := ea / (ea - eb)
			x := a.Lerp(b, t)
			neg = append(neg, x)
			pos = append(pos, x)
		}
		ea = eb
	}
	neg = neg.dedupeInPlace()
	pos = pos.dedupeInPlace()
	if neg.Area() < Eps {
		neg = nil
	}
	if pos.Area() < Eps {
		pos = nil
	}
	return neg, pos, true
}

// dedupeInPlace removes consecutive (and wrap-around) duplicate
// vertices, writing through the receiver's storage; the receiver must
// own its backing array. Fewer than three distinct vertices is nil.
func (poly Polygon) dedupeInPlace() Polygon {
	if len(poly) == 0 {
		return nil
	}
	out := poly[:0]
	for _, p := range poly {
		if len(out) == 0 || !out[len(out)-1].ApproxEq(p, Eps) {
			out = append(out, p)
		}
	}
	for len(out) > 1 && out[0].ApproxEq(out[len(out)-1], Eps) {
		out = out[:len(out)-1]
	}
	if len(out) < 3 {
		return nil
	}
	return out
}

// BoundingRect returns the axis-aligned bounding rectangle of the polygon.
func (poly Polygon) BoundingRect() Rect { return BoundingRect(poly) }

// MaxDistFrom returns the maximum Euclidean distance from p to any point
// of the (convex) polygon; the maximum is attained at a vertex. Used for
// pruning which bisectors can still affect a tentative Voronoi cell.
func (poly Polygon) MaxDistFrom(p Point) float64 {
	var m float64
	for _, v := range poly {
		if d := p.Dist(v); d > m {
			m = d
		}
	}
	return m
}

// Clone returns a deep copy of the polygon.
func (poly Polygon) Clone() Polygon {
	if poly == nil {
		return nil
	}
	out := make(Polygon, len(poly))
	copy(out, poly)
	return out
}
