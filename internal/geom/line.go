package geom

import (
	"fmt"
	"math"
)

// Line is an (infinite) line in implicit form A·x + B·y = C with the
// normal vector (A, B) normalized to unit length. The normal orientation
// distinguishes the two half-planes bounded by the line: the "negative"
// side {A·x + B·y ≤ C} and the "positive" side.
type Line struct {
	A, B, C float64
}

// LineThrough returns the line through two distinct points p and q. The
// normal points to the left of the direction p→q. It panics if the
// points coincide within Eps, which always indicates a caller bug.
func LineThrough(p, q Point) Line {
	d := q.Sub(p)
	n := d.Norm()
	if n < Eps {
		panic(fmt.Sprintf("geom: LineThrough with coincident points %v, %v", p, q))
	}
	// Normal = direction rotated −90° so that the left side is positive.
	a, b := -d.Y/n, d.X/n
	return Line{A: a, B: b, C: a*p.X + b*p.Y}
}

// Eval returns A·x + B·y − C, the signed distance of p from the line
// (positive on the normal side).
func (l Line) Eval(p Point) float64 { return l.A*p.X + l.B*p.Y - l.C }

// Dist returns the unsigned distance from p to the line.
func (l Line) Dist(p Point) float64 { return math.Abs(l.Eval(p)) }

// Normal returns the unit normal (A, B).
func (l Line) Normal() Point { return Point{l.A, l.B} }

// Direction returns a unit vector along the line (normal rotated 90°).
func (l Line) Direction() Point { return Point{-l.B, l.A} }

// Project returns the orthogonal projection of p onto the line.
func (l Line) Project(p Point) Point {
	d := l.Eval(p)
	return Point{p.X - d*l.A, p.Y - d*l.B}
}

// Reflect returns p mirrored across the line. Reflection is the key
// operation of the LNR tuple-position computation (§4.3): reflecting the
// hidden tuple t across the Voronoi edge B(t, t') yields t'.
func (l Line) Reflect(p Point) Point {
	d := l.Eval(p)
	return Point{p.X - 2*d*l.A, p.Y - 2*d*l.B}
}

// Intersect returns the intersection point of two lines and whether one
// exists (false for parallel lines within tolerance).
func (l Line) Intersect(m Line) (Point, bool) {
	det := l.A*m.B - l.B*m.A
	if math.Abs(det) < Eps {
		return Point{}, false
	}
	return Point{
		X: (l.C*m.B - l.B*m.C) / det,
		Y: (l.A*m.C - l.C*m.A) / det,
	}, true
}

// Flip returns the same geometric line with the normal reversed.
func (l Line) Flip() Line { return Line{A: -l.A, B: -l.B, C: -l.C} }

// EvalRange returns the minimum and maximum of l.Eval over rectangle r
// in O(1): the extrema of a linear function over a box are attained at
// the corners selected by the signs of the normal components. It is the
// fast-reject primitive of cell-complex cut insertion: a face whose
// bounding box evaluates entirely on one side of a cut cannot be split
// by it.
func (l Line) EvalRange(r Rect) (lo, hi float64) {
	if l.A >= 0 {
		lo, hi = l.A*r.Min.X, l.A*r.Max.X
	} else {
		lo, hi = l.A*r.Max.X, l.A*r.Min.X
	}
	if l.B >= 0 {
		lo, hi = lo+l.B*r.Min.Y, hi+l.B*r.Max.Y
	} else {
		lo, hi = lo+l.B*r.Max.Y, hi+l.B*r.Min.Y
	}
	return lo - l.C, hi - l.C
}

// HalfPlane returns the half-plane on the negative side of l
// ({p : l.Eval(p) ≤ 0}).
func (l Line) HalfPlane() HalfPlane { return HalfPlane{Line: l} }

// String implements fmt.Stringer.
func (l Line) String() string {
	return fmt.Sprintf("%.6g·x + %.6g·y = %.6g", l.A, l.B, l.C)
}

// HalfPlane is the closed set of points on the negative side of its
// boundary line: {p : A·x + B·y ≤ C}.
type HalfPlane struct {
	Line Line
}

// Contains reports whether p lies in the half-plane (closed, with Eps
// slack toward inclusion so that boundary points are kept).
func (h HalfPlane) Contains(p Point) bool { return h.Line.Eval(p) <= Eps }

// ContainsStrict reports whether p lies strictly inside the half-plane
// by more than Eps.
func (h HalfPlane) ContainsStrict(p Point) bool { return h.Line.Eval(p) < -Eps }

// Bisector returns the perpendicular bisector of segment (a, b) as a
// Line whose negative side is the set of points at least as close to a
// as to b. It panics if a and b coincide within Eps.
//
// This is the fundamental object of both algorithms: every edge of a
// (top-k) Voronoi cell of tuple t is a piece of Bisector(t, t') for some
// other tuple t'.
func Bisector(a, b Point) Line {
	d := b.Sub(a)
	n := d.Norm()
	if n < Eps {
		panic(fmt.Sprintf("geom: Bisector of coincident points %v, %v", a, b))
	}
	// |p−a|² ≤ |p−b|²  ⇔  2(b−a)·p ≤ |b|²−|a|²  ⇔  (d/|d|)·p ≤ (|b|²−|a|²)/(2|d|)
	return Line{
		A: d.X / n,
		B: d.Y / n,
		C: (b.Norm2() - a.Norm2()) / (2 * n),
	}
}

// RayRectExit returns the point where the ray from origin along dir
// (unit not required) leaves rect, and whether the ray (starting inside
// rect) exits at all. Used to anchor the LNR binary search: the search
// interval runs from the interior anchor c1 to the bounding-box exit cb.
func RayRectExit(origin, dir Point, rect Rect) (Point, bool) {
	if dir.Norm() < Eps {
		return Point{}, false
	}
	best := math.Inf(1)
	// Solve origin + t·dir hitting each of the four box sides, t > 0.
	consider := func(t float64) {
		if t > Eps && t < best {
			p := origin.Add(dir.Scale(t))
			if rect.Expand(Eps).Contains(p) {
				best = t
			}
		}
	}
	if math.Abs(dir.X) > Eps {
		consider((rect.Min.X - origin.X) / dir.X)
		consider((rect.Max.X - origin.X) / dir.X)
	}
	if math.Abs(dir.Y) > Eps {
		consider((rect.Min.Y - origin.Y) / dir.Y)
		consider((rect.Max.Y - origin.Y) / dir.Y)
	}
	if math.IsInf(best, 1) {
		return Point{}, false
	}
	return origin.Add(dir.Scale(best)), true
}
