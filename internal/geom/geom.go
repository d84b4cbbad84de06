// Package geom provides the planar computational-geometry primitives that
// underpin the Voronoi-cell machinery of the LBS aggregate-estimation
// algorithms: points and vectors, lines and oriented half-planes,
// perpendicular bisectors, convex polygons with half-plane clipping,
// circles, and random sampling inside convex regions.
//
// All coordinates are float64 on a Euclidean plane. Robustness is handled
// with a single package-wide tolerance Eps; the algorithms in
// internal/core are designed so that an occasional epsilon misjudgement
// costs at most extra oracle queries, never correctness of the final
// aggregate estimate.
package geom

import (
	"fmt"
	"math"
)

// Eps is the package-wide absolute tolerance used for geometric
// predicates (point equality, sidedness, degenerate polygon areas).
const Eps = 1e-9

// Point is a location (or free vector) on the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q (vector addition).
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q (vector difference).
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Cross returns the 2-D cross product (z-component) p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point { return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2} }

// Lerp returns the point p + s·(q − p); s=0 gives p, s=1 gives q.
func (p Point) Lerp(q Point, s float64) Point {
	return Point{p.X + s*(q.X-p.X), p.Y + s*(q.Y-p.Y)}
}

// Rotate returns p rotated by angle (radians, CCW) about the origin.
func (p Point) Rotate(angle float64) Point {
	s, c := math.Sincos(angle)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

// Unit returns p normalized to unit length. The zero vector is returned
// unchanged.
func (p Point) Unit() Point {
	n := p.Norm()
	if n < Eps {
		return p
	}
	return Point{p.X / n, p.Y / n}
}

// ApproxEq reports whether p and q coincide within tol (Euclidean).
func (p Point) ApproxEq(q Point, tol float64) bool {
	return p.Dist2(q) <= tol*tol
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, the bounding box B of the paper's
// data model. Min is the lower-left corner, Max the upper-right.
type Rect struct {
	Min, Max Point
}

// NewRect constructs a Rect from any two opposite corners, normalizing
// the coordinate order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the area of r.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the centroid of r.
func (r Rect) Center() Point { return r.Min.Mid(r.Max) }

// Diagonal returns the length of r's diagonal.
func (r Rect) Diagonal() float64 { return r.Min.Dist(r.Max) }

// Contains reports whether p lies inside r (closed).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

// Corners returns the four corners of r in counter-clockwise order
// starting at Min.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		r.Min,
		{r.Max.X, r.Min.Y},
		r.Max,
		{r.Min.X, r.Max.Y},
	}
}

// Polygon returns r as a counter-clockwise convex polygon.
func (r Rect) Polygon() Polygon {
	c := r.Corners()
	return Polygon{c[0], c[1], c[2], c[3]}
}

// Expand returns r grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	return Rect{
		Min: Point{r.Min.X - margin, r.Min.Y - margin},
		Max: Point{r.Max.X + margin, r.Max.Y + margin},
	}
}

// Intersect returns the overlap of r and s and whether it is non-empty.
func (r Rect) Intersect(s Rect) (Rect, bool) {
	out := Rect{
		Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
		Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
	}
	if out.Min.X > out.Max.X || out.Min.Y > out.Max.Y {
		return Rect{}, false
	}
	return out, true
}

// BoundingRect returns the smallest Rect containing all pts. It returns
// a zero Rect if pts is empty.
func BoundingRect(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}
