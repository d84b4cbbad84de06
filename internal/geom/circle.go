package geom

import "math"

// Circle is a circle (or closed disk, depending on the predicate used)
// with the given center and radius.
type Circle struct {
	Center Point
	R      float64
}

// Contains reports whether p lies in the closed disk.
func (c Circle) Contains(p Point) bool {
	return c.Center.Dist2(p) <= (c.R+Eps)*(c.R+Eps)
}

// ContainsStrict reports whether p lies strictly inside the open disk by
// more than margin.
func (c Circle) ContainsStrict(p Point, margin float64) bool {
	r := c.R - margin
	if r <= 0 {
		return false
	}
	return c.Center.Dist2(p) < r*r
}

// Area returns the disk area.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// BoundaryPoint returns the point on the circle at the given angle.
func (c Circle) BoundaryPoint(angle float64) Point {
	s, cos := math.Sincos(angle)
	return Point{c.Center.X + c.R*cos, c.Center.Y + c.R*s}
}

// DiskUnionCoversCircle reports whether the boundary circle of target is
// covered by the union of the given disks, decided by testing samples
// equally spaced boundary points with the given safety margin (each
// sample must be at least margin inside some disk).
//
// This implements the lower-bound region test of §3.2.4: a query point q
// provably lies inside the Voronoi cell of tuple t when the circle
// C(q, |q−t|) is covered by the union of circles C(v, |v−t|) over
// confirmed vertices v (every tuple location inside any C(v,·) has been
// observed; for the top-1 cell those disks are empty of tuples).
//
// The sampled test is an approximation of exact circle-union coverage:
// with a positive margin it is sound except for coverage gaps narrower
// than the sampling pitch; internal/core uses it only to skip
// Monte-Carlo confirmation queries, with a conservative default margin.
func DiskUnionCoversCircle(disks []Circle, target Circle, samples int, margin float64) bool {
	if len(disks) == 0 || samples <= 0 {
		return false
	}
	step := 2 * math.Pi / float64(samples)
	for i := 0; i < samples; i++ {
		p := target.BoundaryPoint(float64(i) * step)
		covered := false
		for _, d := range disks {
			if d.ContainsStrict(p, margin) {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}
