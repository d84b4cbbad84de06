package geom

import "math/rand"

// RandomInRect returns a point drawn uniformly at random from r.
func RandomInRect(rng *rand.Rand, r Rect) Point {
	return Point{
		X: r.Min.X + rng.Float64()*r.Width(),
		Y: r.Min.Y + rng.Float64()*r.Height(),
	}
}

// RandomInPolygon returns a point drawn uniformly at random from the
// convex polygon. It fan-triangulates the polygon from its first vertex,
// selects a triangle with probability proportional to its area, and
// samples uniformly within it. Returns the centroid for degenerate
// polygons.
func RandomInPolygon(rng *rand.Rand, poly Polygon) Point {
	n := len(poly)
	if n == 0 {
		return Point{}
	}
	if n < 3 {
		return poly[0]
	}
	// Triangle areas of the fan (poly[0], poly[i], poly[i+1]).
	total := 0.0
	areas := make([]float64, n-2)
	for i := 1; i < n-1; i++ {
		a := poly[i].Sub(poly[0]).Cross(poly[i+1].Sub(poly[0])) / 2
		if a < 0 {
			a = -a
		}
		areas[i-1] = a
		total += a
	}
	if total < Eps {
		return poly.Centroid()
	}
	target := rng.Float64() * total
	idx := 0
	for ; idx < len(areas)-1; idx++ {
		if target < areas[idx] {
			break
		}
		target -= areas[idx]
	}
	return randomInTriangle(rng, poly[0], poly[idx+1], poly[idx+2])
}

// randomInTriangle returns a point uniform in triangle (a, b, c) using
// the standard square-root barycentric construction.
func randomInTriangle(rng *rand.Rand, a, b, c Point) Point {
	r1 := rng.Float64()
	r2 := rng.Float64()
	if r1+r2 > 1 {
		r1, r2 = 1-r1, 1-r2
	}
	return a.Add(b.Sub(a).Scale(r1)).Add(c.Sub(a).Scale(r2))
}
