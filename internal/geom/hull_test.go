package geom

import (
	"cmp"
	"slices"
)

// convexHull returns the convex hull of pts as a CCW polygon (Andrew's
// monotone chain), dropping collinear interior points, or nil for
// fewer than 3 effective points. The tests use it to build random
// convex polygons.
func convexHull(pts []Point) Polygon {
	if len(pts) < 3 {
		return nil
	}
	sorted := slices.Clone(pts)
	slices.SortFunc(sorted, func(a, b Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	var lower, upper []Point
	for _, p := range sorted {
		for len(lower) >= 2 && lower[len(lower)-1].Sub(lower[len(lower)-2]).Cross(p.Sub(lower[len(lower)-2])) <= Eps {
			lower = lower[:len(lower)-1]
		}
		lower = append(lower, p)
	}
	for i := len(sorted) - 1; i >= 0; i-- {
		p := sorted[i]
		for len(upper) >= 2 && upper[len(upper)-1].Sub(upper[len(upper)-2]).Cross(p.Sub(upper[len(upper)-2])) <= Eps {
			upper = upper[:len(upper)-1]
		}
		upper = append(upper, p)
	}
	hull := append(lower[:len(lower)-1], upper[:len(upper)-1]...)
	if len(hull) < 3 {
		return nil
	}
	return Polygon(hull)
}
