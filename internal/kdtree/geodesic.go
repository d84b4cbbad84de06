// Geodesic (great-circle) search over the same tree. The tree shape
// is metric-independent — it partitions raw coordinates — so the
// Haversine mode reuses the structure and only changes how candidate
// distances and splitting-plane lower bounds are computed:
//
//   - latitude planes (axis 1) bound the distance to the far subtree
//     by the pure latitude separation R·|Δφ| (hav ≥ sin²(Δφ/2));
//   - longitude planes (axis 0) bound it by the circular separation of
//     the query longitude from the far side's longitude interval
//     ([plane, maxX] or [minX, plane] — build-time extents), scaled by
//     √(cos φ_q · cos φ_floor) where φ_floor is the data set's extreme
//     latitude. A lune that wraps past the antimeridian or data beyond
//     the poles degrade the bound to 0 (never prune) — conservative,
//     never wrong.
//
// Both bounds are true lower bounds for every point in the pruned
// subtree (see geo.LatSepLB/LonSepLB), so the search is exact: pinned
// against brute force in geodesic_test.go. The Euclidean entry points
// in kdtree.go are deliberately untouched — metric dispatch happens
// here, and Euclidean callers keep their bit-identical fast path.
package kdtree

import (
	"repro/internal/geo"
	"repro/internal/geom"
)

// KNNWithinMetricInto is KNNWithinInto under an explicit metric.
// Euclidean delegates to the exact existing traversal (bit-identical
// results and allocation behavior); Haversine runs the geodesic
// traversal with conservative lune pruning. Neighbor.Dist is in the
// metric's unit (km for Haversine).
func (t *Tree) KNNWithinMetricInto(m geo.Metric, q geom.Point, k int, maxDist float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	if m != geo.Haversine {
		return t.KNNWithinInto(q, k, maxDist, filter, buf)
	}
	return t.knnGeodesicInto(q, k, maxDist, filter, buf)
}

// farBoundGeo computes, for the node at off with point p, the
// near/far children relative to q and a Haversine lower bound on the
// distance from q to every point of the far subtree.
func (t *Tree) farBoundGeo(n *node, p geom.Point, q geom.Point, hq geo.HaversineQuery, cosFloor float64) (near, far int32, lb float64) {
	near, far = n.left, n.right
	if n.axis == 0 {
		if q.X > p.X {
			near, far = far, near
			// Far side holds longitudes ≤ p.X.
			lb = geo.LonSepLB(q.X, hq.CosLat(), t.minX, p.X, cosFloor)
		} else {
			lb = geo.LonSepLB(q.X, hq.CosLat(), p.X, t.maxX, cosFloor)
		}
		return near, far, lb
	}
	if q.Y > p.Y {
		near, far = far, near
	}
	return near, far, geo.LatSepLB(q.Y, p.Y)
}

// knnGeodesicInto mirrors KNNWithinInto's iterative best-first
// traversal with Haversine distances and lune lower bounds in the
// pending-subtree frames. Same buffer contract, same (Dist, Index)
// result order.
func (t *Tree) knnGeodesicInto(q geom.Point, k int, maxDist float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	h := buf[:0]
	if k <= 0 || len(t.nodes) == 0 {
		return h
	}
	hq := geo.NewHaversineQuery(q)
	cosFloor := geo.CosLatFloor(-t.maxAbsY, t.maxAbsY)
	type frame struct {
		off int32
		lb  float64
	}
	var stack [maxTraversalDepth]frame
	top := 0
	off := int32(0)
	for {
		for off >= 0 {
			n := &t.nodes[off]
			p := t.pts[n.idx]
			d := hq.Dist(p)
			if d <= maxDist && (filter == nil || filter(n.idx)) {
				nb := Neighbor{Index: n.idx, Dist: d}
				if len(h) < k {
					h = append(h, nb)
					siftUpNb(h, len(h)-1)
				} else if nbWorse(h[0], nb) {
					h[0] = nb
					siftDownNb(h, 0)
				}
			}
			near, far, lb := t.farBoundGeo(n, p, q, hq, cosFloor)
			if far >= 0 {
				stack[top] = frame{off: far, lb: lb}
				top++
			}
			off = near
		}
		off = -1
		for top > 0 {
			top--
			fr := stack[top]
			if fr.lb > maxDist {
				continue
			}
			if len(h) == k && fr.lb >= h[0].Dist {
				continue
			}
			off = fr.off
			break
		}
		if off < 0 {
			break
		}
	}
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		siftDownNb(h[:i], 0)
	}
	return h
}
