package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/geom"
)

// geoPoints draws n deterministic (lon°, lat°) points: clustered
// cities inside a continental window, to make the lune pruning earn
// its keep.
func geoPoints(r *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, 0, n)
	centers := make([]geom.Point, 12)
	for i := range centers {
		centers[i] = geom.Pt(-125+r.Float64()*59, 24+r.Float64()*25)
	}
	for len(pts) < n {
		c := centers[r.Intn(len(centers))]
		p := geom.Pt(c.X+r.NormFloat64()*0.8, c.Y+r.NormFloat64()*0.5)
		if p.Y > 90 || p.Y < -90 {
			continue
		}
		pts = append(pts, p)
	}
	return pts
}

// bruteGeoKNN is the oracle: full scan, sort by (Haversine dist, index).
func bruteGeoKNN(pts []geom.Point, q geom.Point, k int, maxDist float64, filter func(int) bool) []Neighbor {
	var all []Neighbor
	for i, p := range pts {
		if filter != nil && !filter(i) {
			continue
		}
		if d := geo.HaversineDist(q, p); d <= maxDist {
			all = append(all, Neighbor{Index: i, Dist: d})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		return all[a].Index < all[b].Index
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestKNNGeodesicExact pins the geodesic kNN against brute force:
// identical indices and bit-identical distances, across k values,
// radius caps, filters and query positions (including far outside the
// data window, across the antimeridian, and at out-of-range
// latitudes).
func TestKNNGeodesicExact(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	pts := geoPoints(r, 3000)
	tree := Build(pts)
	queries := make([]geom.Point, 0, 120)
	for i := 0; i < 100; i++ {
		queries = append(queries, geom.Pt(-130+r.Float64()*70, 20+r.Float64()*32))
	}
	// Adversarial corners.
	queries = append(queries,
		geom.Pt(179, 40), geom.Pt(-179, 40), // antimeridian side
		geom.Pt(55, 40),                     // far east of the window
		geom.Pt(-95, 89), geom.Pt(-95, -89), // polar
		geom.Pt(-95, 95), geom.Pt(-95, -120), // out-of-range latitude
		geom.Pt(265, 37), // same meridian as -95, wrapped
	)
	filter := func(i int) bool { return i%3 != 0 }
	for qi, q := range queries {
		for _, k := range []int{1, 5, 32} {
			for _, maxDist := range []float64{math.Inf(1), 200, 25} {
				got := tree.KNNWithinMetricInto(geo.Haversine, q, k, maxDist, nil, nil)
				want := bruteGeoKNN(pts, q, k, maxDist, nil)
				compareNeighbors(t, "knn", qi, q, got, want)
				got = tree.KNNWithinMetricInto(geo.Haversine, q, k, maxDist, filter, nil)
				want = bruteGeoKNN(pts, q, k, maxDist, filter)
				compareNeighbors(t, "knn+filter", qi, q, got, want)
			}
		}
	}
}

// TestMetricEntryPointsEuclideanDelegate pins that the Euclidean
// metric routes to the exact existing traversal: bit-identical result
// slices, including ordering.
func TestMetricEntryPointsEuclideanDelegate(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	pts := make([]geom.Point, 500)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
	}
	tree := Build(pts)
	for i := 0; i < 50; i++ {
		q := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		a := tree.KNNWithinInto(q, 7, 300, nil, nil)
		b := tree.KNNWithinMetricInto(geo.Euclidean, q, 7, 300, nil, nil)
		if len(a) != len(b) {
			t.Fatalf("length drift %d vs %d", len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("euclidean delegate drift at %d: %+v vs %+v", j, a[j], b[j])
			}
		}
	}
}

// TestGeodesicPreorderedMatchesBuild pins that a preorder round trip
// (the store's warm-restart path) preserves geodesic results: the
// extents must be recomputed by BuildPreordered.
func TestGeodesicPreorderedMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	pts := geoPoints(r, 1500)
	tree := Build(pts)
	order := tree.PreorderIndices()
	re := make([]geom.Point, len(order))
	for i, idx := range order {
		re[i] = pts[idx]
	}
	tree2 := BuildPreordered(re)
	for i := 0; i < 40; i++ {
		q := geom.Pt(-130+r.Float64()*70, 20+r.Float64()*32)
		a := tree.KNNWithinMetricInto(geo.Haversine, q, 9, math.Inf(1), nil, nil)
		b := tree2.KNNWithinMetricInto(geo.Haversine, q, 9, math.Inf(1), nil, nil)
		if len(a) != len(b) {
			t.Fatalf("length drift %d vs %d", len(a), len(b))
		}
		for j := range a {
			// Indices differ (re-indexed by preorder); distances must
			// be bit-identical.
			if a[j].Dist != b[j].Dist {
				t.Fatalf("preordered dist drift at %d: %v vs %v", j, a[j].Dist, b[j].Dist)
			}
		}
	}
}

func compareNeighbors(t *testing.T, label string, qi int, q geom.Point, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s q#%d %v: got %d results, want %d", label, qi, q, len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Dist != want[i].Dist {
			t.Fatalf("%s q#%d %v: result %d = %+v, want %+v", label, qi, q, i, got[i], want[i])
		}
	}
}

// BenchmarkKNNGeodesic10k is the geodesic twin of BenchmarkKNN10k:
// same tree size and k, Haversine traversal with lune bounds instead
// of planar rect distance. Tracked in BENCH_geom.json next to the
// Euclidean number to keep the geodesic overhead visible.
func BenchmarkKNNGeodesic10k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := geoPoints(rng, 10000)
	tr := Build(pts)
	var buf []Neighbor
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(-125+rng.Float64()*59, 24+rng.Float64()*25)
		buf = tr.KNNWithinMetricInto(geo.Haversine, q, 10, math.Inf(1), nil, buf[:0])
	}
}
