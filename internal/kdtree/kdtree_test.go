package kdtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
)

func randomPts(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

// bruteKNN is the reference implementation.
func bruteKNN(pts []geom.Point, q geom.Point, k int, maxDist float64, filter func(int) bool) []Neighbor {
	var all []Neighbor
	for i, p := range pts {
		d := q.Dist(p)
		if d <= maxDist && (filter == nil || filter(i)) {
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

func sameNeighbors(a, b []Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Abs(a[i].Dist-b[i].Dist) > 1e-9 {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr := Build(nil)
	if tr.Len() != 0 {
		t.Errorf("len: %d", tr.Len())
	}
	if got := tr.KNN(geom.Pt(0, 0), 3, nil); got != nil {
		t.Errorf("knn on empty: %v", got)
	}
	if got := tr.WithinRadiusUnordered(geom.Pt(0, 0), 10, nil, nil); got != nil {
		t.Errorf("within on empty: %v", got)
	}
}

func TestSinglePoint(t *testing.T) {
	tr := Build([]geom.Point{geom.Pt(1, 1)})
	got := tr.KNN(geom.Pt(0, 0), 5, nil)
	if len(got) != 1 || got[0].Index != 0 {
		t.Fatalf("knn: %v", got)
	}
	if math.Abs(got[0].Dist-math.Sqrt2) > 1e-12 {
		t.Errorf("dist: %v", got[0].Dist)
	}
}

func TestKNNMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPts(rng, 500)
	tr := Build(pts)
	for trial := 0; trial < 200; trial++ {
		q := geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10)
		k := 1 + rng.Intn(20)
		got := tr.KNN(q, k, nil)
		want := bruteKNN(pts, q, k, math.Inf(1), nil)
		if !sameNeighbors(got, want) {
			t.Fatalf("kNN mismatch (k=%d q=%v):\ngot  %v\nwant %v", k, q, got, want)
		}
	}
}

func TestKNNWithFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPts(rng, 300)
	tr := Build(pts)
	filter := func(i int) bool { return i%3 == 0 }
	for trial := 0; trial < 100; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		got := tr.KNN(q, 7, filter)
		want := bruteKNN(pts, q, 7, math.Inf(1), filter)
		if !sameNeighbors(got, want) {
			t.Fatalf("filtered kNN mismatch: got %v want %v", got, want)
		}
		for _, nb := range got {
			if nb.Index%3 != 0 {
				t.Fatalf("filter violated: %v", nb)
			}
		}
	}
}

func TestKNNWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomPts(rng, 400)
	tr := Build(pts)
	for trial := 0; trial < 100; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		r := rng.Float64() * 15
		got := tr.KNNWithinInto(q, 5, r, nil, nil)
		want := bruteKNN(pts, q, 5, r, nil)
		if !sameNeighbors(got, want) {
			t.Fatalf("radius kNN mismatch: got %v want %v", got, want)
		}
		for _, nb := range got {
			if nb.Dist > r+1e-12 {
				t.Fatalf("radius violated: %v > %v", nb.Dist, r)
			}
		}
	}
}

func TestWithinRadiusMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := randomPts(rng, 300)
	tr := Build(pts)
	for trial := 0; trial < 100; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		r := rng.Float64() * 20
		got := tr.WithinRadiusUnordered(q, r, nil, nil)
		sort.Slice(got, func(a, b int) bool { return nbWorse(got[b], got[a]) })
		want := bruteKNN(pts, q, len(pts), r, nil)
		if !sameNeighbors(got, want) {
			t.Fatalf("within-radius mismatch at %v r=%v: got %d want %d",
				q, r, len(got), len(want))
		}
	}
}

func TestKNNOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPts(rng, 200)
	tr := Build(pts)
	got := tr.KNN(geom.Pt(50, 50), 20, nil)
	for i := 1; i < len(got); i++ {
		if got[i].Dist < got[i-1].Dist {
			t.Fatalf("results not sorted: %v", got)
		}
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	tr := Build(pts)
	got := tr.KNN(geom.Pt(0, 0), 10, nil)
	if len(got) != 3 {
		t.Fatalf("want all 3 points, got %d", len(got))
	}
}

func TestKNNZeroK(t *testing.T) {
	tr := Build(randomPts(rand.New(rand.NewSource(6)), 10))
	if got := tr.KNN(geom.Pt(0, 0), 0, nil); got != nil {
		t.Errorf("k=0: %v", got)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(9, 9)}
	tr := Build(pts)
	got := tr.KNN(geom.Pt(5, 5), 3, nil)
	if len(got) != 3 {
		t.Fatalf("dup knn: %v", got)
	}
	for _, nb := range got {
		if nb.Dist != 0 {
			t.Fatalf("dup distances: %v", got)
		}
	}
	// Deterministic tie-break by index.
	if got[0].Index != 0 || got[1].Index != 1 || got[2].Index != 2 {
		t.Errorf("tie-break order: %v", got)
	}
}

func TestNearestDist(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)}
	tr := Build(pts)
	if nb := tr.KNN(geom.Pt(3, 0), 1, nil); len(nb) != 1 || math.Abs(nb[0].Dist-3) > 1e-12 {
		t.Errorf("nearest: %v", nb)
	}
}

func TestPointAccessor(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 2), geom.Pt(3, 4)}
	tr := Build(pts)
	if tr.Point(1) != geom.Pt(3, 4) {
		t.Errorf("point accessor: %v", tr.Point(1))
	}
	if tr.Len() != 2 {
		t.Errorf("len: %d", tr.Len())
	}
}

func TestClusteredDataCorrectness(t *testing.T) {
	// Heavily clustered data stresses the pruning logic.
	rng := rand.New(rand.NewSource(7))
	var pts []geom.Point
	for c := 0; c < 5; c++ {
		cx, cy := rng.Float64()*100, rng.Float64()*100
		for i := 0; i < 100; i++ {
			pts = append(pts, geom.Pt(cx+rng.NormFloat64()*0.5, cy+rng.NormFloat64()*0.5))
		}
	}
	tr := Build(pts)
	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		got := tr.KNN(q, 10, nil)
		want := bruteKNN(pts, q, 10, math.Inf(1), nil)
		if !sameNeighbors(got, want) {
			t.Fatalf("clustered kNN mismatch at %v", q)
		}
	}
}

func BenchmarkBuild10k(b *testing.B) {
	pts := randomPts(rand.New(rand.NewSource(8)), 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts)
	}
}

func BenchmarkKNN10k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	pts := randomPts(rng, 10000)
	tr := Build(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		tr.KNN(q, 10, nil)
	}
}

// TestBuildNaNPivot: a NaN coordinate that median-of-three selection
// picks as its pivot (the middle of a window, on the split axis) must
// not run the partition scan off the window's start. A checksum-valid
// pack can carry such a location into a shard rebuild.
func TestBuildNaNPivot(t *testing.T) {
	for _, n := range []int{15, 100, 1001} {
		for axis := 0; axis < 2; axis++ {
			pts := randomPts(rand.New(rand.NewSource(int64(n))), n)
			if axis == 0 {
				pts[n/2].X = math.NaN()
			} else {
				pts[n/2].Y = math.NaN()
			}
			if tr := Build(pts); tr.Len() != n {
				t.Fatalf("n=%d axis %d: len %d", n, axis, tr.Len())
			}
		}
	}
}

// TestLargeBuildEquivalence pins a build deep enough for quickselect's
// partitioning to dominate: the tree must index every point exactly
// once, keep every child pointer inside the node arena, and answer KNN
// identically to brute force.
func TestLargeBuildEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 12288
	pts := randomPts(rng, n)
	tr := Build(pts)

	if len(tr.nodes) != n {
		t.Fatalf("tree has %d nodes for %d points", len(tr.nodes), n)
	}
	seen := make([]bool, n)
	for _, nd := range tr.nodes {
		if nd.idx < 0 || nd.idx >= n || seen[nd.idx] {
			t.Fatalf("node index %d out of range or duplicated", nd.idx)
		}
		seen[nd.idx] = true
		if nd.left < -1 || int(nd.left) >= len(tr.nodes) || nd.right < -1 || int(nd.right) >= len(tr.nodes) {
			t.Fatalf("child pointer (%d, %d) outside the node arena", nd.left, nd.right)
		}
	}

	for trial := 0; trial < 50; trial++ {
		q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		k := 1 + rng.Intn(20)
		got := tr.KNN(q, k, nil)
		want := bruteKNN(pts, q, k, 1e18, nil)
		if !sameNeighbors(got, want) {
			t.Fatalf("trial %d: large tree disagrees with brute force at %v k=%d", trial, q, k)
		}
	}
}

// TestBuildPreorderedRoundTrip pins the O(n) rebuild path: points
// reordered by PreorderIndices and fed to BuildPreordered must form a
// tree that answers exactly like brute force, and whose own preorder
// is the identity (so write → reopen → write cycles are stable).
func TestBuildPreorderedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1023} {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		orig := Build(pts)
		order := orig.PreorderIndices()
		if len(order) != n {
			t.Fatalf("n=%d: preorder has %d entries", n, len(order))
		}
		re := make([]geom.Point, n)
		for pos, idx := range order {
			re[pos] = pts[idx]
		}
		rebuilt := BuildPreordered(re)
		if rebuilt.Len() != n || len(rebuilt.nodes) != n {
			t.Fatalf("n=%d: rebuilt tree has %d points, %d nodes", n, rebuilt.Len(), len(rebuilt.nodes))
		}
		for pos, idx := range rebuilt.PreorderIndices() {
			if idx != pos {
				t.Fatalf("n=%d: rebuilt preorder not identity at %d (got %d)", n, pos, idx)
			}
		}
		for trial := 0; trial < 30; trial++ {
			q := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			k := 1 + rng.Intn(8)
			got := rebuilt.KNN(q, k, nil)
			want := bruteKNN(re, q, k, 1e18, nil)
			if !sameNeighbors(got, want) {
				t.Fatalf("n=%d trial %d: preordered rebuild disagrees with brute force at %v k=%d", n, trial, q, k)
			}
		}
	}
}
