// Package kdtree provides a 2-D k-d tree used as the query engine of
// the simulated location based services: exact k-nearest-neighbor
// search with optional per-tuple filtering (for server-side selection
// pass-through) and radius-bounded search (for the maximum-coverage
// constraint of §5.3).
//
// The tree is built once over a static point set (LBS databases in the
// paper are static) and is safe for concurrent readers. Both builds
// run on the caller's goroutine: BuildOwned (and Build) from unordered
// points by quickselect, BuildPreordered from a stored preorder in
// O(n). Callers that build many trees at once, such as a sharded
// stack's partitioner, run their parallelism across trees.
//
// # Allocation contract
//
// The tree is the innermost dependency of every simulated oracle call,
// so the query API has allocation-free entry points: KNNInto and
// KNNWithinInto append into a caller-provided buffer (reusing its
// capacity) and traverse iteratively with a fixed-size stack, so a
// warm caller performs zero heap allocations per query. KNN is the
// convenience wrapper that allocates a fresh result slice.
package kdtree

import (
	"math"

	"repro/internal/geom"
)

// Tree is an immutable 2-D k-d tree over an indexed point set.
type Tree struct {
	pts   []geom.Point // original points, indexed by caller indices
	nodes []node       // implicit tree in preorder

	// Whole-set coordinate extents, recorded at build time for the
	// geodesic pruning bounds (see geodesic.go): the X (longitude)
	// range and the largest |Y| (latitude magnitude). One O(n) pass;
	// the Euclidean query paths never read them.
	minX, maxX, maxAbsY float64
}

type node struct {
	idx         int // index into pts
	axis        uint8
	left, right int32 // node slice offsets; −1 = none
}

// Build constructs a tree over pts. Indices reported by searches refer
// to positions in pts. Build copies the points, so the caller remains
// free to mutate or reuse the input slice afterwards; use BuildOwned
// to skip the copy when ownership is transferred.
func Build(pts []geom.Point) *Tree {
	return BuildOwned(append([]geom.Point(nil), pts...))
}

// BuildOwned constructs a tree that takes ownership of pts without
// copying: the caller must not mutate the slice (or its backing array)
// for the lifetime of the tree. Intended for construction-time callers
// that build the point set privately, e.g. lbs.Database. The build is
// the quickselect recursion of build, in expected O(n log n) time on
// the caller's goroutine.
func BuildOwned(pts []geom.Point) *Tree {
	t := &Tree{pts: pts}
	if len(pts) == 0 {
		return t
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	t.nodes = make([]node, 0, len(pts))
	t.build(idx, 0)
	t.computeExtents()
	return t
}

// computeExtents records the whole-set coordinate extents consumed by
// the geodesic pruning bounds.
func (t *Tree) computeExtents() {
	if len(t.pts) == 0 {
		return
	}
	t.minX, t.maxX = t.pts[0].X, t.pts[0].X
	t.maxAbsY = math.Abs(t.pts[0].Y)
	for _, p := range t.pts[1:] {
		if p.X < t.minX {
			t.minX = p.X
		}
		if p.X > t.maxX {
			t.maxX = p.X
		}
		if a := math.Abs(p.Y); a > t.maxAbsY {
			t.maxAbsY = a
		}
	}
}

// build recursively partitions idx around the median along the given
// axis and returns the node offset (−1 for empty). Median selection is
// quickselect (expected O(n) per level, O(n log n) for the whole
// build), and always places the median at len/2, so the tree is
// perfectly balanced and traversal depth is bounded by ⌈log₂ n⌉+1.
func (t *Tree) build(idx []int, depth int) int32 {
	if len(idx) == 0 {
		return -1
	}
	axis := uint8(depth % 2)
	mid := len(idx) / 2
	t.selectMedian(idx, mid, axis)
	off := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{idx: idx[mid], axis: axis})
	left := t.build(idx[:mid], depth+1)
	right := t.build(idx[mid+1:], depth+1)
	t.nodes[off].left = left
	t.nodes[off].right = right
	return off
}

// coord returns the build key of point index i along axis.
func (t *Tree) coord(i int, axis uint8) float64 {
	if axis == 0 {
		return t.pts[i].X
	}
	return t.pts[i].Y
}

// selectMedian partially orders idx so that idx[nth] holds the element
// of rank nth along axis, everything before it is ≤ and everything
// after is ≥ (quickselect with median-of-three pivoting; insertion
// sort below a small cutoff).
func (t *Tree) selectMedian(idx []int, nth int, axis uint8) {
	lo, hi := 0, len(idx)-1
	for hi-lo > 12 {
		// Median-of-three pivot, stored at lo.
		m := lo + (hi-lo)/2
		if t.coord(idx[m], axis) < t.coord(idx[lo], axis) {
			idx[m], idx[lo] = idx[lo], idx[m]
		}
		if t.coord(idx[hi], axis) < t.coord(idx[lo], axis) {
			idx[hi], idx[lo] = idx[lo], idx[hi]
		}
		if t.coord(idx[hi], axis) < t.coord(idx[m], axis) {
			idx[hi], idx[m] = idx[m], idx[hi]
		}
		idx[lo], idx[m] = idx[m], idx[lo]
		pivot := t.coord(idx[lo], axis)
		// Hoare partition.
		i, j := lo, hi+1
		for {
			for {
				i++
				if i > hi || t.coord(idx[i], axis) >= pivot {
					break
				}
			}
			for {
				j--
				// The pivot at lo stops the scan, unless it is NaN.
				if j == lo || t.coord(idx[j], axis) <= pivot {
					break
				}
			}
			if i >= j {
				break
			}
			idx[i], idx[j] = idx[j], idx[i]
		}
		idx[lo], idx[j] = idx[j], idx[lo]
		switch {
		case j == nth:
			return
		case j < nth:
			lo = j + 1
		default:
			hi = j - 1
		}
	}
	// Insertion sort on the remaining window.
	for i := lo + 1; i <= hi; i++ {
		for j := i; j > lo && t.coord(idx[j], axis) < t.coord(idx[j-1], axis); j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// PreorderIndices returns the point indices in the tree's preorder
// (root, left subtree, right subtree). A point set stored in this
// order can be re-indexed by BuildPreordered without any median
// selection: the median-at-len/2 build makes the tree shape a pure
// function of the point count, so preorder position alone determines
// structure.
func (t *Tree) PreorderIndices() []int {
	out := make([]int, 0, len(t.nodes))
	if len(t.nodes) == 0 {
		return out
	}
	stack := make([]int32, 1, maxTraversalDepth)
	stack[0] = 0
	for len(stack) > 0 {
		off := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[off]
		out = append(out, n.idx)
		if n.right >= 0 {
			stack = append(stack, n.right)
		}
		if n.left >= 0 {
			stack = append(stack, n.left)
		}
	}
	return out
}

// BuildPreordered constructs a tree over pts already arranged in the
// preorder of a median-balanced build (as reported by
// PreorderIndices). It takes ownership of pts like BuildOwned, and
// runs in O(n) with no comparisons: the subtree sizes replay the
// exact shape build would have produced, and the partitioning
// invariant is inherited from the order in which the points were
// laid out. Callers must only feed it genuinely preordered data (the
// store's pack format guarantees this for checksummed files).
func BuildPreordered(pts []geom.Point) *Tree {
	t := &Tree{pts: pts}
	if len(pts) == 0 {
		return t
	}
	t.nodes = make([]node, 0, len(pts))
	t.buildPre(0, len(pts), 0)
	t.computeExtents()
	return t
}

// buildPre lays out the subtree whose preorder window is
// [lo, lo+n): the root sits at lo, its left subtree (⌊n/2⌋ points)
// follows immediately, the right subtree takes the rest.
func (t *Tree) buildPre(lo, n, depth int) int32 {
	if n == 0 {
		return -1
	}
	mid := n / 2
	off := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{idx: lo, axis: uint8(depth % 2)})
	left := t.buildPre(lo+1, mid, depth+1)
	right := t.buildPre(lo+1+mid, n-mid-1, depth+1)
	t.nodes[off].left = left
	t.nodes[off].right = right
	return off
}

// Len returns the number of indexed points.
func (t *Tree) Len() int { return len(t.pts) }

// Point returns the point at index i.
func (t *Tree) Point(i int) geom.Point { return t.pts[i] }

// Neighbor is one search result: the point's index and its Euclidean
// distance from the query.
type Neighbor struct {
	Index int
	Dist  float64
}

// nbWorse is the max-heap / sort order of the search frontier: by
// distance, ties broken by index for determinism.
func nbWorse(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist > b.Dist
	}
	return a.Index > b.Index
}

// siftDownNb restores the "worst at root" heap property below i.
func siftDownNb(h []Neighbor, i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		worst := l
		if r := l + 1; r < len(h) && nbWorse(h[r], h[l]) {
			worst = r
		}
		if !nbWorse(h[worst], h[i]) {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// siftUpNb restores the heap property above i after a push at i.
func siftUpNb(h []Neighbor, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !nbWorse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// maxTraversalDepth bounds the iterative traversal stack. The build is
// median-balanced, so depth ≤ ⌈log₂ n⌉+1 ≤ 64 for any addressable n.
const maxTraversalDepth = 64

// KNN returns up to k nearest neighbors of q among points accepted by
// filter (nil filter accepts everything), ordered by increasing
// distance. Ties are broken by index for determinism.
func (t *Tree) KNN(q geom.Point, k int, filter func(int) bool) []Neighbor {
	return t.KNNWithinInto(q, k, math.Inf(1), filter, nil)
}

// KNNInto is KNN appending into buf[:0] (whose capacity is reused; a
// nil buf allocates). The returned slice aliases buf and is valid only
// until the caller reuses it. With cap(buf) ≥ k+1 the search performs
// no heap allocation.
func (t *Tree) KNNInto(q geom.Point, k int, filter func(int) bool, buf []Neighbor) []Neighbor {
	return t.KNNWithinInto(q, k, math.Inf(1), filter, buf)
}

// KNNWithinInto is the radius-capped allocation-free variant; see
// KNNInto for the buffer contract.
func (t *Tree) KNNWithinInto(q geom.Point, k int, maxDist float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	h := buf[:0]
	if k <= 0 || len(t.nodes) == 0 {
		return h
	}
	maxDist2 := maxDist * maxDist
	// Iterative best-first descent: walk toward the query, stacking the
	// far child of every visited node together with its splitting-plane
	// distance; pop entries whose plane is still closer than the k-th
	// best distance. The stack never holds more than one entry per tree
	// level (entries are pushed in strictly increasing depth along any
	// descent), so a fixed array suffices — no per-query allocation.
	type frame struct {
		off    int32
		plane2 float64
	}
	var stack [maxTraversalDepth]frame
	top := 0
	off := int32(0)
	for {
		for off >= 0 {
			n := &t.nodes[off]
			p := t.pts[n.idx]
			d2 := q.Dist2(p)
			if d2 <= maxDist2 && (filter == nil || filter(n.idx)) {
				nb := Neighbor{Index: n.idx, Dist: math.Sqrt(d2)}
				if len(h) < k {
					h = append(h, nb)
					siftUpNb(h, len(h)-1)
				} else if nbWorse(h[0], nb) {
					h[0] = nb
					siftDownNb(h, 0)
				}
			}
			var planeDist float64
			if n.axis == 0 {
				planeDist = q.X - p.X
			} else {
				planeDist = q.Y - p.Y
			}
			near, far := n.left, n.right
			if planeDist > 0 {
				near, far = far, near
			}
			if far >= 0 {
				stack[top] = frame{off: far, plane2: planeDist * planeDist}
				top++
			}
			off = near
		}
		// Pop the next pending far subtree still worth visiting.
		off = -1
		for top > 0 {
			top--
			fr := stack[top]
			if fr.plane2 > maxDist2 {
				continue
			}
			if len(h) == k && fr.plane2 >= h[0].Dist*h[0].Dist {
				continue
			}
			off = fr.off
			break
		}
		if off < 0 {
			break
		}
	}
	// Heap-sort in place: repeatedly swap the worst to the tail. The
	// "worst at root" order yields ascending (Dist, Index).
	for i := len(h) - 1; i > 0; i-- {
		h[0], h[i] = h[i], h[0]
		siftDownNb(h[:i], 0)
	}
	return h
}

// WithinRadiusUnordered returns all points within radius r of q
// accepted by filter, appending into buf[:0] (capacity reused, nil buf
// allocates; the result aliases buf). Results come back in
// tree-traversal order, not sorted: the caller (ground-truth cell
// construction) feeds them to its own distance heap.
func (t *Tree) WithinRadiusUnordered(q geom.Point, r float64, filter func(int) bool, buf []Neighbor) []Neighbor {
	out := buf[:0]
	if len(t.nodes) == 0 || r < 0 {
		return out
	}
	t.within(0, q, r*r, filter, &out)
	return out
}

func (t *Tree) within(off int32, q geom.Point, r2 float64, filter func(int) bool, out *[]Neighbor) {
	if off < 0 {
		return
	}
	n := &t.nodes[off]
	p := t.pts[n.idx]
	if d2 := q.Dist2(p); d2 <= r2 && (filter == nil || filter(n.idx)) {
		*out = append(*out, Neighbor{Index: n.idx, Dist: math.Sqrt(d2)})
	}
	var qc, pc float64
	if n.axis == 0 {
		qc, pc = q.X, p.X
	} else {
		qc, pc = q.Y, p.Y
	}
	near, far := n.left, n.right
	if qc > pc {
		near, far = far, near
	}
	t.within(near, q, r2, filter, out)
	planeDist := qc - pc
	if planeDist*planeDist <= r2 {
		t.within(far, q, r2, filter, out)
	}
}
