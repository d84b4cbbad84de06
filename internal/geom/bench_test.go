package geom

import (
	"math/rand"
	"testing"
)

// benchPoly is a convex 8-gon crossed by benchLine.
var (
	benchPoly Polygon
	benchLine Line
)

func init() {
	rng := rand.New(rand.NewSource(9))
	benchPoly = randomConvexBench(rng, 8)
	benchLine = LineThrough(Pt(0.45, -1), Pt(0.55, 2))
}

func randomConvexBench(rng *rand.Rand, maxV int) Polygon {
	for {
		pts := make([]Point, 3+rng.Intn(maxV))
		for i := range pts {
			pts[i] = Pt(rng.Float64(), rng.Float64())
		}
		if h := convexHull(pts); h != nil && h.Area() > 0.2 {
			return h
		}
	}
}

// BenchmarkSplit measures the allocating split (legacy entry point).
func BenchmarkSplit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchPoly.Split(benchLine)
	}
}

// BenchmarkSplitInto measures the scratch-buffer split — the form the
// cell engine uses in steady state; must show 0 allocs/op.
func BenchmarkSplitInto(b *testing.B) {
	var negBuf, posBuf Polygon
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		neg, pos, _ := benchPoly.SplitInto(benchLine, negBuf, posBuf)
		negBuf, posBuf = neg, pos
	}
}

// BenchmarkEvalRange measures the O(1) bbox fast-reject primitive.
func BenchmarkEvalRange(b *testing.B) {
	r := benchPoly.BoundingRect()
	var sink float64
	for i := 0; i < b.N; i++ {
		lo, hi := benchLine.EvalRange(r)
		sink += lo + hi
	}
	_ = sink
}
